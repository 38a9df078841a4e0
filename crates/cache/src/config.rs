//! Cache geometry configuration.

use stacksim_types::LINE_BYTES;

/// Geometry of one cache (or one bank of a banked cache).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity.
    pub associativity: usize,
}

impl CacheConfig {
    /// The paper's per-core DL1: 24 KB, 12-way, 64-byte lines (Table 1).
    pub fn dl1_penryn() -> CacheConfig {
        CacheConfig {
            size_bytes: 24 << 10,
            associativity: 12,
        }
    }

    /// The paper's shared L2: 12 MB, 24-way, 64-byte lines (Table 1).
    /// Banking (16 banks) is applied by [`BankedCache`](crate::BankedCache).
    pub fn dl2_penryn() -> CacheConfig {
        CacheConfig {
            size_bytes: 12 << 20,
            associativity: 24,
        }
    }

    /// The 6 MB L2 used for the stand-alone MPKI characterization of
    /// Table 2(a).
    pub fn dl2_6mb() -> CacheConfig {
        CacheConfig {
            size_bytes: 6 << 20,
            associativity: 24,
        }
    }

    /// Returns this configuration grown by `extra_bytes` (the paper's
    /// +512 KB / +1 MB L2 rows in Figure 6(a)).
    pub fn grown_by(self, extra_bytes: u64) -> CacheConfig {
        CacheConfig {
            size_bytes: self.size_bytes + extra_bytes,
            ..self
        }
    }

    /// Number of cache lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }

    /// Number of sets, or `None` unless the capacity is a positive whole
    /// number of `associativity × 64 B` sets.
    pub fn whole_sets(&self) -> Option<usize> {
        let set_bytes = (self.associativity as u64).checked_mul(LINE_BYTES)?;
        (set_bytes > 0 && self.size_bytes >= set_bytes && self.size_bytes.is_multiple_of(set_bytes))
            .then(|| (self.size_bytes / set_bytes) as usize)
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `associativity × 64 B` (see [`whole_sets`](Self::whole_sets)).
    pub fn sets(&self) -> usize {
        let sets = self.whole_sets();
        assert!(sets.is_some(), "capacity must be a whole number of sets");
        sets.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penryn_geometries() {
        let l1 = CacheConfig::dl1_penryn();
        assert_eq!(l1.lines(), 384);
        assert_eq!(l1.sets(), 32);
        let l2 = CacheConfig::dl2_penryn();
        assert_eq!(l2.lines(), 196_608);
        assert_eq!(l2.sets(), 8192);
        assert_eq!(CacheConfig::dl2_6mb().sets(), 4096);
    }

    #[test]
    fn grown_by_adds_capacity() {
        let g = CacheConfig::dl2_penryn().grown_by(512 << 10);
        assert_eq!(g.size_bytes, (12 << 20) + (512 << 10));
        assert_eq!(g.associativity, 24);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn ragged_capacity_panics() {
        let c = CacheConfig {
            size_bytes: 10 * 64,
            associativity: 3,
        };
        let _ = c.sets();
    }

    #[test]
    fn whole_sets_rejects_partial_lines_and_sets() {
        let sets = |size_bytes, associativity| {
            CacheConfig {
                size_bytes,
                associativity,
            }
            .whole_sets()
        };
        assert_eq!(sets(24 << 10, 12), Some(32));
        assert_eq!(sets(24_640, 12), None); // 385 lines
        assert_eq!(sets(786_436, 24), None); // not whole lines
        assert_eq!(sets(64, 2), None); // less than one set
        assert_eq!(sets(64, 0), None);
        assert_eq!(sets(3 * 64 * 7, 3), Some(7));
    }
}
