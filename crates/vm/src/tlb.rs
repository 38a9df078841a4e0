//! Set-associative TLB models (Table 1: 64-entry, 4-way DTLB).

use stacksim_types::Cycles;

/// TLB geometry and miss cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Set associativity.
    pub associativity: usize,
    /// Page-walk latency charged on a miss.
    pub walk_latency: Cycles,
}

impl TlbConfig {
    /// The paper's DTLB: 64 entries, 4-way (Table 1), with a
    /// representative 30-cycle hardware page walk.
    pub fn dtlb_penryn() -> TlbConfig {
        TlbConfig {
            entries: 64,
            associativity: 4,
            walk_latency: Cycles::new(30),
        }
    }

    /// Sets per TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a whole number of sets.
    pub fn sets(&self) -> usize {
        assert!(
            self.associativity > 0 && self.entries.is_multiple_of(self.associativity),
            "TLB entries must divide into whole sets"
        );
        self.entries / self.associativity
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::dtlb_penryn()
    }
}

/// Result of a TLB access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Translation cached; no extra latency.
    Hit,
    /// Translation missing; the page walk costs the configured latency and
    /// the entry is now cached.
    Miss {
        /// Latency of the page walk.
        walk: Cycles,
    },
}

#[derive(Clone, Copy, Debug, Default)]
struct TlbEntry {
    vpage: u64,
    valid: bool,
    last_use: u64,
}

/// A set-associative, LRU translation lookaside buffer.
///
/// The TLB caches *which* virtual pages are translated, not the frame
/// numbers themselves — the simulator's [`PageAllocator`](crate::PageAllocator)
/// owns the actual mapping; the TLB only decides whether a page walk is
/// charged.
///
/// # Examples
///
/// ```
/// use stacksim_vm::{Tlb, TlbConfig, TlbOutcome};
///
/// let mut tlb = Tlb::new(TlbConfig::dtlb_penryn());
/// assert!(matches!(tlb.access(7), TlbOutcome::Miss { .. }));
/// assert_eq!(tlb.access(7), TlbOutcome::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    sets: Vec<Vec<TlbEntry>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a whole number of sets.
    pub fn new(config: TlbConfig) -> Self {
        let sets = config.sets();
        Tlb {
            config,
            sets: vec![vec![TlbEntry::default(); config.associativity]; sets],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the translation for `vpage`, filling on a miss.
    pub fn access(&mut self, vpage: u64) -> TlbOutcome {
        self.clock += 1;
        let set = (vpage % self.sets.len() as u64) as usize;
        if let Some(e) = self.sets[set]
            .iter_mut()
            .find(|e| e.valid && e.vpage == vpage)
        {
            e.last_use = self.clock;
            self.hits += 1;
            return TlbOutcome::Hit;
        }
        self.misses += 1;
        let clock = self.clock;
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_use } else { 0 })
            .expect("associativity is non-zero"); // simlint::allow(P002, reason = "the constructor rejects zero associativity, so min_by_key sees an entry")
        *victim = TlbEntry {
            vpage,
            valid: true,
            last_use: clock,
        };
        TlbOutcome::Miss {
            walk: self.config.walk_latency,
        }
    }

    /// Whether `vpage`'s translation is cached (no state change).
    pub fn contains(&self, vpage: u64) -> bool {
        let set = (vpage % self.sets.len() as u64) as usize;
        self.sets[set].iter().any(|e| e.valid && e.vpage == vpage)
    }

    /// Invalidates every entry (context switch / shootdown).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for e in set {
                e.valid = false;
            }
        }
    }

    /// Hit count.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate, `None` before the first access.
    pub fn miss_rate(&self) -> Option<f64> {
        let total = (self.hits + self.misses) as f64;
        (total > 0.0).then(|| self.misses as f64 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            associativity: 2,
            walk_latency: Cycles::new(30),
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        assert_eq!(
            t.access(10),
            TlbOutcome::Miss {
                walk: Cycles::new(30)
            }
        );
        assert_eq!(t.access(10), TlbOutcome::Hit);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_within_set() {
        let mut t = tiny(); // 2 sets x 2 ways; even pages -> set 0
        t.access(0);
        t.access(2);
        t.access(0); // 2 becomes LRU
        t.access(4); // evicts 2
        assert!(t.contains(0));
        assert!(!t.contains(2));
        assert!(t.contains(4));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut t = tiny();
        for vpage in 0..4 {
            t.access(vpage);
        }
        for vpage in 0..4 {
            assert!(t.contains(vpage), "page {vpage} evicted early");
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut t = tiny();
        t.access(1);
        t.flush();
        assert!(!t.contains(1));
        assert!(matches!(t.access(1), TlbOutcome::Miss { .. }));
    }

    #[test]
    fn stats_miss_rate() {
        let mut t = tiny();
        t.access(1);
        t.access(1);
        assert_eq!(t.miss_rate(), Some(0.5));
    }

    #[test]
    fn penryn_geometry() {
        let c = TlbConfig::dtlb_penryn();
        assert_eq!(c.sets(), 16);
        let t = Tlb::new(c);
        assert!(!t.contains(0));
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn ragged_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 5,
            associativity: 2,
            walk_latency: Cycles::ZERO,
        });
    }
}
