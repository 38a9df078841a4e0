//! Set-associative TLB models (Table 1: 64-entry, 4-way DTLB).
//!
//! Entries live in the [`LruSets`] way store the caches share, keyed by
//! virtual page with the slot flag unused: each set keeps its pages most
//! recently used first, and a miss fills an empty entry if one exists,
//! else replaces the set's least recently used page.

use stacksim_types::{Cycles, LruSets};

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
    entries: LruSets,
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
        Tlb {
            config,
            entries: LruSets::new(config.sets(), config.associativity),
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the translation for `vpage`, filling on a miss with the
    /// set's least recently used entry as the victim.
    pub fn access(&mut self, vpage: u64) -> TlbOutcome {
        if self.entries.touch(vpage, false) {
            self.hits += 1;
            return TlbOutcome::Hit;
        }
        self.misses += 1;
        self.entries.insert(vpage, false);
        TlbOutcome::Miss {
            walk: self.config.walk_latency,
        }
    }

    /// Whether `vpage`'s translation is cached (no state change).
    pub fn contains(&self, vpage: u64) -> bool {
        self.entries.contains(vpage)
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
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    /// (entries, associativity): direct-mapped, a non-power-of-two set
    /// count, the Table 1 DTLB, and one 65-way set.
    const GEOMETRIES: [(usize, usize); 4] = [(5, 1), (21, 3), (64, 4), (65, 65)];

    /// The largest virtual page a 64-bit address yields.
    const MAX_VPAGE: u64 = u64::MAX / 4096;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random access/probe sequences give the outcomes and counters of
        /// a naive reference: one deque of pages per set, most recent
        /// first.
        #[test]
        fn tlb_matches_naive_lru_reference(
            geometry in 0..GEOMETRIES.len(),
            ops in proptest::collection::vec((any::<bool>(), 0u64..256, any::<bool>()), 1..600),
        ) {
            let (entries, associativity) = GEOMETRIES[geometry];
            let mut t = Tlb::new(TlbConfig {
                entries,
                associativity,
                walk_latency: Cycles::new(30),
            });
            let sets = entries / associativity;
            let mut reference: Vec<VecDeque<u64>> = vec![VecDeque::new(); sets];
            let (mut hits, mut misses) = (0, 0);
            let universe = (sets * (associativity + 2)) as u64;
            for &(probe, n, high) in &ops {
                let vpage = if high { MAX_VPAGE - n % 8 } else { n % universe };
                let set = &mut reference[(vpage % sets as u64) as usize];
                let found = set.iter().position(|&p| p == vpage);
                if probe {
                    prop_assert_eq!(t.contains(vpage), found.is_some());
                    continue;
                }
                let expected = match found {
                    Some(i) => {
                        set.remove(i);
                        hits += 1;
                        TlbOutcome::Hit
                    }
                    None => {
                        if set.len() == associativity {
                            set.pop_back();
                        }
                        misses += 1;
                        TlbOutcome::Miss { walk: Cycles::new(30) }
                    }
                };
                set.push_front(vpage);
                prop_assert_eq!(t.access(vpage), expected);
            }
            prop_assert_eq!((t.hits(), t.misses()), (hits, misses));
        }
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
