//! A set-associative, write-back, write-allocate cache with true LRU.
//!
//! Tags and dirty bits live in one [`LruSets`] way store: each set keeps
//! its lines most recently used first, so a fill evicts the set's last
//! line and no recency stamp is stored. No caller can observe which way
//! holds a line, so this is bit-identical to any true-LRU layout that
//! fills an empty way whenever one exists.

use stacksim_types::{LineAddr, LruSets};

use crate::config::CacheConfig;

/// Result of probing a cache for a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line is present; LRU updated (and dirty bit on writes).
    Hit,
    /// The line is absent. The caller must obtain it (MSHR + memory) and
    /// later call [`SetAssocCache::fill`].
    Miss,
}

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether it must be written back to the next level.
    pub dirty: bool,
}

/// A set-associative cache holding tags and metadata only (no data bytes —
/// the simulator tracks timing and movement, not values).
///
/// Misses do **not** allocate; the owner allocates an MSHR, fetches the
/// line, and then calls [`fill`](SetAssocCache::fill). This mirrors the
/// lockup-free pipeline of the simulated machine and keeps "in flight" state
/// in the MSHRs where the paper's §5 analysis needs it.
///
/// Way state is one [`LruSets`] keyed by line index, with the dirty bit as
/// the slot flag: one `u64` per way. `contains` — the single hottest probe
/// in the simulator (every demand access, every prefetch candidate, every
/// inclusion check) — scans `assoc` consecutive words.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    ways: LruSets,
    hits: u64,
    misses: u64,
    writebacks: u64,
    fills: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not describe a whole number of sets.
    pub fn new(config: CacheConfig) -> Self {
        SetAssocCache {
            config,
            ways: LruSets::new(config.sets(), config.associativity),
            hits: 0,
            misses: 0,
            writebacks: 0,
            fills: 0,
        }
    }

    /// The geometry.
    pub const fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Probes for `line`; on a hit updates recency and, for writes, the
    /// dirty bit.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        if self.ways.touch(line.index(), is_write) {
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Probes without updating any state (for inclusive-hierarchy checks).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.ways.contains(line.index())
    }

    /// Installs `line` as its set's most recently used line, evicting the
    /// least recently used one if the set is full. A line that raced in
    /// already is refreshed in place and absorbs `dirty`. Returns the
    /// victim if one was evicted; dirty victims must be written back by the
    /// caller.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Victim> {
        self.fills += 1;
        let (line, dirty) = self.ways.insert(line.index(), dirty)?;
        self.writebacks += u64::from(dirty);
        Some(Victim {
            line: LineAddr::new(line),
            dirty,
        })
    }

    /// Marks `line` dirty if present (write to an already-resident line
    /// discovered through another path).
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        self.ways.set_flag(line.index())
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.resident()
    }

    /// Demand hits observed.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions produced.
    pub const fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Lines installed by [`fill`](Self::fill), resident or not.
    pub const fn fills(&self) -> u64 {
        self.fills
    }

    /// Demand miss rate, `None` before the first demand access.
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

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * 64,
            associativity: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let line = LineAddr::new(4);
        assert_eq!(c.access(line, false), AccessOutcome::Miss);
        assert_eq!(c.fill(line, false), None);
        assert_eq!(c.access(line, false), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds even line indices (mod 2 sets): lines 0, 2, 4.
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(2), false);
        // Touch 0 so 2 becomes LRU.
        assert_eq!(c.access(LineAddr::new(0), false), AccessOutcome::Hit);
        let victim = c.fill(LineAddr::new(4), false).unwrap();
        assert_eq!(victim.line, LineAddr::new(2));
        assert!(!victim.dirty);
        assert!(c.contains(LineAddr::new(0)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(LineAddr::new(0), false);
        assert_eq!(c.access(LineAddr::new(0), true), AccessOutcome::Hit); // dirty now
        c.fill(LineAddr::new(2), false);
        let victim = c.fill(LineAddr::new(4), false).unwrap();
        assert_eq!(victim.line, LineAddr::new(0));
        assert!(victim.dirty);
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn fill_of_resident_line_merges() {
        let mut c = tiny();
        c.fill(LineAddr::new(0), false);
        assert_eq!(c.fill(LineAddr::new(0), true), None);
        // Line is now dirty: evicting it reports a writeback.
        c.fill(LineAddr::new(2), false);
        c.access(LineAddr::new(2), false);
        let victim = c.fill(LineAddr::new(4), false).unwrap();
        assert!(victim.dirty);
    }

    #[test]
    fn mark_dirty_only_if_present() {
        let mut c = tiny();
        c.fill(LineAddr::new(0), false);
        assert!(c.mark_dirty(LineAddr::new(0)));
        assert!(!c.mark_dirty(LineAddr::new(2)));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0,2 -> set 0; lines 1,3 -> set 1.
        for l in 0..4 {
            assert!(c.fill(LineAddr::new(l), false).is_none());
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = tiny();
        c.access(LineAddr::new(0), false);
        c.fill(LineAddr::new(0), false);
        c.access(LineAddr::new(0), false);
        assert_eq!(c.miss_rate(), Some(0.5));
    }

    /// Naive true-LRU reference: one deque per set, most recent first.
    struct Reference {
        sets: Vec<VecDeque<(u64, bool)>>,
        assoc: usize,
        hits: u64,
        misses: u64,
        fills: u64,
        writebacks: u64,
    }

    impl Reference {
        fn new(sets: usize, assoc: usize) -> Self {
            Reference {
                sets: vec![VecDeque::new(); sets],
                assoc,
                hits: 0,
                misses: 0,
                fills: 0,
                writebacks: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut VecDeque<(u64, bool)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn find(&mut self, line: u64) -> Option<usize> {
            self.set(line).iter().position(|&(l, _)| l == line)
        }

        fn access(&mut self, line: u64, write: bool) -> AccessOutcome {
            match self.find(line) {
                Some(i) => {
                    let set = self.set(line);
                    let (l, dirty) = set.remove(i).unwrap();
                    set.push_front((l, dirty | write));
                    self.hits += 1;
                    AccessOutcome::Hit
                }
                None => {
                    self.misses += 1;
                    AccessOutcome::Miss
                }
            }
        }

        fn fill(&mut self, line: u64, dirty: bool) -> Option<Victim> {
            self.fills += 1;
            let assoc = self.assoc;
            let found = self.find(line);
            let set = self.set(line);
            if let Some(i) = found {
                let (l, d) = set.remove(i).unwrap();
                set.push_front((l, d | dirty));
                return None;
            }
            let victim = (set.len() == assoc).then(|| set.pop_back().unwrap());
            set.push_front((line, dirty));
            let (line, dirty) = victim?;
            self.writebacks += u64::from(dirty);
            Some(Victim {
                line: LineAddr::new(line),
                dirty,
            })
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            let found = self.find(line);
            if let Some(i) = found {
                self.set(line)[i].1 = true;
            }
            found.is_some()
        }

        fn contains(&mut self, line: u64) -> bool {
            self.find(line).is_some()
        }
    }

    /// The largest line index a `PhysAddr` yields.
    const MAX_LINE: u64 = (1 << 58) - 1;

    /// (sets, ways): direct-mapped, a non-power-of-two set count, the L2
    /// bank's associativity, and more ways than a cache line has bytes.
    const GEOMETRIES: [(usize, usize); 4] = [(5, 1), (7, 3), (2, 24), (3, 65)];

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Access(bool),
        Fill(bool),
        Contains,
        MarkDirty,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<bool>().prop_map(Op::Access),
            any::<bool>().prop_map(Op::Fill),
            Just(Op::Contains),
            Just(Op::MarkDirty),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random operation sequences give the reference's outcomes,
        /// victims and counters, on lines near zero and near the top of
        /// the line-index range.
        #[test]
        fn cache_matches_naive_lru_reference(
            geometry in 0..GEOMETRIES.len(),
            ops in proptest::collection::vec((op(), 0u64..256, any::<bool>()), 1..600),
        ) {
            let (sets, assoc) = GEOMETRIES[geometry];
            let mut c = SetAssocCache::new(CacheConfig {
                size_bytes: (sets * assoc * 64) as u64,
                associativity: assoc,
            });
            let mut reference = Reference::new(sets, assoc);
            // Enough distinct lines per set to force evictions.
            let universe = (sets * (assoc + 2)) as u64;
            for &(op, n, high) in &ops {
                let line = if high { MAX_LINE - n % 8 } else { n % universe };
                let addr = LineAddr::new(line);
                match op {
                    Op::Access(write) => {
                        prop_assert_eq!(c.access(addr, write), reference.access(line, write));
                    }
                    Op::Fill(dirty) => {
                        prop_assert_eq!(c.fill(addr, dirty), reference.fill(line, dirty));
                    }
                    Op::Contains => prop_assert_eq!(c.contains(addr), reference.contains(line)),
                    Op::MarkDirty => {
                        prop_assert_eq!(c.mark_dirty(addr), reference.mark_dirty(line));
                    }
                }
            }
            prop_assert_eq!(
                (c.hits(), c.misses(), c.fills(), c.writebacks()),
                (reference.hits, reference.misses, reference.fills, reference.writebacks)
            );
            let resident: usize = reference.sets.iter().map(VecDeque::len).sum();
            prop_assert_eq!(c.occupancy(), resident);
        }
    }

    #[test]
    fn realistic_l2_geometry_works() {
        let mut c = SetAssocCache::new(CacheConfig::dl2_penryn());
        for l in 0..10_000u64 {
            c.fill(LineAddr::new(l), false);
        }
        assert_eq!(c.occupancy(), 10_000);
    }
}
