//! A set-associative, write-back, write-allocate cache with true LRU.

use stacksim_types::LineAddr;

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

/// Sentinel tag marking an invalid way. No real line reaches it: tags are
/// line indices (physical addresses shifted down by the line-size bits).
const INVALID_TAG: u64 = u64::MAX;

/// A set-associative cache holding tags and metadata only (no data bytes —
/// the simulator tracks timing and movement, not values).
///
/// Misses do **not** allocate; the owner allocates an MSHR, fetches the
/// line, and then calls [`fill`](SetAssocCache::fill). This mirrors the
/// lockup-free pipeline of the simulated machine and keeps "in flight" state
/// in the MSHRs where the paper's §5 analysis needs it.
///
/// Way state lives in flat parallel arrays (`tags` / `dirty` / `last_use`,
/// set *s* at indices `s * assoc .. (s + 1) * assoc`, `INVALID_TAG` for
/// empty ways) rather than per-set `Vec<Way>` structs: `contains` — the
/// single hottest probe in the simulator (every demand access, every
/// prefetch candidate, every inclusion check) — scans `assoc` consecutive
/// words instead of pointer-chasing a nested vector of 32-byte structs.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    set_count: usize,
    assoc: usize,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    last_use: Vec<u64>,
    clock: u64,
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
        let set_count = config.sets();
        let ways = set_count * config.associativity;
        SetAssocCache {
            config,
            set_count,
            assoc: config.associativity,
            tags: vec![INVALID_TAG; ways],
            dirty: vec![false; ways],
            last_use: vec![0; ways],
            clock: 0,
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

    /// Index of the first way of `line`'s set.
    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        debug_assert_ne!(line.index(), INVALID_TAG, "line index hit the sentinel");
        (line.index() % self.set_count as u64) as usize * self.assoc
    }

    /// Way index holding `tag` within the set starting at `base`, if any.
    #[inline]
    fn find_way(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
            .map(|p| base + p)
    }

    /// Probes for `line`; on a hit updates recency and, for writes, the
    /// dirty bit.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let base = self.set_base(line);
        if let Some(w) = self.find_way(base, line.index()) {
            self.last_use[w] = self.clock;
            self.dirty[w] |= is_write;
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        self.misses += 1;
        AccessOutcome::Miss
    }

    /// Probes without updating any state (for inclusive-hierarchy checks).
    pub fn contains(&self, line: LineAddr) -> bool {
        let base = self.set_base(line);
        self.tags[base..base + self.assoc].contains(&line.index())
    }

    /// Installs `line`, evicting the LRU way of its set if necessary.
    /// Returns the victim if one was evicted; dirty victims must be written
    /// back by the caller.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Victim> {
        self.clock += 1;
        self.fills += 1;
        let base = self.set_base(line);
        let tag = line.index();
        // One pass picks the way: the line itself if it raced in already
        // (refresh in place), else the first invalid way, else the least
        // recently used (first minimum in scan order).
        let end = base + self.assoc;
        let mut resident = None;
        let mut invalid = None;
        let (mut lru, mut lru_use) = (0, u64::MAX);
        for (i, (&t, &used)) in self.tags[base..end]
            .iter()
            .zip(&self.last_use[base..end])
            .enumerate()
        {
            if t == tag {
                resident = Some(i);
                break;
            }
            if t == INVALID_TAG {
                invalid = invalid.or(Some(i));
            } else if used < lru_use {
                (lru, lru_use) = (i, used);
            }
        }
        if let Some(i) = resident {
            let w = base + i;
            self.last_use[w] = self.clock;
            self.dirty[w] |= dirty;
            return None;
        }
        let (w, evicted) = match invalid {
            Some(i) => (base + i, false),
            None => (base + lru, true),
        };
        let victim = evicted.then(|| Victim {
            line: LineAddr::new(self.tags[w]),
            dirty: self.dirty[w],
        });
        if victim.as_ref().is_some_and(|v| v.dirty) {
            self.writebacks += 1;
        }
        self.tags[w] = tag;
        self.dirty[w] = dirty;
        self.last_use[w] = self.clock;
        victim
    }

    /// Removes `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let base = self.set_base(line);
        let w = self.find_way(base, line.index())?;
        self.tags[w] = INVALID_TAG;
        Some(self.dirty[w])
    }

    /// Marks `line` dirty if present (write to an already-resident line
    /// discovered through another path).
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let base = self.set_base(line);
        match self.find_way(base, line.index()) {
            Some(w) => {
                self.dirty[w] = true;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
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
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(LineAddr::new(0), true);
        assert_eq!(c.invalidate(LineAddr::new(0)), Some(true));
        assert_eq!(c.invalidate(LineAddr::new(0)), None);
        assert!(!c.contains(LineAddr::new(0)));
        assert_eq!(c.occupancy(), 0);
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

    /// Reference fill in three scans: resident way, else first invalid
    /// way, else first LRU minimum.
    fn reference_fill(c: &mut SetAssocCache, line: LineAddr, dirty: bool) -> Option<Victim> {
        c.clock += 1;
        c.fills += 1;
        let base = c.set_base(line);
        if let Some(w) = c.find_way(base, line.index()) {
            c.last_use[w] = c.clock;
            c.dirty[w] |= dirty;
            return None;
        }
        let (w, evicted) = match c.find_way(base, INVALID_TAG) {
            Some(w) => (w, false),
            None => {
                let w = (base..base + c.assoc)
                    .min_by_key(|&w| c.last_use[w])
                    .unwrap();
                (w, true)
            }
        };
        let victim = evicted.then(|| Victim {
            line: LineAddr::new(c.tags[w]),
            dirty: c.dirty[w],
        });
        if victim.as_ref().is_some_and(|v| v.dirty) {
            c.writebacks += 1;
        }
        c.tags[w] = line.index();
        c.dirty[w] = dirty;
        c.last_use[w] = c.clock;
        victim
    }

    fn state(c: &SetAssocCache) -> (&[u64], &[bool], &[u64], u64, u64, u64) {
        (
            &c.tags,
            &c.dirty,
            &c.last_use,
            c.clock,
            c.fills,
            c.writebacks,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Starts from arbitrary set contents (invalid holes, recency ties
        /// the public API cannot produce) and checks that one-pass fills
        /// pick the same way as the reference, through fills and
        /// invalidations.
        #[test]
        fn one_pass_fill_matches_three_scan_reference(
            ways in proptest::collection::vec((0u64..10, 0u64..3, any::<bool>()), 8..9),
            ops in proptest::collection::vec((0u64..10, any::<bool>(), any::<bool>()), 1..40),
        ) {
            // 2 sets x 4 ways; lines 0, 2, 4, ... map to set 0.
            let mut c = SetAssocCache::new(CacheConfig { size_bytes: 8 * 64, associativity: 4 });
            for (w, &(tag, last_use, dirty)) in ways.iter().enumerate() {
                let line = tag * 2 + (w / 4) as u64;
                // Tags 8 and 9 stand for invalid ways; a set never holds a
                // line twice.
                let base = (w / 4) * 4;
                let dup = c.tags[base..w].contains(&line);
                c.tags[w] = if tag >= 8 || dup { INVALID_TAG } else { line };
                c.last_use[w] = last_use;
                c.dirty[w] = dirty;
            }
            c.clock = 3;
            let mut reference = c.clone();
            for &(l, dirty, invalidate) in &ops {
                let line = LineAddr::new(l);
                if invalidate {
                    prop_assert_eq!(c.invalidate(line), reference.invalidate(line));
                } else {
                    prop_assert_eq!(c.fill(line, dirty), reference_fill(&mut reference, line, dirty));
                }
                prop_assert_eq!(state(&c), state(&reference));
            }
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
