//! Banked caches (the shared L2).

use stacksim_stats::MetricsSink;
use stacksim_types::{
    InterleaveGranularity, L2BankId, LineAddr, LINE_OFFSET_BITS, PAGE_BYTES, PAGE_OFFSET_BITS,
};

use crate::config::CacheConfig;
use crate::set_assoc::{AccessOutcome, SetAssocCache, Victim};

const LINES_PER_PAGE: u64 = PAGE_BYTES >> LINE_OFFSET_BITS;
const _: () = assert!(LINES_PER_PAGE == 64);
const PAGE_SHIFT: u32 = PAGE_OFFSET_BITS - LINE_OFFSET_BITS;

/// A multi-banked cache: total capacity is divided evenly among independent
/// banks, and addresses are routed to banks at either cache-line or page
/// granularity.
///
/// The paper's baseline L2 interleaves banks at line granularity; the §4.1
/// streamlined 3D organizations switch to page granularity so that each L2
/// bank communicates with exactly one memory controller (the bank index and
/// the page-interleaved MC index then agree modulo the MC count).
///
/// # Examples
///
/// ```
/// use stacksim_cache::{BankedCache, CacheConfig};
/// use stacksim_types::{InterleaveGranularity, LineAddr};
///
/// let l2 = BankedCache::new(CacheConfig::dl2_penryn(), 16, InterleaveGranularity::Page);
/// // All 64 lines of page 0 live in bank 0.
/// assert_eq!(l2.bank_of(LineAddr::new(0)), l2.bank_of(LineAddr::new(63)));
/// // Page 1 lives in bank 1.
/// assert_ne!(l2.bank_of(LineAddr::new(0)), l2.bank_of(LineAddr::new(64)));
/// ```
#[derive(Clone, Debug)]
pub struct BankedCache {
    banks: Vec<SetAssocCache>,
    granularity: InterleaveGranularity,
}

impl BankedCache {
    /// Creates a banked cache. `config` describes the **total** capacity,
    /// split evenly across `banks`.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or the per-bank capacity is not a whole
    /// number of sets.
    pub fn new(config: CacheConfig, banks: usize, granularity: InterleaveGranularity) -> Self {
        assert!(banks > 0, "cache needs at least one bank");
        assert!(
            config.size_bytes.is_multiple_of(banks as u64),
            "capacity must divide evenly among banks"
        );
        let per_bank = CacheConfig {
            size_bytes: config.size_bytes / banks as u64,
            associativity: config.associativity,
        };
        BankedCache {
            banks: (0..banks).map(|_| SetAssocCache::new(per_bank)).collect(),
            granularity,
        }
    }

    /// The interleaving granularity in force.
    pub const fn granularity(&self) -> InterleaveGranularity {
        self.granularity
    }

    /// The bank a line maps to.
    pub fn bank_of(&self, line: LineAddr) -> L2BankId {
        let n = self.banks.len() as u64;
        let bank = match self.granularity {
            InterleaveGranularity::Line => line.index() % n,
            InterleaveGranularity::Page => (line.index() >> PAGE_SHIFT) % n,
        };
        L2BankId::new(bank as u16)
    }

    /// Local line index presented to the owning bank, so that addresses
    /// spread over the bank's sets regardless of granularity.
    fn local_line(&self, line: LineAddr) -> LineAddr {
        let n = self.banks.len() as u64;
        match self.granularity {
            InterleaveGranularity::Line => LineAddr::new(line.index() / n),
            InterleaveGranularity::Page => {
                let page = line.index() >> PAGE_SHIFT;
                LineAddr::new((page / n) * LINES_PER_PAGE + line.line_in_page())
            }
        }
    }

    /// Probes for `line` in its bank.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        let bank = self.bank_of(line).index();
        let local = self.local_line(line);
        self.banks[bank].access(local, is_write)
    }

    /// Whether `line` is resident (no state update).
    pub fn contains(&self, line: LineAddr) -> bool {
        let bank = self.bank_of(line).index();
        self.banks[bank].contains(self.local_line(line))
    }

    /// Installs `line`, translating any victim back to a global address.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Victim> {
        let bank = self.bank_of(line).index();
        let local = self.local_line(line);
        let victim = self.banks[bank].fill(local, dirty)?;
        Some(Victim {
            line: self.globalize(victim.line, bank as u64),
            dirty: victim.dirty,
        })
    }

    /// Marks `line` dirty if resident (absorbing an inner-level writeback).
    /// Returns whether the line was present.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let bank = self.bank_of(line).index();
        let local = self.local_line(line);
        self.banks[bank].mark_dirty(local)
    }

    /// Inverse of [`local_line`](Self::local_line) for a given bank.
    fn globalize(&self, local: LineAddr, bank: u64) -> LineAddr {
        let n = self.banks.len() as u64;
        match self.granularity {
            InterleaveGranularity::Line => LineAddr::new(local.index() * n + bank),
            InterleaveGranularity::Page => {
                let local_page = local.index() / LINES_PER_PAGE;
                let offset = local.index() % LINES_PER_PAGE;
                let page = local_page * n + bank;
                LineAddr::new((page << PAGE_SHIFT) + offset)
            }
        }
    }

    /// Total demand hits.
    pub fn hits(&self) -> u64 {
        self.banks.iter().map(SetAssocCache::hits).sum()
    }

    /// Total demand misses.
    pub fn misses(&self) -> u64 {
        self.banks.iter().map(SetAssocCache::misses).sum()
    }

    /// Total dirty evictions.
    pub fn writebacks(&self) -> u64 {
        self.banks.iter().map(SetAssocCache::writebacks).sum()
    }

    /// Demand miss rate over all banks, `None` before the first demand
    /// access.
    pub fn miss_rate(&self) -> Option<f64> {
        let total = (self.hits() + self.misses()) as f64;
        (total > 0.0).then(|| self.misses() as f64 / total)
    }

    /// Writes the cache's counters and miss rate into its metrics node.
    pub fn write_metrics(&self, node: &mut MetricsSink) {
        node.counter("hits", self.hits());
        node.counter("misses", self.misses());
        node.counter("writebacks", self.writebacks());
        if let Some(rate) = self.miss_rate() {
            node.gauge("miss_rate", rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(granularity: InterleaveGranularity) -> BankedCache {
        // 16 banks x 4 KB per bank, 4-way.
        BankedCache::new(
            CacheConfig {
                size_bytes: 64 << 10,
                associativity: 4,
            },
            16,
            granularity,
        )
    }

    #[test]
    fn line_granularity_rotates_every_line() {
        let c = cache(InterleaveGranularity::Line);
        for l in 0..32u64 {
            assert_eq!(c.bank_of(LineAddr::new(l)).index() as u64, l % 16);
        }
    }

    #[test]
    fn page_granularity_keeps_pages_together() {
        let c = cache(InterleaveGranularity::Page);
        let first = c.bank_of(LineAddr::new(0));
        for l in 0..64u64 {
            assert_eq!(c.bank_of(LineAddr::new(l)), first);
        }
        assert_eq!(c.bank_of(LineAddr::new(64)).index(), 1);
    }

    #[test]
    fn fill_and_access_roundtrip_both_granularities() {
        for g in [InterleaveGranularity::Line, InterleaveGranularity::Page] {
            let mut c = cache(g);
            for l in (0..2048u64).step_by(37) {
                assert_eq!(c.access(LineAddr::new(l), false), AccessOutcome::Miss);
                c.fill(LineAddr::new(l), false);
            }
            for l in (0..2048u64).step_by(37) {
                assert_eq!(
                    c.access(LineAddr::new(l), false),
                    AccessOutcome::Hit,
                    "{g:?} {l}"
                );
            }
        }
    }

    #[test]
    fn victims_are_globalized() {
        for g in [InterleaveGranularity::Line, InterleaveGranularity::Page] {
            let mut c = cache(g);
            // Fill far more lines than one bank holds; every victim address
            // must map back to the same bank it was evicted from.
            let mut victims = Vec::new();
            for l in 0..20_000u64 {
                if let Some(v) = c.fill(LineAddr::new(l), false) {
                    victims.push((c.bank_of(LineAddr::new(l)), v));
                }
            }
            assert!(!victims.is_empty());
            for (bank, v) in victims {
                assert_eq!(c.bank_of(v.line), bank, "{g:?}: victim escaped its bank");
                assert!(v.line.index() < 20_000);
            }
        }
    }

    #[test]
    fn capacity_is_preserved_across_banks() {
        let mut c = cache(InterleaveGranularity::Line);
        // 64 KB / 64 B = 1024 lines total.
        for l in 0..1024u64 {
            assert!(
                c.fill(LineAddr::new(l), false).is_none(),
                "line {l} evicted early"
            );
        }
        // The next fill must evict something.
        assert!(c.fill(LineAddr::new(5000), false).is_some());
    }

    #[test]
    fn stats_aggregate() {
        let mut c = cache(InterleaveGranularity::Page);
        c.access(LineAddr::new(0), false);
        c.fill(LineAddr::new(0), false);
        c.access(LineAddr::new(0), false);
        assert_eq!(c.miss_rate(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn ragged_banking_panics() {
        let _ = BankedCache::new(
            CacheConfig {
                size_bytes: 100 * 64,
                associativity: 4,
            },
            3,
            InterleaveGranularity::Line,
        );
    }
}
