//! The per-controller bank store: every bank's state, held once.
//!
//! The memory-controller scheduler reads exactly two facts about every
//! queued request's bank on every controller tick: *when is the bank free*
//! and *is the request's row open*. [`Banks`] keeps those two facts in
//! flat arrays indexed `rank * banks_per_rank + bank` — the free cycles in
//! a `Vec<Cycle>`, the open rows in an [`LruSets`] with one set per bank —
//! so a whole scheduler scan walks contiguous memory. They are the only
//! copy: an access hands its bank's slot and row set to [`Bank`], which
//! keeps the command-time maths, refresh and counters, and nothing is
//! resynced afterwards.

use stacksim_types::{BankId, ConfigError, Cycle, LruSets};

use crate::bank::{AccessResult, Bank, BankConfig};

/// Every bank of one memory controller's ranks.
///
/// Banks operate independently — this is exactly the bank-level
/// parallelism that more ranks buy (§4.1). Data-bus contention between
/// banks is modelled at the memory-controller level, where the bus lives.
///
/// Each bank's open rows form the paper's §4.2 *row buffer cache* (after
/// Hidaka et al.'s cached DRAM): "Any access to a memory bank performs an
/// associative search on the set of row buffers, and a hit avoids
/// accessing the main memory array. We manage the row buffer entries in
/// an LRU fashion." One row buffer is a conventional bank.
///
/// # Examples
///
/// ```
/// use stacksim_dram::{BankConfig, Banks};
/// use stacksim_types::{BankId, Cycle, DramTiming};
///
/// let cfg = BankConfig::new(DramTiming::TRUE_3D.to_cycles(3.333e9), 1, None);
/// let mut banks = Banks::new(cfg, 2, 8, 32768);
/// assert_eq!(banks.bank_free_at(1, BankId::new(3)), Cycle::ZERO);
///
/// let r = banks.read(1, BankId::new(3), 17, Cycle::ZERO);
/// assert!(!r.row_hit);
/// assert_eq!(banks.bank_free_at(1, BankId::new(3)), r.bank_free);
/// assert!(banks.is_row_open(1, BankId::new(3), 17));
/// assert!(!banks.is_row_open(0, BankId::new(3), 17));
/// ```
#[derive(Clone, Debug)]
pub struct Banks {
    banks_per_rank: usize,
    /// Earliest cycle each bank accepts a command.
    free_at: Vec<Cycle>,
    /// Each bank's open rows: set `i` is bank `i`'s row-buffer cache, its
    /// ways the row buffers, most recently used first.
    open_rows: LruSets,
    banks: Vec<Bank>,
}

impl Banks {
    /// Creates `ranks` ranks of `banks_per_rank` banks, each with
    /// `rows_per_bank` rows, all idle with every row closed.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(
        config: BankConfig,
        ranks: usize,
        banks_per_rank: usize,
        rows_per_bank: u64,
    ) -> Self {
        Self::try_new(config, ranks, banks_per_rank, rows_per_bank)
            .unwrap_or_else(|e| panic!("{e}")) // simlint::allow(P003, reason = "documented panicking convenience constructor; try_new is the fallible path")
    }

    /// Creates the store, returning a typed error on a degenerate geometry
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `ranks`, `banks_per_rank` or
    /// `rows_per_bank` is zero.
    pub fn try_new(
        config: BankConfig,
        ranks: usize,
        banks_per_rank: usize,
        rows_per_bank: u64,
    ) -> Result<Self, ConfigError> {
        if ranks == 0 {
            return Err(ConfigError::new("controller needs at least one rank"));
        }
        if banks_per_rank == 0 {
            return Err(ConfigError::new("rank needs at least one bank"));
        }
        if rows_per_bank == 0 {
            return Err(ConfigError::new("bank needs at least one row"));
        }
        let total = ranks * banks_per_rank;
        Ok(Banks {
            banks_per_rank,
            free_at: vec![Cycle::ZERO; total],
            open_rows: LruSets::new(total, config.row_buffer_entries()),
            banks: (0..total)
                .map(|_| Bank::new(config, rows_per_bank))
                .collect(),
        })
    }

    #[inline]
    fn flat(&self, rank: usize, bank: BankId) -> usize {
        rank * self.banks_per_rank + bank.index()
    }

    /// Reads a line from `row` of a bank at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the rank, bank or row is out of range.
    pub fn read(&mut self, rank: usize, bank: BankId, row: u64, now: Cycle) -> AccessResult {
        self.access(rank, bank, row, now, false)
    }

    /// Writes a line to `row` of a bank at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the rank, bank or row is out of range.
    pub fn write(&mut self, rank: usize, bank: BankId, row: u64, now: Cycle) -> AccessResult {
        self.access(rank, bank, row, now, true)
    }

    fn access(
        &mut self,
        rank: usize,
        bank: BankId,
        row: u64,
        now: Cycle,
        is_write: bool,
    ) -> AccessResult {
        let f = self.flat(rank, bank);
        self.banks[f].access(
            &mut self.free_at[f],
            &mut self.open_rows,
            f,
            row,
            now,
            is_write,
        )
    }

    /// Earliest cycle the bank can accept a command.
    #[inline]
    pub fn bank_free_at(&self, rank: usize, bank: BankId) -> Cycle {
        self.free_at[self.flat(rank, bank)]
    }

    /// Whether `row` is open in the bank's row-buffer cache (used by FR-FCFS
    /// scheduling to prioritize row hits).
    #[inline]
    pub fn is_row_open(&self, rank: usize, bank: BankId, row: u64) -> bool {
        self.open_rows.contains_in(self.flat(rank, bank), row)
    }

    /// Shared view of one bank's counters.
    pub fn bank(&self, rank: usize, bank: BankId) -> &Bank {
        &self.banks[self.flat(rank, bank)]
    }

    /// Iterates over every bank, rank by rank (for energy accounting and
    /// reporting).
    pub fn iter(&self) -> impl Iterator<Item = &Bank> {
        self.banks.iter()
    }

    /// Iterates over the ranks, each as its banks.
    pub fn ranks(&self) -> impl Iterator<Item = &[Bank]> {
        self.banks.chunks(self.banks_per_rank)
    }

    /// Turns refresh-event logging on or off for every bank. While
    /// enabled, every refresh a bank performs is recorded as
    /// `(row, start_cycle)` until drained with
    /// [`take_refresh_log`](Self::take_refresh_log) — how the memory
    /// controller folds REF commands into its traced command stream.
    /// Disabled by default; turning logging off discards buffered events.
    pub fn set_refresh_logging(&mut self, enabled: bool) {
        for bank in &mut self.banks {
            bank.set_refresh_logging(enabled);
        }
    }

    /// Removes and returns one bank's buffered refresh events (empty if
    /// logging is disabled). Logging stays enabled if it was.
    pub fn take_refresh_log(&mut self, rank: usize, bank: BankId) -> Vec<(u64, Cycle)> {
        let f = self.flat(rank, bank);
        self.banks[f].take_refresh_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_types::DramTiming;

    fn banks() -> Banks {
        let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(3.333e9), 1, None);
        Banks::new(cfg, 2, 8, 1024)
    }

    #[test]
    fn banks_operate_independently() {
        let mut b = banks();
        let x = b.read(0, BankId::new(0), 1, Cycle::ZERO);
        let y = b.read(0, BankId::new(1), 1, Cycle::ZERO);
        // Same start time: both banks serve in parallel.
        assert_eq!(x.data_ready, y.data_ready);
        assert!(b.is_row_open(0, BankId::new(0), 1));
        assert!(b.is_row_open(0, BankId::new(1), 1));
        assert!(!b.is_row_open(0, BankId::new(2), 1));
        assert!(!b.is_row_open(1, BankId::new(0), 1));
    }

    #[test]
    fn stats_aggregate_across_banks() {
        let mut b = banks();
        b.read(0, BankId::new(0), 1, Cycle::ZERO);
        b.read(1, BankId::new(5), 2, Cycle::ZERO);
        let sum = |f: fn(&Bank) -> u64| b.iter().map(f).sum::<u64>();
        assert_eq!(sum(Bank::reads), 2);
        assert_eq!(sum(Bank::row_misses), 2);
        let per_rank: Vec<u64> = b
            .ranks()
            .map(|rank| rank.iter().map(Bank::reads).sum())
            .collect();
        assert_eq!(per_rank, [1, 1]);
        assert_eq!(b.bank(1, BankId::new(5)).reads(), 1);
    }

    #[test]
    fn bank_free_at_tracks_busy() {
        let mut b = banks();
        let x = b.read(1, BankId::new(2), 9, Cycle::ZERO);
        assert_eq!(b.bank_free_at(1, BankId::new(2)), x.bank_free);
        assert_eq!(b.bank_free_at(0, BankId::new(2)), Cycle::ZERO);
        assert_eq!(b.bank_free_at(1, BankId::new(3)), Cycle::ZERO);
    }

    #[test]
    fn fresh_store_reports_everything_idle_and_closed() {
        let b = banks();
        for rank in 0..2 {
            for bank in 0..8u16 {
                assert_eq!(b.bank_free_at(rank, BankId::new(bank)), Cycle::ZERO);
                assert!(!b.is_row_open(rank, BankId::new(bank), 0));
            }
        }
    }

    #[test]
    fn degenerate_geometry_is_rejected() {
        let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(3.333e9), 1, None);
        assert!(Banks::try_new(cfg, 0, 8, 1024).is_err());
        assert!(Banks::try_new(cfg, 1, 0, 1024).is_err());
        assert!(Banks::try_new(cfg, 1, 8, 0).is_err());
        assert!(Banks::try_new(cfg, 1, 8, 1024).is_ok());
    }
}
