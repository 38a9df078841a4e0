//! A DRAM rank: a set of banks that share command/data interfaces.

use stacksim_types::{BankId, ConfigError, Cycle};

use crate::bank::{AccessResult, Bank, BankConfig};

/// One DRAM rank (8 banks in the paper's configurations).
///
/// Each bank operates independently — this is exactly the bank-level
/// parallelism that more ranks buy (§4.1). Data-bus contention between
/// banks of a rank is modelled at the memory-controller level, where the
/// bus lives.
///
/// # Examples
///
/// ```
/// use stacksim_dram::{Bank, BankConfig, Rank};
/// use stacksim_types::{BankId, Cycle, DramTiming};
///
/// let cfg = BankConfig::new(DramTiming::TRUE_3D.to_cycles(3.333e9), 4, None);
/// let mut rank = Rank::new(cfg, 8, 32768);
/// let r = rank.read(BankId::new(3), 17, Cycle::ZERO);
/// assert!(!r.row_hit);
/// ```
#[derive(Clone, Debug)]
pub struct Rank {
    banks: Vec<Bank>,
}

impl Rank {
    /// Creates a rank of `banks` banks, each with `rows_per_bank` rows.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(config: BankConfig, banks: usize, rows_per_bank: u64) -> Self {
        // simlint::allow(P003, reason = "documented panicking convenience constructor; try_new is the fallible path")
        Self::try_new(config, banks, rows_per_bank).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a rank, returning a typed error on a degenerate geometry
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `banks` or `rows_per_bank` is zero.
    pub fn try_new(
        config: BankConfig,
        banks: usize,
        rows_per_bank: u64,
    ) -> Result<Self, ConfigError> {
        if banks == 0 {
            return Err(ConfigError::new("rank needs at least one bank"));
        }
        Ok(Rank {
            banks: (0..banks)
                .map(|_| Bank::try_new(config, rows_per_bank))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Reads from a bank.
    ///
    /// # Panics
    ///
    /// Panics if the bank id is out of range.
    pub fn read(&mut self, bank: BankId, row: u64, now: Cycle) -> AccessResult {
        self.banks[bank.index()].read(row, now)
    }

    /// Writes to a bank.
    ///
    /// # Panics
    ///
    /// Panics if the bank id is out of range.
    pub fn write(&mut self, bank: BankId, row: u64, now: Cycle) -> AccessResult {
        self.banks[bank.index()].write(row, now)
    }

    /// Shared view of a bank.
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank.index()]
    }

    /// Iterates over all banks (for energy accounting and reporting).
    pub fn banks(&self) -> impl Iterator<Item = &Bank> {
        self.banks.iter()
    }

    /// Whether `row` is open in `bank`'s row-buffer cache (used by FR-FCFS
    /// scheduling to prioritize row hits).
    pub fn is_row_open(&self, bank: BankId, row: u64) -> bool {
        self.banks[bank.index()].row_buffers().contains(row)
    }

    /// Earliest cycle `bank` can accept a command.
    pub fn bank_free_at(&self, bank: BankId) -> Cycle {
        self.banks[bank.index()].busy_until()
    }

    /// Turns refresh-event logging on or off for every bank (see
    /// [`Bank::set_refresh_logging`]).
    pub fn set_refresh_logging(&mut self, enabled: bool) {
        for bank in &mut self.banks {
            bank.set_refresh_logging(enabled);
        }
    }

    /// Drains `bank`'s buffered refresh events (see
    /// [`Bank::take_refresh_log`]).
    pub fn take_refresh_log(&mut self, bank: BankId) -> Vec<(u64, Cycle)> {
        self.banks[bank.index()].take_refresh_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_types::DramTiming;

    fn rank() -> Rank {
        let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(3.333e9), 1, None);
        Rank::new(cfg, 8, 1024)
    }

    #[test]
    fn banks_operate_independently() {
        let mut r = rank();
        let a = r.read(BankId::new(0), 1, Cycle::ZERO);
        let b = r.read(BankId::new(1), 1, Cycle::ZERO);
        // Same start time: both banks serve in parallel.
        assert_eq!(a.data_ready, b.data_ready);
        assert!(r.is_row_open(BankId::new(0), 1));
        assert!(r.is_row_open(BankId::new(1), 1));
        assert!(!r.is_row_open(BankId::new(2), 1));
    }

    #[test]
    fn stats_aggregate_across_banks() {
        let mut r = rank();
        r.read(BankId::new(0), 1, Cycle::ZERO);
        r.read(BankId::new(5), 2, Cycle::ZERO);
        let sum = |f: fn(&Bank) -> u64| r.banks().map(f).sum::<u64>();
        assert_eq!(sum(Bank::reads), 2);
        assert_eq!(sum(Bank::row_misses), 2);
    }

    #[test]
    fn bank_free_at_tracks_busy() {
        let mut r = rank();
        let a = r.read(BankId::new(2), 9, Cycle::ZERO);
        assert_eq!(r.bank_free_at(BankId::new(2)), a.bank_free);
        assert_eq!(r.bank_free_at(BankId::new(3)), Cycle::ZERO);
    }
}
