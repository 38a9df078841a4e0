//! One DRAM bank: a timing state machine over a row-buffer cache.

use stacksim_types::{ConfigError, Cycle, Cycles, LruSets};

/// Row management policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Rows stay open in the row-buffer cache after an access (the paper's
    /// organization; what FR-FCFS scheduling and row-buffer caches exploit).
    #[default]
    Open,
    /// Auto-precharge after every access: the next access never pays tRP
    /// up front but can never row-hit either. The classic alternative for
    /// low-locality workloads.
    Closed,
}

impl PagePolicy {
    /// The policy's canonical name (the scenario-file spelling).
    pub const fn name(&self) -> &'static str {
        match self {
            PagePolicy::Open => "open",
            PagePolicy::Closed => "closed",
        }
    }

    /// Parses a canonical name back into a policy. `None` for an unknown
    /// name.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim_dram::PagePolicy;
    ///
    /// assert_eq!(PagePolicy::from_name("closed"), Some(PagePolicy::Closed));
    /// assert_eq!(PagePolicy::from_name("auto-precharge"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<PagePolicy> {
        match name {
            "open" => Some(PagePolicy::Open),
            "closed" => Some(PagePolicy::Closed),
            _ => None,
        }
    }
}

use stacksim_types::DramTimingCycles;

/// Static configuration of one bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankConfig {
    timing: DramTimingCycles,
    row_buffer_entries: usize,
    /// Interval between single-row refreshes, `None` to disable refresh.
    refresh_interval: Option<Cycles>,
    /// Smart Refresh (Ghosh & Lee, cited in the paper's §2.4 for 3D
    /// stacks): skip the scheduled refresh of a row whose activation — which
    /// restores its cells anyway — happened within the current retention
    /// period.
    smart_refresh: bool,
    /// Row management policy.
    page_policy: PagePolicy,
}

impl BankConfig {
    /// Creates a bank configuration.
    ///
    /// # Panics
    ///
    /// Panics if `row_buffer_entries` is zero or a refresh interval is zero.
    pub fn new(
        timing: DramTimingCycles,
        row_buffer_entries: usize,
        refresh_interval: Option<Cycles>,
    ) -> Self {
        Self::try_new(timing, row_buffer_entries, refresh_interval)
            .unwrap_or_else(|e| panic!("{e}")) // simlint::allow(P003, reason = "documented panicking convenience constructor; try_new is the fallible path")
    }

    /// Creates a bank configuration, rejecting degenerate parameters with a
    /// typed error instead of panicking — the entry point for callers (such
    /// as the `simcheck` fuzzer) that probe machine-generated configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `row_buffer_entries` is zero or a refresh
    /// interval is zero.
    pub fn try_new(
        timing: DramTimingCycles,
        row_buffer_entries: usize,
        refresh_interval: Option<Cycles>,
    ) -> Result<Self, ConfigError> {
        if row_buffer_entries == 0 {
            return Err(ConfigError::new("a bank needs at least one row buffer"));
        }
        if refresh_interval.is_some_and(|i| i.raw() == 0) {
            return Err(ConfigError::new("refresh interval must be non-zero"));
        }
        Ok(BankConfig {
            timing,
            row_buffer_entries,
            refresh_interval,
            smart_refresh: false,
            page_policy: PagePolicy::Open,
        })
    }

    /// Selects the row management policy.
    pub fn with_page_policy(mut self, policy: PagePolicy) -> Self {
        self.page_policy = policy;
        self
    }

    /// Enables Smart Refresh (see the field documentation).
    pub fn with_smart_refresh(mut self, enabled: bool) -> Self {
        self.smart_refresh = enabled;
        self
    }

    /// The timing parameters in CPU cycles.
    pub const fn timing(&self) -> &DramTimingCycles {
        &self.timing
    }

    /// Row-buffer cache entries per bank.
    pub const fn row_buffer_entries(&self) -> usize {
        self.row_buffer_entries
    }
}

/// Issue times of the row-level commands one access expands into.
///
/// Each time marks when the command *begins* occupying the bank: a
/// precharge completes tRP later, an activate tRCD later, and a column
/// burst holds the bank for tCCD (reads) or through write recovery. The
/// memory controller stamps its command trace from these, and the
/// `simcheck` protocol checker re-derives the spacing invariants from the
/// same convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CmdTimes {
    /// When the precharge begins: before the activate on an open-page row
    /// miss, after the burst (the auto-precharge) under closed-page policy,
    /// `None` on an open-page row hit.
    pub precharge_at: Option<Cycle>,
    /// When the activate begins (`None` on an open-page row hit).
    pub activate_at: Option<Cycle>,
    /// When the column read/write burst begins.
    pub column_at: Cycle,
}

/// Result of issuing a read or write to a bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// When the data is available at the DRAM pins (read) or the write is
    /// accepted into the row buffer (write).
    pub data_ready: Cycle,
    /// Whether the access hit in the row-buffer cache.
    pub row_hit: bool,
    /// When the bank can accept its next command.
    pub bank_free: Cycle,
    /// When each constituent command was issued.
    pub cmds: CmdTimes,
}

/// One DRAM bank.
///
/// The bank serializes commands: an access cannot begin before the bank's
/// previous operation completes. A row-buffer hit costs tCAS only; a miss
/// must precharge (tRP, not before the current row has been open tRAS)
/// and activate (tRCD) before the column access. Refresh is modelled
/// per-row: every `refresh_interval` the bank steals tRAS + tRP and closes
/// its open rows.
///
/// The bank's free cycle and open rows live in its [`Banks`](crate::Banks)
/// store, which lends them to each access; the bank keeps the rest.
#[derive(Clone, Debug)]
pub struct Bank {
    config: BankConfig,
    /// Earliest cycle a precharge may complete, enforcing tRAS from the
    /// most recent activate.
    ras_ready: Cycle,
    next_refresh: Option<Cycle>,
    refresh_cursor: u64,
    row_last_activate: std::collections::HashMap<u64, Cycle>,
    /// When enabled, every performed refresh is appended as `(row, start)`
    /// for the memory controller to drain into its command trace.
    refresh_log: Option<Vec<(u64, Cycle)>>,
    rows: u64,
    // Statistics.
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_misses: u64,
    activates: u64,
    refreshes: u64,
    refreshes_skipped: u64,
    busy_cycles: u64,
}

impl Bank {
    /// Creates a bank with `rows` rows (non-zero; [`Banks`](crate::Banks)
    /// checks).
    pub(crate) fn new(config: BankConfig, rows: u64) -> Self {
        Bank {
            next_refresh: config.refresh_interval.map(|i| Cycle::ZERO + i),
            refresh_cursor: 0,
            row_last_activate: std::collections::HashMap::new(),
            refresh_log: None,
            config,
            ras_ready: Cycle::ZERO,
            rows,
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_misses: 0,
            activates: 0,
            refreshes: 0,
            refreshes_skipped: 0,
            busy_cycles: 0,
        }
    }

    /// Reads (or, with `is_write`, writes) a line of `row` at time `now`.
    /// `busy_until` is the bank's free-cycle slot and set `set` of
    /// `open_rows` its row-buffer cache, both lent by the bank's store.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub(crate) fn access(
        &mut self,
        busy_until: &mut Cycle,
        open_rows: &mut LruSets,
        set: usize,
        row: u64,
        now: Cycle,
        is_write: bool,
    ) -> AccessResult {
        assert!(
            row < self.rows,
            "row {row} out of range (bank has {} rows)",
            self.rows
        );
        self.catch_up_refresh(busy_until, open_rows, set, now);
        if self.config.page_policy == PagePolicy::Closed {
            return self.access_closed(busy_until, row, now, is_write);
        }
        let t = *self.config.timing();
        let start = now.max(*busy_until);
        // tCAS is the *latency* until data appears; the bank itself is only
        // occupied for tCCD per column burst (reads to an open row
        // pipeline), or through tWR for writes.
        let (data_ready, bank_free, row_hit, cmds) = if open_rows.touch_in(set, row, false) {
            self.row_hits += 1;
            let cmds = CmdTimes {
                precharge_at: None,
                activate_at: None,
                column_at: start,
            };
            if is_write {
                // Write into the open row: data accepted after the
                // burst, bank busy through write recovery.
                let accepted = start + t.t_ccd;
                (accepted, accepted + t.t_wr, true, cmds)
            } else {
                (start + t.t_cas, start + t.t_ccd, true, cmds)
            }
        } else {
            self.row_misses += 1;
            self.activates += 1;
            if self.config.smart_refresh {
                self.row_last_activate.insert(row, start);
            }
            // Precharge cannot complete before tRAS from the previous
            // activate has elapsed, so it may start later than `start`.
            let precharge_at = start.max(Cycle::new(
                self.ras_ready.raw().saturating_sub(t.t_rp.raw()),
            ));
            let precharge_done = precharge_at + t.t_rp;
            let activate_done = precharge_done + t.t_rcd;
            self.ras_ready = activate_done + t.t_ras;
            // A full set evicts its least recently used row, which DRAM's
            // destructive reads have already restored to the array.
            open_rows.insert_in(set, row, false);
            let cmds = CmdTimes {
                precharge_at: Some(precharge_at),
                activate_at: Some(precharge_done),
                column_at: activate_done,
            };
            if is_write {
                let accepted = activate_done + t.t_ccd;
                (accepted, accepted + t.t_wr, false, cmds)
            } else {
                (
                    activate_done + t.t_cas,
                    activate_done + t.t_ccd,
                    false,
                    cmds,
                )
            }
        };
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.busy_cycles += (bank_free - start).raw();
        *busy_until = bank_free;
        AccessResult {
            data_ready,
            row_hit,
            bank_free,
            cmds,
        }
    }

    /// Closed-page access: the bank is already precharged, so the access
    /// activates immediately (no tRP up front) but auto-precharges after,
    /// occupying the bank for a full row cycle (tRAS + tRP from activate).
    fn access_closed(
        &mut self,
        busy_until: &mut Cycle,
        row: u64,
        now: Cycle,
        is_write: bool,
    ) -> AccessResult {
        let t = *self.config.timing();
        let start = now.max(*busy_until);
        self.row_misses += 1;
        self.activates += 1;
        if self.config.smart_refresh {
            self.row_last_activate.insert(row, start);
        }
        let activate_done = start + t.t_rcd;
        // Auto-precharge completes tRP after tRAS is satisfied.
        let precharged = activate_done + t.t_ras + t.t_rp;
        self.ras_ready = precharged;
        let (data_ready, bank_free) = if is_write {
            let accepted = activate_done + t.t_ccd;
            (accepted, precharged.max(accepted + t.t_wr))
        } else {
            (activate_done + t.t_cas, precharged)
        };
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.busy_cycles += (bank_free - start).raw();
        *busy_until = bank_free;
        AccessResult {
            data_ready,
            row_hit: false,
            bank_free,
            cmds: CmdTimes {
                precharge_at: Some(activate_done + t.t_ras),
                activate_at: Some(start),
                column_at: activate_done,
            },
        }
    }

    /// Applies any refreshes that became due at or before `now`, with the
    /// same lent state as [`access`](Self::access).
    fn catch_up_refresh(
        &mut self,
        busy_until: &mut Cycle,
        open_rows: &mut LruSets,
        set: usize,
        now: Cycle,
    ) {
        let Some(interval) = self.config.refresh_interval else {
            return;
        };
        let t = *self.config.timing();
        let refresh_busy = t.t_ras + t.t_rp;
        // The full retention period covers every row once.
        let retention = interval.raw().saturating_mul(self.rows);
        while let Some(due) = self.next_refresh {
            if due > now {
                break;
            }
            let row = self.refresh_cursor % self.rows;
            self.refresh_cursor += 1;
            self.next_refresh = Some(due + interval);
            if self.config.smart_refresh {
                // An activation within the retention period already
                // restored this row's cells: skip the refresh entirely.
                let fresh = self
                    .row_last_activate
                    .get(&row)
                    .is_some_and(|&at| due.saturating_since(at).raw() < retention);
                if fresh {
                    self.refreshes_skipped += 1;
                    continue;
                }
            }
            // The refresh occupies the bank and closes all open rows.
            let start = due.max(*busy_until);
            *busy_until = start + refresh_busy;
            self.busy_cycles += refresh_busy.raw();
            open_rows.clear_set(set);
            self.refreshes += 1;
            if let Some(log) = self.refresh_log.as_mut() {
                log.push((row, start));
            }
        }
    }

    /// See [`Banks::set_refresh_logging`](crate::Banks::set_refresh_logging).
    pub(crate) fn set_refresh_logging(&mut self, enabled: bool) {
        self.refresh_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// See [`Banks::take_refresh_log`](crate::Banks::take_refresh_log).
    pub(crate) fn take_refresh_log(&mut self) -> Vec<(u64, Cycle)> {
        match self.refresh_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(), // simlint::allow(H001, reason = "capacity-0 Vec::new does not touch the heap; the Some arm recycles the log's own buffer")
        }
    }

    /// Number of rows.
    pub const fn rows(&self) -> u64 {
        self.rows
    }

    /// Row-buffer hit count.
    pub const fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer miss count.
    pub const fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Row activations performed.
    pub const fn activates(&self) -> u64 {
        self.activates
    }

    /// Refresh operations performed.
    pub const fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Refresh operations skipped by Smart Refresh.
    pub const fn refreshes_skipped(&self) -> u64 {
        self.refreshes_skipped
    }

    /// Reads serviced.
    pub const fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes serviced.
    pub const fn writes(&self) -> u64 {
        self.writes
    }

    /// Cycles the bank spent occupied.
    pub const fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Banks;
    use core::ops::Deref;
    use stacksim_types::{BankId, DramTiming};

    const HZ: f64 = 3.333e9;

    /// One bank in a one-bank store, driven like a standalone bank.
    struct Solo(Banks);

    impl Solo {
        fn new(config: BankConfig, rows: u64) -> Self {
            Solo(Banks::new(config, 1, 1, rows))
        }

        fn read(&mut self, row: u64, now: Cycle) -> AccessResult {
            self.0.read(0, BankId::new(0), row, now)
        }

        fn write(&mut self, row: u64, now: Cycle) -> AccessResult {
            self.0.write(0, BankId::new(0), row, now)
        }

        fn busy_until(&self) -> Cycle {
            self.0.bank_free_at(0, BankId::new(0))
        }

        fn set_refresh_logging(&mut self, enabled: bool) {
            self.0.set_refresh_logging(enabled);
        }

        fn take_refresh_log(&mut self) -> Vec<(u64, Cycle)> {
            self.0.take_refresh_log(0, BankId::new(0))
        }
    }

    impl Deref for Solo {
        type Target = Bank;

        fn deref(&self) -> &Bank {
            self.0.bank(0, BankId::new(0))
        }
    }

    fn bank(entries: usize) -> Solo {
        let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(HZ), entries, None);
        Solo::new(cfg, 1024)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut b = bank(1);
        let t = *b.config.timing();
        let r1 = b.read(5, Cycle::ZERO);
        assert!(!r1.row_hit);
        // Miss latency: tRP + tRCD + tCAS.
        assert_eq!(r1.data_ready, Cycle::ZERO + t.t_rp + t.t_rcd + t.t_cas);
        let r2 = b.read(5, r1.bank_free);
        assert!(r2.row_hit);
        assert_eq!(r2.data_ready - r1.bank_free, t.t_cas);
    }

    #[test]
    fn conflicting_rows_thrash_single_buffer() {
        let mut b = bank(1);
        let r1 = b.read(1, Cycle::ZERO);
        let r2 = b.read(2, r1.bank_free);
        let r3 = b.read(1, r2.bank_free);
        assert!(!r1.row_hit && !r2.row_hit && !r3.row_hit);
        assert_eq!(b.row_misses(), 3);
    }

    #[test]
    fn multi_entry_row_buffer_cache_keeps_both_rows_open() {
        let mut b = bank(2);
        let r1 = b.read(1, Cycle::ZERO);
        let r2 = b.read(2, r1.bank_free);
        let r3 = b.read(1, r2.bank_free);
        let r4 = b.read(2, r3.bank_free);
        assert!(
            r3.row_hit && r4.row_hit,
            "both rows stay open with 2 buffers"
        );
        assert_eq!(b.row_hits(), 2);
    }

    #[test]
    fn busy_bank_delays_next_access() {
        let mut b = bank(1);
        let r1 = b.read(1, Cycle::ZERO);
        // Request arrives while the bank is still busy: serialized.
        let r2 = b.read(1, Cycle::new(1));
        assert!(r2.data_ready >= r1.bank_free);
        assert!(r2.row_hit);
    }

    #[test]
    fn tras_limits_back_to_back_row_misses() {
        let mut b = bank(1);
        let t = *b.config.timing();
        let r1 = b.read(1, Cycle::ZERO);
        let r2 = b.read(2, r1.bank_free);
        // Second miss's precharge must wait for tRAS from the first
        // activate, so its total latency exceeds the bare miss latency.
        let bare = t.t_rp + t.t_rcd + t.t_cas;
        assert!(r2.data_ready - r1.bank_free >= bare);
        // Explicitly: activation of row 1 finished at tRP+tRCD; tRAS runs
        // from there; the second precharge completes no earlier.
        let first_activate_done = Cycle::ZERO + t.t_rp + t.t_rcd;
        assert!(r2.data_ready >= first_activate_done + t.t_ras);
    }

    #[test]
    fn write_occupies_bank_through_recovery() {
        let mut b = bank(1);
        let t = *b.config.timing();
        let w = b.write(3, Cycle::ZERO);
        assert_eq!(w.bank_free - w.data_ready, t.t_wr);
        assert_eq!(b.writes(), 1);
    }

    #[test]
    fn true_3d_timing_is_faster() {
        let cfg2d = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(HZ), 1, None);
        let cfg3d = BankConfig::new(DramTiming::TRUE_3D.to_cycles(HZ), 1, None);
        let mut b2 = Solo::new(cfg2d, 64);
        let mut b3 = Solo::new(cfg3d, 64);
        let r2 = b2.read(0, Cycle::ZERO);
        let r3 = b3.read(0, Cycle::ZERO);
        assert!(r3.data_ready < r2.data_ready);
    }

    #[test]
    fn refresh_steals_bank_time_and_closes_rows() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let cfg = BankConfig::new(timing, 1, Some(Cycles::new(1000)));
        let mut b = Solo::new(cfg, 64);
        let r1 = b.read(1, Cycle::ZERO);
        assert!(!r1.row_hit);
        // Access long after several refresh intervals: rows were closed.
        let r2 = b.read(1, Cycle::new(5000));
        assert!(!r2.row_hit, "refresh must close the open row");
        assert!(b.refreshes() >= 4);
    }

    #[test]
    fn refresh_delays_colliding_access() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let refresh_busy = timing.t_ras + timing.t_rp;
        let cfg = BankConfig::new(timing, 1, Some(Cycles::new(1000)));
        let mut b = Solo::new(cfg, 64);
        // Arrive exactly when a refresh is due: the access waits it out.
        let r = b.read(1, Cycle::new(1000));
        let undisturbed = Cycle::new(1000) + timing.t_rp + timing.t_rcd + timing.t_cas;
        assert_eq!(r.data_ready, undisturbed + refresh_busy);
    }

    #[test]
    fn closed_page_trades_first_access_latency_for_occupancy() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let open = BankConfig::new(timing, 1, None);
        let closed = open.with_page_policy(PagePolicy::Closed);
        let mut open_bank = Solo::new(open, 1024);
        let mut closed_bank = Solo::new(closed, 1024);
        // First access to a row: closed page skips the up-front precharge.
        let ro = open_bank.read(5, Cycle::ZERO);
        let rc = closed_bank.read(5, Cycle::ZERO);
        assert!(
            rc.data_ready < ro.data_ready,
            "closed {:?} vs open {:?}",
            rc,
            ro
        );
        // Repeat access: open page row-hits, closed page re-activates.
        let ro2 = open_bank.read(5, ro.bank_free);
        let rc2 = closed_bank.read(5, rc.bank_free);
        assert!(ro2.row_hit);
        assert!(!rc2.row_hit);
        assert!(
            rc2.data_ready - rc.bank_free >= ro2.data_ready - ro.bank_free,
            "closed page cannot beat a row hit"
        );
        // Closed-page banks are occupied for a full row cycle.
        assert!(closed_bank.busy_cycles() > open_bank.busy_cycles());
    }

    #[test]
    fn smart_refresh_skips_recently_activated_rows() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        // Tiny bank (4 rows) with a short interval: every row's refresh
        // comes due frequently.
        let make = |smart: bool| {
            Solo::new(
                BankConfig::new(timing, 1, Some(Cycles::new(500))).with_smart_refresh(smart),
                4,
            )
        };
        let mut plain = make(false);
        let mut smart = make(true);
        for b in [&mut plain, &mut smart] {
            let mut now = Cycle::ZERO;
            // Keep cycling all four rows: every row stays freshly activated.
            for i in 0..200u64 {
                let r = b.read(i % 4, now);
                now = r.bank_free + Cycles::new(50);
            }
        }
        assert_eq!(smart.refreshes(), 0, "all refreshes skippable");
        assert!(smart.refreshes_skipped() > 0);
        assert!(plain.refreshes() > 0);
        assert_eq!(plain.refreshes_skipped(), 0);
        assert!(
            smart.busy_cycles() < plain.busy_cycles(),
            "smart refresh must reclaim bank time"
        );
    }

    #[test]
    fn smart_refresh_still_refreshes_idle_rows() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let cfg = BankConfig::new(timing, 1, Some(Cycles::new(100))).with_smart_refresh(true);
        let mut b = Solo::new(cfg, 4);
        // Touch only row 0, then come back much later: rows 1-3 (and
        // eventually 0, once its activation ages out) must still refresh.
        b.read(0, Cycle::ZERO);
        b.read(0, Cycle::new(50_000));
        assert!(b.refreshes() > 0, "idle rows must be refreshed");
    }

    #[test]
    fn stats_record_contents() {
        let mut b = bank(1);
        b.read(1, Cycle::ZERO);
        let free = b.busy_until();
        b.read(1, free);
        assert_eq!(b.reads(), 2);
        assert_eq!(b.row_hits(), 1);
        assert_eq!(b.row_misses(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_panics() {
        let mut b = bank(1);
        b.read(violation(), Cycle::ZERO);
    }

    fn violation() -> u64 {
        99999
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        let t = DramTiming::COMMODITY_2D.to_cycles(HZ);
        assert!(BankConfig::try_new(t, 0, None).is_err());
        assert!(BankConfig::try_new(t, 1, Some(Cycles::ZERO)).is_err());
        let cfg = BankConfig::try_new(t, 1, None).unwrap();
        assert!(Banks::try_new(cfg, 1, 1, 0).is_err());
        assert!(Banks::try_new(cfg, 1, 1, 4).is_ok());
    }

    #[test]
    fn command_times_match_access_math() {
        let mut b = bank(1);
        let t = *b.config.timing();
        let miss = b.read(5, Cycle::ZERO);
        // Open-page miss: PRE at start, ACT when the precharge completes,
        // column when the activate completes.
        assert_eq!(miss.cmds.precharge_at, Some(Cycle::ZERO));
        assert_eq!(miss.cmds.activate_at, Some(Cycle::ZERO + t.t_rp));
        assert_eq!(miss.cmds.column_at, Cycle::ZERO + t.t_rp + t.t_rcd);
        assert_eq!(miss.data_ready, miss.cmds.column_at + t.t_cas);
        let hit = b.read(5, miss.bank_free);
        assert_eq!(hit.cmds.precharge_at, None);
        assert_eq!(hit.cmds.activate_at, None);
        assert_eq!(hit.cmds.column_at, miss.bank_free);
    }

    #[test]
    fn command_times_respect_tras_on_back_to_back_misses() {
        let mut b = bank(1);
        let t = *b.config.timing();
        let r1 = b.read(1, Cycle::ZERO);
        let r2 = b.read(2, r1.bank_free);
        // The second precharge may not complete before tRAS from the first
        // activate's completion.
        let first_act_done = r1.cmds.activate_at.unwrap() + t.t_rcd;
        assert!(r2.cmds.precharge_at.unwrap() + t.t_rp >= first_act_done + t.t_ras);
        assert_eq!(
            r2.cmds.activate_at.unwrap(),
            r2.cmds.precharge_at.unwrap() + t.t_rp
        );
    }

    #[test]
    fn closed_page_command_times() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let cfg = BankConfig::new(timing, 1, None).with_page_policy(PagePolicy::Closed);
        let mut b = Solo::new(cfg, 64);
        let r = b.read(9, Cycle::ZERO);
        assert_eq!(r.cmds.activate_at, Some(Cycle::ZERO));
        assert_eq!(r.cmds.column_at, Cycle::ZERO + timing.t_rcd);
        // The auto-precharge starts once tRAS from the activate completion
        // is satisfied and finishes exactly when the bank frees.
        let pre = r.cmds.precharge_at.unwrap();
        assert_eq!(pre, r.cmds.column_at + timing.t_ras);
        assert_eq!(pre + timing.t_rp, r.bank_free);
    }

    #[test]
    fn refresh_log_records_performed_refreshes() {
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let cfg = BankConfig::new(timing, 1, Some(Cycles::new(1000)));
        let mut b = Solo::new(cfg, 64);
        b.set_refresh_logging(true);
        b.read(1, Cycle::new(3500));
        let log = b.take_refresh_log();
        assert_eq!(log.len() as u64, b.refreshes());
        assert_eq!(log.len(), 3, "refreshes due at 1000/2000/3000");
        assert!(log.windows(2).all(|w| w[0].1 < w[1].1));
        assert!(b.take_refresh_log().is_empty(), "drained, logging still on");
        b.set_refresh_logging(false);
        b.read(2, Cycle::new(20_000));
        assert!(b.take_refresh_log().is_empty());
    }
}
