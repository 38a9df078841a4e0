//! DRAM command-protocol checker.
//!
//! Consumes the per-controller command streams recorded by
//! [`stacksim::trace`] and validates, per (rank, bank), the JEDEC-style
//! ordering and spacing invariants the device model is supposed to honour:
//!
//! * non-decreasing command times, and no command to a busy bank
//!   (column burst time, write recovery, refresh occupancy);
//! * ACT only after the preceding PRE's tRP has elapsed;
//! * column commands only to an open row, and only once that row's
//!   activation (tRCD) has completed;
//! * PRE no earlier than the row's minimum open time (tRAS) allows;
//! * consecutive column bursts at least tCCD apart;
//! * refreshes only when configured, and never faster than the per-row
//!   cadence derived from the refresh period.
//!
//! Tracing starts mid-simulation (after warmup), so the checker treats the
//! initial row-buffer contents of each bank as *unknown wildcards*: a
//! column command may claim an unknown slot, but once all wildcards are
//! spent — or a refresh has flushed the bank — every open row must be
//! accounted for by a traced ACT. This keeps the checker sound (a legal
//! trace is never flagged) while still catching real discipline bugs.

use std::collections::HashMap;
use std::fmt;

use stacksim::config::SystemConfig;
use stacksim::runner::RunResult;
use stacksim::trace::Trace;
use stacksim_dram::{DramCmd, DramCmdKind, PagePolicy};
use stacksim_types::{ConfigError, Cycle, Cycles, DramTimingCycles};

/// Timing contract a command stream is checked against, expressed in core
/// cycles exactly as the system model derives it from a [`SystemConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolParams {
    /// DRAM array timing in core cycles.
    pub timing: DramTimingCycles,
    /// Row-buffer cache entries per bank.
    pub row_buffer_entries: usize,
    /// Row management policy.
    pub page_policy: PagePolicy,
    /// Per-row refresh cadence, `None` when refresh is disabled.
    pub refresh_interval: Option<Cycles>,
}

impl ProtocolParams {
    /// Derives the contract for `cfg`, mirroring `stacksim::System`'s own
    /// construction (same timing conversion, same refresh cadence).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` does not validate.
    #[must_use = "the derived protocol parameters or the configuration problem"]
    pub fn for_config(cfg: &SystemConfig) -> Result<ProtocolParams, ConfigError> {
        cfg.validate()?;
        let geometry = cfg.geometry()?;
        Ok(ProtocolParams {
            timing: cfg.memory.timing.to_cycles(cfg.core_hz),
            row_buffer_entries: cfg.memory.row_buffer_entries,
            page_policy: cfg.memory.page_policy,
            refresh_interval: cfg
                .memory
                .refresh
                .row_interval(geometry.rows_per_bank(), cfg.core_hz),
        })
    }
}

/// Which protocol rule a command broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolRule {
    /// Commands to one bank must carry non-decreasing timestamps.
    TimeReversed,
    /// Command issued while the bank was still busy (burst, write
    /// recovery, or refresh occupancy).
    BankBusy,
    /// ACT before the preceding PRE's tRP elapsed.
    TrpViolated,
    /// Column command before its row's activation (tRCD) completed.
    TrcdViolated,
    /// PRE that would cut the row's minimum open time (tRAS) short.
    TrasViolated,
    /// Consecutive column bursts to one bank closer than tCCD.
    TccdViolated,
    /// Open-page ACT with no preceding PRE on the bank.
    ActWithoutPrecharge,
    /// Column command to a row not present in the row-buffer cache.
    RowNotOpen,
    /// REF although the configuration disables refresh.
    UnexpectedRefresh,
    /// Refreshes arriving faster than the configured per-row cadence.
    RefreshTooFast,
}

impl fmt::Display for ProtocolRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolRule::TimeReversed => "time reversed",
            ProtocolRule::BankBusy => "bank busy",
            ProtocolRule::TrpViolated => "tRP violated",
            ProtocolRule::TrcdViolated => "tRCD violated",
            ProtocolRule::TrasViolated => "tRAS violated",
            ProtocolRule::TccdViolated => "tCCD violated",
            ProtocolRule::ActWithoutPrecharge => "ACT without precharge",
            ProtocolRule::RowNotOpen => "row not open",
            ProtocolRule::UnexpectedRefresh => "unexpected refresh",
            ProtocolRule::RefreshTooFast => "refresh too fast",
        };
        f.write_str(s)
    }
}

/// One detected protocol violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Memory controller whose stream contains the command.
    pub mc: usize,
    /// Zero-based position within that controller's stream.
    pub index: usize,
    /// The offending command.
    pub cmd: DramCmd,
    /// The rule broken.
    pub rule: ProtocolRule,
    /// Human-readable specifics (expected vs observed times).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mc{}[{}]: {}: `{}` ({})",
            self.mc, self.index, self.rule, self.cmd, self.detail
        )
    }
}

/// One row-buffer slot: `None` rows are warmup wildcards whose identity was
/// never observed; `ready` is when the row's activation completes.
#[derive(Clone, Copy, Debug)]
struct RowSlot {
    row: Option<u64>,
    ready: Cycle,
}

/// Per-(rank, bank) checker state.
struct BankState {
    last_at: Option<Cycle>,
    busy_until: Cycle,
    /// Set by PRE to `at + tRP`, consumed by the next ACT (open page).
    pre_ready: Option<Cycle>,
    last_act: Option<Cycle>,
    last_col: Option<Cycle>,
    last_col_write: bool,
    /// LRU row-buffer cache mirror, most recent last.
    open: Vec<RowSlot>,
    refs_seen: u64,
}

impl BankState {
    fn new(row_buffer_entries: usize) -> BankState {
        BankState {
            last_at: None,
            busy_until: Cycle::ZERO,
            pre_ready: None,
            last_act: None,
            last_col: None,
            last_col_write: false,
            // Warmup may have left any rows open: start with a full
            // complement of wildcards.
            open: vec![
                RowSlot {
                    row: None,
                    ready: Cycle::ZERO,
                };
                row_buffer_entries
            ],
            refs_seen: 0,
        }
    }

    /// Finds `row` in the cache mirror, claiming a wildcard if needed.
    /// Returns the slot's activation-ready time, or `None` if the row
    /// cannot be open.
    fn probe_row(&mut self, row: u64) -> Option<Cycle> {
        if let Some(i) = self.open.iter().position(|s| s.row == Some(row)) {
            let slot = self.open.remove(i);
            self.open.push(slot); // touch MRU
            return Some(slot.ready);
        }
        if let Some(i) = self.open.iter().position(|s| s.row.is_none()) {
            // Attribute the hit to a row opened before tracing began.
            self.open.remove(i);
            self.open.push(RowSlot {
                row: Some(row),
                ready: Cycle::ZERO,
            });
            return Some(Cycle::ZERO);
        }
        None
    }

    /// Inserts `row` as most-recent, evicting the LRU slot when over
    /// capacity.
    fn open_row(&mut self, row: u64, ready: Cycle, capacity: usize) {
        self.open.retain(|s| s.row != Some(row));
        self.open.push(RowSlot {
            row: Some(row),
            ready,
        });
        while self.open.len() > capacity {
            self.open.remove(0);
        }
    }
}

/// Checks one memory controller's command stream against `params`.
pub fn check_stream(params: &ProtocolParams, mc: usize, cmds: &[DramCmd]) -> Vec<Violation> {
    let t = &params.timing;
    let mut banks: HashMap<(usize, usize), BankState> = HashMap::new();
    let mut violations = Vec::new();

    for (index, cmd) in cmds.iter().enumerate() {
        let state = banks
            .entry((cmd.rank, cmd.bank))
            .or_insert_with(|| BankState::new(params.row_buffer_entries));
        let mut flag = |rule: ProtocolRule, detail: String| {
            violations.push(Violation {
                mc,
                index,
                cmd: *cmd,
                rule,
                detail,
            });
        };

        if let Some(prev) = state.last_at {
            if cmd.at < prev {
                flag(
                    ProtocolRule::TimeReversed,
                    format!("previous command on this bank at {}", prev.raw()),
                );
            }
        }
        state.last_at = Some(cmd.at);
        if cmd.at < state.busy_until {
            flag(
                ProtocolRule::BankBusy,
                format!("bank busy until {}", state.busy_until.raw()),
            );
        }

        match cmd.kind {
            DramCmdKind::Precharge => {
                if let Some(act) = state.last_act {
                    let ras_ready = act + t.t_rcd + t.t_ras;
                    if cmd.at + t.t_rp < ras_ready {
                        flag(
                            ProtocolRule::TrasViolated,
                            format!("row must stay open until {}", ras_ready.raw()),
                        );
                    }
                }
                state.pre_ready = Some(cmd.at + t.t_rp);
                if params.page_policy == PagePolicy::Closed {
                    // Auto-precharge ends the access: the bank is idle once
                    // tRP (and any pending write recovery) completes.
                    let mut free = cmd.at + t.t_rp;
                    if state.last_col_write {
                        if let Some(col) = state.last_col {
                            free = free.max(col + t.t_ccd + t.t_wr);
                        }
                    }
                    state.busy_until = free;
                    state.open.clear();
                }
            }
            DramCmdKind::Activate => {
                if params.page_policy == PagePolicy::Open {
                    match state.pre_ready.take() {
                        None => flag(
                            ProtocolRule::ActWithoutPrecharge,
                            "open-page activates must follow a precharge".into(),
                        ),
                        Some(ready) if cmd.at < ready => flag(
                            ProtocolRule::TrpViolated,
                            format!("precharge completes at {}", ready.raw()),
                        ),
                        Some(_) => {}
                    }
                } else {
                    // Closed page auto-precharges, so each access starts
                    // directly with ACT on an idle bank.
                    state.open.clear();
                }
                state.last_act = Some(cmd.at);
                state.open_row(cmd.row, cmd.at + t.t_rcd, params.row_buffer_entries.max(1));
            }
            DramCmdKind::Read | DramCmdKind::Write => {
                match state.probe_row(cmd.row) {
                    None => flag(
                        ProtocolRule::RowNotOpen,
                        format!("row {:#x} is not in the row-buffer cache", cmd.row),
                    ),
                    Some(ready) if cmd.at < ready => flag(
                        ProtocolRule::TrcdViolated,
                        format!("activation completes at {}", ready.raw()),
                    ),
                    Some(_) => {}
                }
                if let Some(col) = state.last_col {
                    if cmd.at < col + t.t_ccd {
                        flag(
                            ProtocolRule::TccdViolated,
                            format!("previous column burst at {}", col.raw()),
                        );
                    }
                }
                let write = cmd.kind == DramCmdKind::Write;
                if params.page_policy == PagePolicy::Open {
                    state.busy_until = if write {
                        cmd.at + t.t_ccd + t.t_wr
                    } else {
                        cmd.at + t.t_ccd
                    };
                }
                state.last_col = Some(cmd.at);
                state.last_col_write = write;
            }
            DramCmdKind::Refresh => {
                match params.refresh_interval {
                    None => flag(
                        ProtocolRule::UnexpectedRefresh,
                        "refresh is disabled in this configuration".into(),
                    ),
                    Some(interval) => {
                        state.refs_seen += 1;
                        // The m-th refresh a bank performs cannot be due
                        // before m whole per-row intervals have elapsed
                        // (skipped rows only push it later).
                        let earliest = state.refs_seen.saturating_mul(interval.raw());
                        if cmd.at.raw() < earliest {
                            flag(
                                ProtocolRule::RefreshTooFast,
                                format!(
                                    "refresh #{} on this bank cannot be due before {earliest}",
                                    state.refs_seen
                                ),
                            );
                        }
                    }
                }
                state.busy_until = cmd.at + t.t_ras + t.t_rp;
                // Refresh closes every row buffer; from here on all open
                // rows must come from traced activates.
                state.open.clear();
            }
        }
    }
    violations
}

/// Checks every controller stream in `trace`.
pub fn check_trace(params: &ProtocolParams, trace: &Trace) -> Vec<Violation> {
    trace
        .dram_cmds
        .iter()
        .enumerate()
        .flat_map(|(mc, cmds)| check_stream(params, mc, cmds))
        .collect()
}

/// Derives the contract from `cfg` and checks a traced run end to end.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` does not validate or `result` carries
/// no DRAM command trace to check.
#[must_use = "the violation list; dropping it defeats the check"]
pub fn check_run(cfg: &SystemConfig, result: &RunResult) -> Result<Vec<Violation>, ConfigError> {
    let params = ProtocolParams::for_config(cfg)?;
    let trace = result.trace.as_ref().ok_or_else(|| {
        ConfigError::new("protocol check needs a run traced with dram_cmds enabled")
    })?;
    Ok(check_trace(&params, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim::CORE_HZ;
    use stacksim_types::DramTiming;

    fn params() -> ProtocolParams {
        ProtocolParams {
            timing: DramTiming::COMMODITY_2D.to_cycles(CORE_HZ),
            row_buffer_entries: 1,
            page_policy: PagePolicy::Open,
            refresh_interval: None,
        }
    }

    fn cmd(at: u64, kind: DramCmdKind, row: u64) -> DramCmd {
        DramCmd {
            at: Cycle::new(at),
            rank: 0,
            bank: 0,
            row,
            kind,
        }
    }

    /// A minimal legal open-page miss + hit sequence under `p.timing`.
    fn legal_miss_then_hit(p: &ProtocolParams) -> Vec<DramCmd> {
        let t = &p.timing;
        let pre = 0;
        let act = pre + t.t_rp.raw();
        let col = act + t.t_rcd.raw();
        let hit = col + t.t_ccd.raw();
        vec![
            cmd(pre, DramCmdKind::Precharge, 7),
            cmd(act, DramCmdKind::Activate, 7),
            cmd(col, DramCmdKind::Read, 7),
            cmd(hit, DramCmdKind::Read, 7),
        ]
    }

    #[test]
    fn legal_stream_passes() {
        let p = params();
        let v = check_stream(&p, 0, &legal_miss_then_hit(&p));
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn trp_off_by_one_is_caught() {
        let p = params();
        let mut cmds = legal_miss_then_hit(&p);
        // Pull the ACT one cycle into the precharge window.
        cmds[1].at = Cycle::new(cmds[1].at.raw() - 1);
        let v = check_stream(&p, 0, &cmds);
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::TrpViolated),
            "expected a tRP violation, got {v:?}"
        );
    }

    #[test]
    fn early_column_is_caught() {
        let p = params();
        let mut cmds = legal_miss_then_hit(&p);
        cmds[2].at = Cycle::new(cmds[2].at.raw() - 1);
        let v = check_stream(&p, 0, &cmds);
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::TrcdViolated),
            "expected a tRCD violation, got {v:?}"
        );
    }

    #[test]
    fn early_precharge_violates_tras() {
        let p = params();
        let t = &p.timing;
        let cmds = vec![
            cmd(0, DramCmdKind::Precharge, 7),
            cmd(t.t_rp.raw(), DramCmdKind::Activate, 7),
            cmd(t.t_rp.raw() + t.t_rcd.raw(), DramCmdKind::Read, 7),
            // Next access arrives immediately and precharges way too early.
            cmd(
                t.t_rp.raw() + t.t_rcd.raw() + t.t_ccd.raw(),
                DramCmdKind::Precharge,
                9,
            ),
        ];
        let v = check_stream(&p, 0, &cmds);
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::TrasViolated),
            "expected a tRAS violation, got {v:?}"
        );
    }

    #[test]
    fn column_to_unopened_row_is_caught_after_wildcards_spent() {
        let p = params();
        // The first column may claim the single warmup wildcard...
        let v = check_stream(&p, 0, &[cmd(0, DramCmdKind::Read, 3)]);
        assert!(v.is_empty(), "wildcard hit should pass: {v:?}");
        // ...but a second row cannot also have been open (capacity 1).
        let t = &p.timing;
        let v = check_stream(
            &p,
            0,
            &[
                cmd(0, DramCmdKind::Read, 3),
                cmd(t.t_ccd.raw(), DramCmdKind::Read, 4),
            ],
        );
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::RowNotOpen),
            "expected row-not-open, got {v:?}"
        );
    }

    #[test]
    fn refresh_rules() {
        // Refresh disabled: any REF is a violation.
        let p = params();
        let v = check_stream(&p, 0, &[cmd(5_000, DramCmdKind::Refresh, 0)]);
        assert!(v.iter().any(|v| v.rule == ProtocolRule::UnexpectedRefresh));

        // Refresh enabled at a 1000-cycle cadence: the second REF at 1500
        // is 500 cycles too early.
        let mut p = params();
        p.refresh_interval = Some(Cycles::new(1_000));
        let v = check_stream(
            &p,
            0,
            &[
                cmd(1_000, DramCmdKind::Refresh, 0),
                cmd(1_500, DramCmdKind::Refresh, 0),
            ],
        );
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::RefreshTooFast),
            "expected refresh-too-fast, got {v:?}"
        );

        // A catch-up burst after a long idle period is legal as long as
        // each refresh had come due.
        let t = p.timing;
        let busy = t.t_ras.raw() + t.t_rp.raw();
        let v = check_stream(
            &p,
            0,
            &[
                cmd(10_000, DramCmdKind::Refresh, 0),
                cmd(10_000 + busy, DramCmdKind::Refresh, 0),
                cmd(10_000 + 2 * busy, DramCmdKind::Refresh, 0),
            ],
        );
        assert!(v.is_empty(), "catch-up burst should pass: {v:?}");
    }

    #[test]
    fn busy_bank_is_caught() {
        let mut p = params();
        p.refresh_interval = Some(Cycles::new(100));
        // A refresh occupies the bank for tRAS + tRP; a command one cycle
        // into that window is illegal.
        let v = check_stream(
            &p,
            0,
            &[
                cmd(1_000, DramCmdKind::Refresh, 0),
                cmd(1_001, DramCmdKind::Precharge, 3),
            ],
        );
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::BankBusy),
            "expected bank-busy, got {v:?}"
        );
    }

    #[test]
    fn closed_page_sequence_passes() {
        let mut p = params();
        p.page_policy = PagePolicy::Closed;
        let t = &p.timing;
        let act = 10;
        let col = act + t.t_rcd.raw();
        let pre = col + t.t_ras.raw();
        let next_act = pre + t.t_rp.raw();
        let cmds = vec![
            cmd(act, DramCmdKind::Activate, 3),
            cmd(col, DramCmdKind::Read, 3),
            cmd(pre, DramCmdKind::Precharge, 3),
            cmd(next_act, DramCmdKind::Activate, 9),
            cmd(next_act + t.t_rcd.raw(), DramCmdKind::Read, 9),
            cmd(
                next_act + t.t_rcd.raw() + t.t_ras.raw(),
                DramCmdKind::Precharge,
                9,
            ),
        ];
        let v = check_stream(&p, 0, &cmds);
        assert!(v.is_empty(), "closed-page stream should pass: {v:?}");
        // Re-using the first row after auto-precharge must require an ACT.
        let v = check_stream(
            &p,
            0,
            &[
                cmd(act, DramCmdKind::Activate, 3),
                cmd(col, DramCmdKind::Read, 3),
                cmd(pre, DramCmdKind::Precharge, 3),
                cmd(next_act, DramCmdKind::Read, 3),
            ],
        );
        assert!(
            v.iter().any(|v| v.rule == ProtocolRule::RowNotOpen),
            "expected row-not-open after auto-precharge, got {v:?}"
        );
    }

    #[test]
    fn violation_display_is_one_line() {
        let p = params();
        let mut cmds = legal_miss_then_hit(&p);
        cmds[1].at = Cycle::new(cmds[1].at.raw() - 1);
        let v = check_stream(&p, 0, &cmds);
        let line = v[0].to_string();
        assert!(line.contains("tRP"), "{line}");
        assert!(line.contains("ACT"), "{line}");
        assert!(!line.contains('\n'), "{line}");
    }
}
