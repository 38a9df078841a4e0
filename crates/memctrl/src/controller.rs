//! The memory controller proper: queue, scheduler, bus and channel ranks.

use std::collections::VecDeque;

use stacksim_dram::{AccessResult, Bank, BankConfig, Banks, DramCmd, DramCmdKind, PagePolicy};
use stacksim_stats::{Histogram, MetricsSink, RunningStats};
use stacksim_types::{BusConfig, ConfigError, Cycle, Cycles, DramTimingCycles, McId, LINE_BYTES};

use crate::request::{MemRequest, RequestKind};
use crate::scheduler::SchedulerPolicy;

/// Static configuration of one memory controller and its channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McConfig {
    /// Memory request queue capacity. The paper holds the *aggregate*
    /// capacity across all MCs at 32 (e.g. four MCs × 8 entries).
    pub queue_capacity: usize,
    /// Ranks owned by this controller.
    pub ranks: usize,
    /// Banks per rank (8 in the paper).
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Row-buffer cache entries per bank (1 conventional, up to 4 in §4.2).
    pub row_buffer_entries: usize,
    /// DRAM timing in CPU cycles.
    pub timing: DramTimingCycles,
    /// Per-row refresh interval, `None` to disable.
    pub refresh_interval: Option<Cycles>,
    /// Smart Refresh: skip refreshing recently-activated rows.
    pub smart_refresh: bool,
    /// Row management policy (open-page in the paper).
    pub page_policy: PagePolicy,
    /// The data bus between this controller and its ranks.
    pub bus: BusConfig,
    /// Critical-word-first delivery: a read completes (wakes its waiters)
    /// when the first bus beat lands, while the bus stays occupied for the
    /// whole line. Liu et al. found wide buses unhelpful precisely because
    /// of CWF; this paper's multi-core contention argument (§3) holds with
    /// it enabled.
    pub critical_word_first: bool,
    /// Arbitration policy.
    pub policy: SchedulerPolicy,
}

/// A finished memory request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub request: MemRequest,
    /// Cycle the request fully completed (data delivered over the bus for
    /// reads; data written for writebacks).
    pub finished: Cycle,
    /// Whether the DRAM access hit in the row-buffer cache.
    pub row_hit: bool,
}

/// One banked memory controller: a bounded MRQ, a scheduler, a data bus and
/// the DRAM ranks of its channel.
///
/// Drive it with [`tick`](MemoryController::tick) once per CPU cycle (it
/// issues at most one command per cycle), and collect finished requests
/// with [`drain_completions`](MemoryController::drain_completions).
#[derive(Clone, Debug)]
pub struct MemoryController {
    id: McId,
    config: McConfig,
    /// Every bank of the channel's ranks, in the flat layout the scheduler
    /// scans every tick.
    banks: Banks,
    /// Bus occupancy of one cache line, hoisted out of the tick path
    /// (derived from `config.bus`, validated at construction).
    line_transfer: Cycles,
    /// Scan-skip memo: when a tick's pick came up empty, the earliest cycle
    /// the scheduler could possibly issue (no bank frees before it, and
    /// bank state only changes when this controller issues). Ticks before
    /// it return without rescanning the queue; any enqueue or issue resets
    /// it to zero.
    issue_blocked_until: Cycle,
    queue: VecDeque<MemRequest>,
    in_flight: Vec<Completion>,
    /// The earliest `finished` in `in_flight` (`None` when it is empty),
    /// so a cycle with nothing due costs one compare instead of a scan.
    next_finish: Option<Cycle>,
    bus_free: Cycle,
    cmd_trace: Option<Vec<DramCmd>>,
    // Statistics.
    issued: u64,
    rejected: u64,
    row_hits: u64,
    bus_busy: u64,
    queue_wait: RunningStats,
    service_time: RunningStats,
    queue_depth: Histogram,
}

impl MemoryController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if any capacity or count in the configuration is zero.
    pub fn new(id: McId, config: McConfig) -> Self {
        Self::try_new(id, config).unwrap_or_else(|e| panic!("{e}")) // simlint::allow(P003, reason = "documented panicking convenience constructor; try_new is the fallible path")
    }

    /// Creates a controller, returning a typed error on a degenerate
    /// configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any capacity or count in the
    /// configuration is zero.
    pub fn try_new(id: McId, config: McConfig) -> Result<Self, ConfigError> {
        if config.queue_capacity == 0 {
            return Err(ConfigError::new("queue capacity must be non-zero"));
        }
        let bank_cfg = BankConfig::try_new(
            config.timing,
            config.row_buffer_entries,
            config.refresh_interval,
        )?
        .with_smart_refresh(config.smart_refresh)
        .with_page_policy(config.page_policy);
        let banks = Banks::try_new(
            bank_cfg,
            config.ranks,
            config.banks_per_rank,
            config.rows_per_bank,
        )?;
        let line_transfer = config.bus.transfer_cycles(LINE_BYTES as u32)?;
        Ok(MemoryController {
            id,
            config,
            banks,
            line_transfer,
            issue_blocked_until: Cycle::ZERO,
            queue: VecDeque::with_capacity(config.queue_capacity),
            in_flight: Vec::new(),
            next_finish: None,
            bus_free: Cycle::ZERO,
            cmd_trace: None,
            issued: 0,
            rejected: 0,
            row_hits: 0,
            bus_busy: 0,
            queue_wait: RunningStats::new(),
            service_time: RunningStats::new(),
            queue_depth: Histogram::new(64),
        })
    }

    /// This controller's identifier.
    pub const fn id(&self) -> McId {
        self.id
    }

    /// The configuration in force.
    pub const fn config(&self) -> &McConfig {
        &self.config
    }

    /// Whether the MRQ has room for another request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.config.queue_capacity
    }

    /// Requests currently queued (not yet issued to DRAM).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }

    /// Queues a request.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the request's decoded location does not
    /// belong to this controller (a routing bug in the caller), or an MRQ
    /// overflow if the queue is full — the caller must apply backpressure
    /// and retry.
    pub fn enqueue(&mut self, request: MemRequest) -> Result<(), ConfigError> {
        if request.location.mc != self.id {
            // simlint::allow(H001, reason = "cold error path: a misrouted request is a caller bug, never taken in steady state")
            return Err(ConfigError::new(format!(
                "request for {} routed to {}",
                request.location.mc, self.id
            )));
        }
        if !self.can_accept() {
            self.rejected += 1;
            return Err(ConfigError::new("memory request queue full"));
        }
        self.queue.push_back(request);
        // A new request may be issuable immediately: drop the scan-skip memo.
        self.issue_blocked_until = Cycle::ZERO;
        Ok(())
    }

    /// Advances the controller by one CPU cycle: issues at most one request
    /// whose bank is ready, per the configured policy.
    pub fn tick(&mut self, now: Cycle) {
        self.queue_depth.record(self.queue.len() as u64);
        if self.queue.is_empty() {
            return; // nothing to schedule; skip the pick machinery entirely
        }
        if now < self.issue_blocked_until {
            // A previous tick proved no queued request's bank frees before
            // this cycle, and nothing has changed since: the pick below
            // would scan the queue just to return `None` again.
            return;
        }
        let pick = {
            // VecDeque -> slice; the scheduler sees arrival order. Only
            // straighten the deque when it has actually wrapped.
            if !self.queue.as_slices().1.is_empty() {
                self.queue.make_contiguous();
            }
            let (slice, _) = self.queue.as_slices();
            self.config.policy.pick(slice, &self.banks, now)
        };
        let Some(idx) = pick else {
            // All queued banks are busy; remember until when, so the ticks
            // in between skip the scan. `pick == None` with a non-empty
            // queue implies every queued bank's free time is beyond `now`,
            // so `earliest_ready` is `Some` and in the future.
            self.issue_blocked_until = self.next_issue_ready().unwrap_or(Cycle::ZERO);
            return;
        };
        let request = self
            .queue
            .remove(idx)
            .expect("scheduler picked a valid index"); // simlint::allow(P002, reason = "the scheduler just selected idx from this queue")
        let rank = request.location.rank_in_mc as usize;
        let transfer = self.line_transfer;
        let (finished, access) = match request.kind {
            RequestKind::Read => {
                let access =
                    self.banks
                        .read(rank, request.location.bank, request.location.row, now);
                // Data returns over the channel bus once the array delivers.
                let bus_start = access.data_ready.max(self.bus_free);
                let done = bus_start + transfer;
                self.bus_free = done;
                self.bus_busy += transfer.raw();
                if self.config.critical_word_first {
                    // The demanded word leads the burst: waiters wake after
                    // the first beat; the bus stays busy through `done`.
                    let first_beat = bus_start + self.config.bus.clock.ticks(1);
                    (first_beat.max(access.data_ready), access)
                } else {
                    (done, access)
                }
            }
            RequestKind::Writeback => {
                // Write data crosses the bus to the bank, then the bank
                // absorbs it; completion when the array write finishes.
                let bus_start = now.max(self.bus_free);
                let bus_done = bus_start + transfer;
                self.bus_free = bus_done;
                self.bus_busy += transfer.raw();
                let access =
                    self.banks
                        .write(rank, request.location.bank, request.location.row, bus_done);
                (access.bank_free, access)
            }
        };
        // Issuing changed bank state and the queue: drop the scan-skip memo.
        self.issue_blocked_until = Cycle::ZERO;
        let row_hit = access.row_hit;
        self.issued += 1;
        if row_hit {
            self.row_hits += 1;
        }
        if self.cmd_trace.is_some() {
            self.trace_issue(&request, &access);
        }
        self.queue_wait
            .record(now.saturating_since(request.arrival).raw() as f64);
        self.service_time.record((finished - now).raw() as f64);
        self.in_flight.push(Completion {
            request,
            finished,
            row_hit,
        });
        self.next_finish = Some(self.next_finish.map_or(finished, |t| t.min(finished)));
    }

    /// Removes and returns every request that has finished by `now`.
    pub fn drain_completions(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        self.drain_completions_into(now, &mut done);
        done
    }

    /// [`drain_completions`](Self::drain_completions) into a caller-owned
    /// buffer, so per-cycle drain loops reuse one allocation. Appends the
    /// finished requests (ordered by finish cycle) to `out`.
    pub fn drain_completions_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        if self.next_finish.is_none_or(|t| t > now) {
            return;
        }
        let start = out.len();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].finished <= now {
                out.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out[start..].sort_by_key(|c| c.finished);
        self.next_finish = self.in_flight.iter().map(|c| c.finished).min();
    }

    /// The earliest cycle at which any in-flight request finishes, if any —
    /// used by drain loops to fast-forward through idle stretches.
    pub const fn next_completion_at(&self) -> Option<Cycle> {
        self.next_finish
    }

    /// The earliest cycle at which a [`tick`](Self::tick) could issue a
    /// queued request per the configured policy, *before* rounding up to
    /// the controller's clock edge (the caller owns the clock divisor).
    /// `None` when the queue is empty. A value `<= now` means the
    /// controller is issue-ready right now.
    pub fn next_issue_ready(&self) -> Option<Cycle> {
        self.config
            .policy
            .earliest_ready(self.queue.iter(), &self.banks)
    }

    /// Replays `ticks` controller clock edges during which the owner
    /// proved (via [`next_issue_ready`](Self::next_issue_ready) and
    /// [`next_completion_at`](Self::next_completion_at)) that a `tick`
    /// would do nothing: the only side effect of such a tick is the
    /// queue-depth sample, recorded here in bulk so fast-forwarded runs
    /// keep bit-identical statistics.
    pub fn note_skipped_ticks(&mut self, ticks: u64) {
        self.queue_depth.record_n(self.queue.len() as u64, ticks);
    }

    /// Shared view of the banks of this controller's ranks.
    pub const fn banks(&self) -> &Banks {
        &self.banks
    }

    /// Turns DRAM command tracing on or off. While enabled, every issued
    /// request appends its row-level command sequence to an internal buffer
    /// retrievable with [`take_cmd_trace`](Self::take_cmd_trace), and the
    /// banks log their refresh operations so REF commands appear in the
    /// stream too. Disabled by default; turning tracing off discards any
    /// buffered commands.
    pub fn set_cmd_tracing(&mut self, enabled: bool) {
        self.cmd_trace = if enabled { Some(Vec::new()) } else { None };
        self.banks.set_refresh_logging(enabled);
    }

    /// The commands buffered so far, if tracing is enabled.
    pub fn cmd_trace(&self) -> Option<&[DramCmd]> {
        self.cmd_trace.as_deref()
    }

    /// Removes and returns the buffered command trace (`None` if tracing
    /// is disabled). Tracing stays enabled if it was.
    pub fn take_cmd_trace(&mut self) -> Option<Vec<DramCmd>> {
        self.cmd_trace.as_mut().map(std::mem::take)
    }

    /// Appends the row-level command sequence for one issued request.
    ///
    /// The sequence is synthesized from the bank's access result: an
    /// open-page row hit is a bare column command; an open-page miss is
    /// PRE + ACT + column; closed-page accesses are ACT + column + PRE.
    /// Each command carries the cycle it started occupying the bank (see
    /// [`stacksim_dram::CmdTimes`]), so JEDEC-style spacing invariants can
    /// be checked against the trace. Any refreshes the bank performed while
    /// catching up to this access are drained first as REF commands. The
    /// per-controller stream is ordered per (rank, bank); commands to
    /// different banks interleave.
    fn trace_issue(&mut self, request: &MemRequest, access: &AccessResult) {
        let rank_idx = request.location.rank_in_mc as usize;
        let bank_idx = request.location.bank.index();
        let refreshes = self.banks.take_refresh_log(rank_idx, request.location.bank);
        let trace = self.cmd_trace.as_mut().expect("checked by caller"); // simlint::allow(P002, reason = "trace_issue is only called when command tracing is enabled")
        for (row, at) in refreshes {
            trace.push(DramCmd {
                at,
                rank: rank_idx,
                bank: bank_idx,
                row,
                kind: DramCmdKind::Refresh,
            });
        }
        let column = match request.kind {
            RequestKind::Read => DramCmdKind::Read,
            RequestKind::Writeback => DramCmdKind::Write,
        };
        let cmd = |kind, at| DramCmd {
            at,
            rank: rank_idx,
            bank: bank_idx,
            row: request.location.row,
            kind,
        };
        let times = access.cmds;
        match self.config.page_policy {
            PagePolicy::Open => {
                if let Some(at) = times.precharge_at {
                    trace.push(cmd(DramCmdKind::Precharge, at));
                }
                if let Some(at) = times.activate_at {
                    trace.push(cmd(DramCmdKind::Activate, at));
                }
                trace.push(cmd(column, times.column_at));
            }
            PagePolicy::Closed => {
                let act = times.activate_at.expect("closed page always activates"); // simlint::allow(P002, reason = "closed-page accesses always activate, so the time is present")
                let pre = times.precharge_at.expect("closed page always precharges"); // simlint::allow(P002, reason = "closed-page accesses always precharge, so the time is present")
                trace.push(cmd(DramCmdKind::Activate, act));
                trace.push(cmd(column, times.column_at));
                trace.push(cmd(DramCmdKind::Precharge, pre));
            }
        }
    }

    /// Writes the controller's counters and means, and its banks' counters
    /// summed under `ranks.` names, into its metrics node.
    pub fn write_metrics(&self, node: &mut MetricsSink) {
        node.counter("issued", self.issued);
        node.counter("rejected", self.rejected);
        node.counter("row_hits", self.row_hits);
        if self.issued > 0 {
            node.gauge("row_hit_rate", self.row_hits as f64 / self.issued as f64);
        }
        node.counter("bus_busy_cycles", self.bus_busy);
        if let Some(w) = self.queue_wait.mean() {
            node.gauge("avg_queue_wait", w);
        }
        if let Some(s) = self.service_time.mean() {
            node.gauge("avg_service_time", s);
        }
        if let Some(d) = self.queue_depth.mean() {
            node.gauge("avg_queue_depth", d);
        }
        let all = |f: fn(&Bank) -> u64| self.banks.iter().map(f).sum::<u64>();
        node.counter("ranks.reads", all(Bank::reads));
        node.counter("ranks.writes", all(Bank::writes));
        node.counter("ranks.row_hits", all(Bank::row_hits));
        node.counter("ranks.row_misses", all(Bank::row_misses));
        node.counter("ranks.activates", all(Bank::activates));
        node.counter("ranks.refreshes", all(Bank::refreshes));
        node.counter("ranks.busy_cycles", all(Bank::busy_cycles));
        // Known defect, kept because stackbench/expected pins it: this is
        // the sum of each rank's row-hit rate, not a rate.
        let mut rate_sum = None;
        for rank in self.banks.ranks() {
            let per_rank = |f: fn(&Bank) -> u64| rank.iter().map(f).sum::<u64>();
            let hits = per_rank(Bank::row_hits) as f64;
            let total = hits + per_rank(Bank::row_misses) as f64;
            if total > 0.0 {
                *rate_sum.get_or_insert(0.0) += hits / total;
            }
        }
        if let Some(rate_sum) = rate_sum {
            node.gauge("ranks.row_hit_rate", rate_sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_types::{AddressMapper, CoreId, DramTiming, MemoryGeometry, PhysAddr};

    const HZ: f64 = 3.333e9;

    fn mc(policy: SchedulerPolicy, bus: BusConfig) -> (MemoryController, AddressMapper) {
        let cfg = McConfig {
            queue_capacity: 8,
            ranks: 4,
            banks_per_rank: 8,
            rows_per_bank: 1 << 15,
            row_buffer_entries: 1,
            timing: DramTiming::COMMODITY_2D.to_cycles(HZ),
            refresh_interval: None,
            smart_refresh: false,
            page_policy: PagePolicy::Open,
            bus,
            critical_word_first: false,
            policy,
        };
        let geom = MemoryGeometry::new(8 << 30, 4, 8, 4096, 1).unwrap();
        (
            MemoryController::new(McId::new(0), cfg),
            AddressMapper::new(geom),
        )
    }

    fn read_req(mapper: &AddressMapper, page: u64, now: u64) -> MemRequest {
        let addr = PhysAddr::new(page * 4096);
        MemRequest {
            line: addr.line(),
            location: mapper.decode(addr),
            kind: RequestKind::Read,
            core: CoreId::new(0),
            arrival: Cycle::new(now),
            token: page,
        }
    }

    fn run_until_complete(mc: &mut MemoryController, mut now: Cycle) -> (Vec<Completion>, Cycle) {
        let mut done = Vec::new();
        for _ in 0..1_000_000 {
            mc.tick(now);
            done.extend(mc.drain_completions(now));
            if mc.is_idle() {
                return (done, now);
            }
            now += Cycles::new(1);
        }
        panic!("controller did not drain");
    }

    #[test]
    fn single_read_completes_with_miss_latency_plus_bus() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        mc.enqueue(read_req(&mapper, 0, 0)).unwrap();
        let (done, _) = run_until_complete(&mut mc, Cycle::ZERO);
        assert_eq!(done.len(), 1);
        let t = DramTiming::COMMODITY_2D.to_cycles(HZ);
        // tRP + tRCD + tCAS + 1 bus cycle for the 64-byte line.
        let expect = Cycle::ZERO + t.t_rp + t.t_rcd + t.t_cas + Cycles::new(1);
        assert_eq!(done[0].finished, expect);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn narrow_bus_serializes_returns() {
        // Two reads to different banks: array access overlaps, but an
        // 8-byte FSB-width bus makes the second line wait for the first.
        let (mut mc_wide, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        let (mut mc_narrow, _) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(8));
        for m in [&mut mc_wide, &mut mc_narrow] {
            m.enqueue(read_req(&mapper, 1, 0)).unwrap();
            m.enqueue(read_req(&mapper, 2, 0)).unwrap();
        }
        let (wide, _) = run_until_complete(&mut mc_wide, Cycle::ZERO);
        let (narrow, _) = run_until_complete(&mut mc_narrow, Cycle::ZERO);
        let last = |v: &[Completion]| v.iter().map(|c| c.finished).max().unwrap();
        assert!(last(&narrow) > last(&wide), "narrow bus must finish later");
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        for p in 0..8 {
            mc.enqueue(read_req(&mapper, p, 0)).unwrap();
        }
        assert!(!mc.can_accept());
        assert!(mc.enqueue(read_req(&mapper, 99, 0)).is_err());
        assert_eq!(mc.queue_len(), 8);
    }

    #[test]
    fn misrouted_request_rejected() {
        let (mut mc, _) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        // Decode against a 2-MC geometry so page 1 belongs to MC 1.
        let geom2 = MemoryGeometry::new(8 << 30, 4, 8, 4096, 2).unwrap();
        let m2 = AddressMapper::new(geom2);
        let req = read_req(&m2, 1, 0);
        assert_eq!(req.location.mc, McId::new(1));
        assert!(mc.enqueue(req).is_err());
    }

    #[test]
    fn row_hits_recorded_in_stats() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        // Two lines in the same page: second is a row hit.
        let addr_a = PhysAddr::new(0);
        let addr_b = PhysAddr::new(64);
        for (i, addr) in [addr_a, addr_b].into_iter().enumerate() {
            mc.enqueue(MemRequest {
                line: addr.line(),
                location: mapper.decode(addr),
                kind: RequestKind::Read,
                core: CoreId::new(0),
                arrival: Cycle::ZERO,
                token: i as u64,
            })
            .unwrap();
        }
        let (done, _) = run_until_complete(&mut mc, Cycle::ZERO);
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|c| c.row_hit));
        assert_eq!(mc.issued, 2);
        assert_eq!(mc.row_hits, 1);
        let reads: u64 = mc.banks().iter().map(Bank::reads).sum();
        assert_eq!(reads, 2);
    }

    #[test]
    fn critical_word_first_wakes_early_but_keeps_bus_busy() {
        let (mut plain, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(8));
        let mut cfg = *plain.config();
        cfg.critical_word_first = true;
        let mut cwf = MemoryController::new(McId::new(0), cfg);
        for m in [&mut plain, &mut cwf] {
            m.enqueue(read_req(&mapper, 0, 0)).unwrap();
            m.enqueue(read_req(&mapper, 1, 0)).unwrap();
        }
        let (p, _) = run_until_complete(&mut plain, Cycle::ZERO);
        let (c, _) = run_until_complete(&mut cwf, Cycle::ZERO);
        let first = |v: &[Completion]| v.iter().map(|x| x.finished).min().unwrap();
        // The first waiter wakes 7 beats earlier under CWF (8-byte bus,
        // 8 beats per line, first beat only).
        assert!(
            first(&c) < first(&p),
            "cwf {:?} vs plain {:?}",
            first(&c),
            first(&p)
        );
        // But the bus occupancy — and therefore the second request's
        // serialization — is identical.
        assert_eq!(plain.bus_busy, cwf.bus_busy);
    }

    #[test]
    fn writeback_completes_without_reply() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        let mut req = read_req(&mapper, 3, 0);
        req.kind = RequestKind::Writeback;
        mc.enqueue(req).unwrap();
        let (done, _) = run_until_complete(&mut mc, Cycle::ZERO);
        assert_eq!(done.len(), 1);
        assert!(!done[0].request.needs_reply());
    }

    #[test]
    fn cmd_trace_records_issue_sequences() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        mc.set_cmd_tracing(true);
        // Two lines in the same page: a miss (PRE+ACT+RD) then a hit (RD).
        for (i, addr) in [PhysAddr::new(0), PhysAddr::new(64)]
            .into_iter()
            .enumerate()
        {
            mc.enqueue(MemRequest {
                line: addr.line(),
                location: mapper.decode(addr),
                kind: RequestKind::Read,
                core: CoreId::new(0),
                arrival: Cycle::ZERO,
                token: i as u64,
            })
            .unwrap();
        }
        run_until_complete(&mut mc, Cycle::ZERO);
        let cmds: Vec<_> = mc.cmd_trace().unwrap().to_vec();
        let kinds: Vec<_> = cmds.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            [
                stacksim_dram::DramCmdKind::Precharge,
                stacksim_dram::DramCmdKind::Activate,
                stacksim_dram::DramCmdKind::Read,
                stacksim_dram::DramCmdKind::Read,
            ]
        );
        // Commands carry their real issue times, not the request's issue
        // cycle: ACT begins when the precharge completes, the column burst
        // when the activate completes.
        let t = DramTiming::COMMODITY_2D.to_cycles(HZ);
        assert_eq!(cmds[0].at, Cycle::ZERO);
        assert_eq!(cmds[1].at, cmds[0].at + t.t_rp);
        assert_eq!(cmds[2].at, cmds[1].at + t.t_rcd);
        assert!(cmds[3].at >= cmds[2].at + t.t_ccd, "bursts spaced by tCCD");
        let taken = mc.take_cmd_trace().unwrap();
        assert_eq!(taken.len(), 4);
        assert!(
            mc.cmd_trace().unwrap().is_empty(),
            "buffer drained, tracing still on"
        );
    }

    #[test]
    fn cmd_trace_includes_refreshes() {
        let (proto, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        let mut cfg = *proto.config();
        cfg.refresh_interval = Some(Cycles::new(1000));
        let mut mc = MemoryController::new(McId::new(0), cfg);
        mc.set_cmd_tracing(true);
        // Arrive long after several per-row refreshes came due: the bank
        // catches up first and the REF commands land in the trace before
        // the access's own commands.
        mc.enqueue(read_req(&mapper, 0, 3500)).unwrap();
        run_until_complete(&mut mc, Cycle::new(3500));
        let cmds = mc.take_cmd_trace().unwrap();
        let refs: Vec<_> = cmds
            .iter()
            .filter(|c| c.kind == DramCmdKind::Refresh)
            .collect();
        assert_eq!(refs.len(), 3, "refreshes due at 1000/2000/3000");
        let t = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let refresh_busy = t.t_ras + t.t_rp;
        assert!(refs.windows(2).all(|w| w[1].at >= w[0].at + refresh_busy));
        // All commands here target one bank, so the stream is time-ordered.
        assert!(cmds.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(cmds.last().unwrap().kind, DramCmdKind::Read);
    }

    #[test]
    fn cmd_trace_disabled_buffers_nothing() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        mc.enqueue(read_req(&mapper, 0, 0)).unwrap();
        run_until_complete(&mut mc, Cycle::ZERO);
        assert_eq!(mc.cmd_trace(), None);
        assert_eq!(mc.take_cmd_trace(), None);
    }

    /// Reference drain: scan every in-flight request, then stable-sort the
    /// finished ones by cycle.
    fn reference_drain(in_flight: &mut Vec<Completion>, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < in_flight.len() {
            if in_flight[i].finished <= now {
                out.push(in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out.sort_by_key(|c| c.finished);
        out
    }

    #[test]
    fn cached_earliest_finish_tracks_in_flight_minimum() {
        let (proto, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(8));
        let mut cfg = *proto.config();
        cfg.critical_word_first = true;
        let mut mc = MemoryController::new(McId::new(0), cfg);
        let mut now = Cycle::ZERO;
        let mut pending = (0..48u64).map(|p| {
            let mut req = read_req(&mapper, p * 7 % 23, 0);
            if p % 5 == 0 {
                req.kind = RequestKind::Writeback;
            }
            req
        });
        let mut drained = 0;
        for _ in 0..100_000 {
            if mc.can_accept() {
                if let Some(req) = pending.next() {
                    mc.enqueue(req).unwrap();
                }
            }
            mc.tick(now);
            let min = |m: &MemoryController| m.in_flight.iter().map(|c| c.finished).min();
            assert_eq!(mc.next_completion_at(), min(&mc), "after tick at {now:?}");
            let mut expected = mc.in_flight.clone();
            let expected = reference_drain(&mut expected, now);
            let mut got = Vec::new();
            mc.drain_completions_into(now, &mut got);
            assert_eq!(got, expected, "drain at {now:?}");
            assert_eq!(mc.next_completion_at(), min(&mc), "after drain at {now:?}");
            drained += got.len();
            if drained == 48 {
                return;
            }
            now += Cycles::new(1);
        }
        panic!("controller did not drain");
    }

    #[test]
    fn equal_finish_completions_drain_in_the_original_order() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        for (token, finished) in [(0, 10), (1, 5), (2, 10), (3, 5), (4, 12)] {
            let mut request = read_req(&mapper, 0, 0);
            request.token = token;
            mc.in_flight.push(Completion {
                request,
                finished: Cycle::new(finished),
                row_hit: false,
            });
        }
        mc.next_finish = Some(Cycle::new(5));
        let mut out = Vec::new();
        mc.drain_completions_into(Cycle::new(4), &mut out);
        assert!(out.is_empty());
        mc.drain_completions_into(Cycle::new(10), &mut out);
        let tokens: Vec<u64> = out.iter().map(|c| c.request.token).collect();
        assert_eq!(tokens, [1, 3, 0, 2]);
        assert_eq!(mc.next_completion_at(), Some(Cycle::new(12)));
        mc.drain_completions_into(Cycle::new(12), &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(mc.next_completion_at(), None);
    }

    #[test]
    fn next_completion_at_reports_earliest() {
        let (mut mc, mapper) = mc(SchedulerPolicy::FrFcfs, BusConfig::on_stack(64));
        assert_eq!(mc.next_completion_at(), None);
        mc.enqueue(read_req(&mapper, 0, 0)).unwrap();
        mc.tick(Cycle::ZERO);
        assert!(mc.next_completion_at().is_some());
    }
}
