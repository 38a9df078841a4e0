//! The assembled machine: cores, shared L2, banked L2 MSHRs, banked memory
//! controllers, and the 3D (or off-chip) DRAM behind them.

use std::collections::VecDeque;

use stacksim_cache::{
    AccessOutcome, BankedCache, NextLinePrefetcher, Prefetcher, StridePrefetcher,
};
use stacksim_cpu::{Core, CoreRequest};
use stacksim_memctrl::{Completion, McConfig, MemRequest, MemoryController, RequestKind};
use stacksim_mshr::{
    CamMshr, DirectMappedMshr, DynamicTuner, HierarchicalMshr, MissHandler, MissKind, MissTarget,
    MshrKind, OccupancySample, ProbeScheme, VbfMshr,
};
use stacksim_stats::{Histogram, MetricsSink};
use stacksim_types::{
    AddressMapper, BusConfig, ClockDomain, ConfigError, CoreId, Cycle, Cycles, LineAddr,
};
use stacksim_vm::PageAllocator;
use stacksim_workload::{Mix, SyntheticWorkload, TraceGenerator};

use crate::config::SystemConfig;
use crate::trace::{QueueDepthSample, Trace, TraceConfig};

/// Token bit marking a memory request as an L2-generated prefetch (no core
/// and no MSHR entry waits on it; the fill populates the L2).
const L2_ORIGIN: u64 = 1;

/// In-flight L2 prefetches each memory controller can track. L2 prefetches
/// live in a small per-controller buffer rather than the L2 MSHRs (which
/// track *misses*), so prefetch traffic loads the memory system without
/// consuming miss-handling capacity — and banking the controllers also
/// banks this buffer, one of the parallelism benefits of the §4.1
/// organization.
const L2_PF_INFLIGHT_PER_MC: usize = 16;

/// Per-controller send queues, drained highest-priority-first into the MRQ:
/// demand fetches ahead of writebacks ahead of prefetches, the standard
/// memory-side arbitration (a demand miss stalls a core; a prefetch does
/// not).
#[derive(Debug, Default)]
struct SendQueues {
    demand: VecDeque<MemRequest>,
    writeback: VecDeque<MemRequest>,
    prefetch: VecDeque<MemRequest>,
}

impl SendQueues {
    fn push(&mut self, req: MemRequest) {
        if req.kind == RequestKind::Writeback {
            self.writeback.push_back(req);
        } else if req.token & L2_ORIGIN != 0 {
            self.prefetch.push_back(req);
        } else {
            self.demand.push_back(req);
        }
    }

    fn pop(&mut self) -> Option<MemRequest> {
        self.demand
            .pop_front()
            .or_else(|| self.writeback.pop_front())
            .or_else(|| self.prefetch.pop_front())
    }

    fn is_empty(&self) -> bool {
        self.demand.is_empty() && self.writeback.is_empty() && self.prefetch.is_empty()
    }
}

/// Address-space stride between the programs of a mix (first-come-first-
/// serve physical allocation gives each program a disjoint region).
const PER_CORE_REGION: u64 = 2 << 30;

#[derive(Debug)]
enum EventKind {
    /// A core request (demand, prefetch or DL1 writeback) reaches the L2.
    /// `retry` marks re-attempts after an MSHR-full stall, which must not
    /// re-count statistics or re-train prefetchers.
    L2Access {
        req: CoreRequest,
        retry: Option<RetryKey>,
    },
    /// A memory request, past its MSHR probe latency and wire delay, joins
    /// its controller's send queue.
    McSend(MemRequest),
    /// Fill data reaches the cores waiting on `line`.
    CoreFill { line: LineAddr, cores: Vec<CoreId> },
}

/// Identity of an MSHR-full request across its retries: the cycle its
/// first allocation attempt failed, and its place in failure order.
///
/// Per-cycle rescheduling leaves the retries in any one slot ordered
/// youngest first failure first, and in failure order within a cycle: a
/// fresh access is scheduled `l2_latency` cycles ahead, so it precedes the
/// retries in its slot and fails ahead of them. Parked waiters re-enter
/// the wheel in that same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RetryKey {
    first_failed: u64,
    seq: u64,
}

impl RetryKey {
    fn order(self) -> (std::cmp::Reverse<u64>, u64) {
        (std::cmp::Reverse(self.first_failed), self.seq)
    }
}

/// An MSHR-full core request parked off the event wheel until something
/// that can change its outcome happens (see [`System::handle_l2_access`]).
#[derive(Debug)]
struct Waiter {
    req: CoreRequest,
    key: RetryKey,
    /// MSHR bank (one per memory controller) the request allocates in.
    bank: usize,
    /// Probes each failed attempt costs. Fixed while parked: a failing
    /// probe count depends at most on which lines the bank holds, and a
    /// bank refusing this line takes in no new line that a failing probe
    /// of it would see before a deallocation wakes the request.
    probes: u32,
    /// Last cycle whose failed attempt has been charged to the statistics.
    charged_through: u64,
}

impl Waiter {
    /// Charges the attempt the request would have made, and failed, on
    /// every cycle after the last charged one up to and including `cycle`.
    fn charge_through(&mut self, cycle: u64, probe_hist: &mut Histogram, retries: &mut u64) {
        let n = cycle.saturating_sub(self.charged_through);
        if n > 0 {
            probe_hist.record_n(u64::from(self.probes), n);
            *retries += n;
            self.charged_through = cycle;
        }
    }
}

/// Initial calendar-queue span in cycles. Covers every ordinary scheduling
/// delay (L2 latency, wire paths, probe serialization); outliers trigger a
/// doubling growth.
const INITIAL_WHEEL_SLOTS: usize = 256;

/// Ceiling on pooled `CoreFill` core lists kept for reuse.
const CORE_LIST_POOL_CAP: usize = 64;

/// A calendar (bucket) event queue indexed by cycle: a power-of-two ring of
/// per-cycle slots, each holding its events in insertion order.
///
/// This replaces a `BinaryHeap<Reverse<(at, seq)>>`: since the simulator
/// only ever pops events due at the *current* cycle, ordering within a
/// cycle by insertion is exactly the heap's `(at, seq)` order, with O(1)
/// push/pop and no per-event comparisons or sequence numbers. Events
/// scheduled mid-drain for the current cycle land in the live slot and are
/// handled the same cycle (see [`take_due`](EventWheel::take_due)); an
/// event left timestamped in the past — the heap allowed this for
/// post-drain zero-delay sends — is carried at the *front* of the next
/// cycle's slot, matching the heap's smaller-`at`-first order.
#[derive(Debug)]
struct EventWheel {
    slots: Vec<Vec<EventKind>>,
    /// Slot index holding events due at `base`.
    cursor: usize,
    /// Absolute cycle of `slots[cursor]`.
    base: u64,
    len: usize,
}

impl EventWheel {
    fn new() -> EventWheel {
        EventWheel {
            slots: (0..INITIAL_WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            base: 0,
            len: 0,
        }
    }

    /// Events pending across all slots (diagnostic; exercised by the
    /// timeline probe test).
    #[cfg_attr(not(test), allow(dead_code))]
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, at: Cycle, kind: EventKind) {
        // `saturating_sub` folds an already-due timestamp into the current
        // slot rather than underflowing.
        let offset = at.raw().saturating_sub(self.base) as usize;
        if offset >= self.slots.len() {
            self.grow(offset + 1);
        }
        let mask = self.slots.len() - 1;
        self.slots[(self.cursor + offset) & mask].push(kind);
        self.len += 1;
    }

    /// Takes the batch of events due at the current cycle (possibly empty).
    /// Handlers may push same-cycle events while a batch is out; callers
    /// re-take until empty so those run this cycle too, in schedule order.
    fn take_due(&mut self) -> Vec<EventKind> {
        let batch = std::mem::take(&mut self.slots[self.cursor]);
        self.len -= batch.len();
        batch
    }

    /// Returns a drained batch's storage to the current slot so its
    /// capacity is reused next cycle.
    fn recycle(&mut self, storage: Vec<EventKind>) {
        debug_assert!(storage.is_empty());
        let slot = &mut self.slots[self.cursor];
        if slot.is_empty() && slot.capacity() < storage.capacity() {
            *slot = storage;
        }
    }

    /// Whether any event (including a leftover carried with a past
    /// timestamp) is due at the current cycle.
    fn has_due(&self) -> bool {
        !self.slots[self.cursor].is_empty()
    }

    /// Events scheduled so far for the next cycle: an index into its slot
    /// for a later [`insert_next`](EventWheel::insert_next).
    fn next_len(&self) -> usize {
        self.slots[(self.cursor + 1) & (self.slots.len() - 1)].len()
    }

    /// Inserts `events` into the next cycle's slot at index `at`, recorded
    /// earlier with [`next_len`](EventWheel::next_len): after the events
    /// that slot held then, ahead of any pushed there since.
    fn insert_next(&mut self, at: usize, events: impl Iterator<Item = EventKind>) {
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[(self.cursor + 1) & mask];
        let before = slot.len();
        slot.splice(at..at, events);
        self.len += slot.len() - before;
    }

    /// The cycle of the earliest pending event, if any. Leftover events
    /// carried forward with past timestamps live in the current slot, so
    /// the scan starts there and `base` is a lower bound on the answer.
    fn next_event_at(&self) -> Option<Cycle> {
        if !self.slots[self.cursor].is_empty() {
            return Some(Cycle::new(self.base));
        }
        self.next_event_after_now()
    }

    /// The cycle of the earliest event strictly after the current slot.
    fn next_event_after_now(&self) -> Option<Cycle> {
        if self.len == self.slots[self.cursor].len() {
            return None; // every pending event (possibly none) is due now
        }
        let mask = self.slots.len() - 1;
        (1..self.slots.len())
            .find(|&off| !self.slots[(self.cursor + off) & mask].is_empty())
            .map(|off| Cycle::new(self.base + off as u64))
    }

    /// Jumps the wheel `n` cycles forward in one step. The caller must
    /// have proved (via [`next_event_at`](EventWheel::next_event_at)) that
    /// no event lies in the skipped span, so the current and every
    /// intermediate slot are empty and no leftover splicing is needed.
    fn advance_by(&mut self, n: u64) {
        debug_assert!(
            self.next_event_at()
                .is_none_or(|t| t.raw() >= self.base + n),
            "fast-forward across a pending event"
        );
        let slots = self.slots.len() as u64;
        self.cursor = (self.cursor + (n % slots) as usize) & (self.slots.len() - 1);
        self.base += n;
    }

    /// Moves to the next cycle. Events still in the outgoing slot (pushed
    /// after the drain with a zero delay) keep priority over the incoming
    /// cycle's events, as their smaller timestamp did in the heap.
    fn advance(&mut self) {
        let mask = self.slots.len() - 1;
        let leftovers = std::mem::take(&mut self.slots[self.cursor]);
        self.cursor = (self.cursor + 1) & mask;
        self.base += 1;
        if !leftovers.is_empty() {
            self.slots[self.cursor].splice(0..0, leftovers);
        }
    }

    /// Doubles the ring until it spans at least `needed` cycles, realigning
    /// the current cycle to slot 0.
    fn grow(&mut self, needed: usize) {
        let old_n = self.slots.len();
        let mut new_n = old_n * 2;
        while new_n < needed {
            new_n *= 2;
        }
        let old_mask = old_n - 1;
        // simlint::allow(H001, reason = "amortized ring doubling: runs O(log max-delay) times per simulation, never in steady state")
        let mut new_slots: Vec<Vec<EventKind>> = (0..new_n).map(|_| Vec::new()).collect();
        for i in 0..old_n {
            let offset = (i + old_n - self.cursor) & old_mask;
            new_slots[offset] = std::mem::take(&mut self.slots[i]);
        }
        self.slots = new_slots;
        self.cursor = 0;
    }
}

/// The whole simulated machine.
///
/// Construct one per run via [`System::for_mix`] (or
/// [`System::with_generators`] for custom programs), then drive it with
/// [`run_cycles`](System::run_cycles).
pub struct System {
    cfg: SystemConfig,
    now: Cycle,
    cores: Vec<Core>,
    l2: BankedCache,
    l2_nextline: Option<NextLinePrefetcher>,
    l2_stride: Option<StridePrefetcher>,
    mshr_banks: Vec<Box<dyn MissHandler>>,
    tuner: Option<DynamicTuner>,
    mcs: Vec<MemoryController>,
    send_queues: Vec<SendQueues>,
    pf_cap_per_mc: usize,
    // Lines of the L2 prefetches in flight per MC, at most `pf_cap_per_mc`
    // each: a set searched linearly, never iterated for results.
    pf_inflight: Vec<Vec<LineAddr>>,
    mapper: AddressMapper,
    events: EventWheel,
    req_buf: Vec<CoreRequest>,
    completion_buf: Vec<Completion>,
    core_list_pool: Vec<Vec<CoreId>>,
    // MSHR-full requests parked off the wheel while fast-forward is on,
    // and those a wake source released this cycle (both buffers reused).
    waiters: Vec<Waiter>,
    woken: Vec<Waiter>,
    // Failure-order sequence numbers for `RetryKey`.
    retry_seq: u64,
    // Hot-loop copies of configuration fields read every cycle (the config
    // is immutable after construction).
    l2_latency: Cycles,
    path_latency: Cycles,
    // Request-path interconnect cost per (core, MC), row-major; empty when
    // the scenario models no hops (every shipped quad-core machine).
    hop_cost: Vec<Cycles>,
    mc_clock_divisor: u64,
    // Quiescence fast-forward (on unless a run disables it for
    // verification): when a tick provably has nothing to do, `run_cycles`
    // jumps straight to the next possible activity.
    fast_forward: bool,
    skipped_cycles: u64,
    ticked_cycles: u64,
    // Scratch buffer for prefetch candidates, reused across demand
    // accesses instead of allocating per call.
    pf_candidates: Vec<LineAddr>,
    // Statistics.
    probe_hist: Histogram,
    /// Fills delivered to cores so far. The MC-only tick slice watches this
    /// to detect the moment core state changed under it (a `CoreFill` event
    /// or a retried access hitting a line another fill brought in) and hand
    /// control back to the full loop.
    fill_deliveries: u64,
    mshr_full_retries: u64,
    dropped_prefetches: u64,
    l2_prefetches_issued: u64,
    spurious_completions: u64,
    // Event tracing. `trace` is `None` when tracing is disabled, so the hot
    // loop pays one discriminant check per cycle and nothing else.
    trace_cfg: TraceConfig,
    trace: Option<Trace>,
}

impl System {
    /// Builds the machine for one Table 2(b) mix, placing each program in
    /// its own 2 GB region and seeding its generator deterministically from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    #[must_use = "the built System or the reason the configuration is invalid"]
    pub fn for_mix(cfg: &SystemConfig, mix: &Mix, seed: u64) -> Result<System, ConfigError> {
        if cfg.vm.is_none() && cfg.cores as u64 * PER_CORE_REGION > cfg.memory.total_bytes {
            return Err(ConfigError::new(format!(
                "{} cores without virtual memory need disjoint 2 GB regions beyond the {} B of physical memory",
                cfg.cores, cfg.memory.total_bytes
            )));
        }
        let benchmarks = mix.benchmarks();
        let generators: Vec<Box<dyn TraceGenerator>> = (0..cfg.cores)
            .map(|i| {
                // A four-program mix populates more than four cores by
                // cycling: core i runs program i mod 4 with its own seed.
                let spec = benchmarks[i % benchmarks.len()];
                // With virtual memory every program starts at virtual 0 and
                // the FCFS allocator interleaves their physical placement;
                // without it, disjoint physical regions stand in.
                let base = if cfg.vm.is_some() {
                    0
                } else {
                    i as u64 * PER_CORE_REGION
                };
                Box::new(SyntheticWorkload::new(
                    spec,
                    seed.wrapping_mul(31).wrapping_add(i as u64),
                    base,
                )) as Box<dyn TraceGenerator>
            })
            .collect();
        System::with_generators(cfg, generators)
    }

    /// Builds the machine around caller-provided program generators (one
    /// per core).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent or the
    /// generator count does not match the core count.
    #[must_use = "the built System or the reason the configuration is invalid"]
    pub fn with_generators(
        cfg: &SystemConfig,
        generators: Vec<Box<dyn TraceGenerator>>,
    ) -> Result<System, ConfigError> {
        cfg.validate()?;
        if generators.len() != cfg.cores {
            return Err(ConfigError::new(format!(
                "{} generators for {} cores",
                generators.len(),
                cfg.cores
            )));
        }
        let geometry = cfg.geometry()?;
        let mapper = AddressMapper::new(geometry);
        let allocator = cfg.vm.map(|_| {
            std::rc::Rc::new(std::cell::RefCell::new(PageAllocator::new(
                cfg.memory.total_bytes,
            )))
        });
        let cores = generators
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let mut core = Core::new(CoreId::new(i as u16), cfg.core_for(i).clone(), g);
                if let (Some(tlb), Some(alloc)) = (cfg.vm, &allocator) {
                    core.attach_vm(tlb, alloc.clone(), i as u16);
                }
                core
            })
            .collect();
        let l2 = BankedCache::new(cfg.l2, cfg.l2_banks as usize, cfg.l2_interleave);
        let timing = cfg.memory.timing.to_cycles(cfg.core_hz);
        let refresh_interval = cfg
            .memory
            .refresh
            .row_interval(geometry.rows_per_bank(), cfg.core_hz);
        let mcs: Vec<MemoryController> = (0..cfg.memory.mcs)
            .map(|i| {
                MemoryController::try_new(
                    stacksim_types::McId::new(i),
                    McConfig {
                        queue_capacity: cfg.mrq_per_mc(),
                        ranks: geometry.ranks_per_mc() as usize,
                        banks_per_rank: cfg.memory.banks_per_rank as usize,
                        rows_per_bank: geometry.rows_per_bank(),
                        row_buffer_entries: cfg.memory.row_buffer_entries,
                        timing,
                        refresh_interval,
                        smart_refresh: cfg.memory.smart_refresh,
                        page_policy: cfg.memory.page_policy,
                        bus: BusConfig {
                            width_bytes: cfg.memory.bus_width_bytes,
                            clock: ClockDomain::new(cfg.memory.bus_clock_divisor),
                        },
                        critical_word_first: cfg.memory.critical_word_first,
                        policy: cfg.memory.policy,
                    },
                )
            })
            .collect::<Result<_, _>>()?;
        let per_bank = cfg.mshr_entries_per_bank();
        let mshr_banks: Vec<Box<dyn MissHandler>> = (0..cfg.memory.mcs)
            .map(|_| make_mshr(cfg.mshr.kind, per_bank))
            .collect();
        let tuner = cfg
            .mshr
            .dynamic
            .clone()
            .map(|t| DynamicTuner::new(per_bank, t));
        let send_queues = (0..cfg.memory.mcs).map(|_| SendQueues::default()).collect();
        // Per-(core, MC) request-path hop costs; empty (the common case)
        // means the zero-hop adjacency model and costs nothing per request.
        let hop_cost: Vec<Cycles> = if cfg.interconnect.hop_latency == Cycles::ZERO {
            Vec::new()
        } else {
            (0..cfg.cores)
                .flat_map(|c| {
                    (0..cfg.memory.mcs)
                        .map(move |m| cfg.interconnect.cost(c, m, cfg.cores, cfg.memory.mcs))
                })
                .collect()
        };
        let pf_cap_per_mc = L2_PF_INFLIGHT_PER_MC;
        let pf_inflight = (0..cfg.memory.mcs)
            .map(|_| Vec::with_capacity(pf_cap_per_mc))
            .collect();
        Ok(System {
            now: Cycle::ZERO,
            cores,
            l2,
            l2_nextline: cfg.l2_prefetch.then(|| NextLinePrefetcher::new(1)),
            l2_stride: cfg.l2_prefetch.then(|| StridePrefetcher::new(64, 1)),
            mshr_banks,
            tuner,
            mcs,
            send_queues,
            pf_cap_per_mc,
            pf_inflight,
            mapper,
            events: EventWheel::new(),
            req_buf: Vec::new(),
            completion_buf: Vec::new(),
            core_list_pool: Vec::new(),
            waiters: Vec::new(),
            woken: Vec::new(),
            retry_seq: 0,
            l2_latency: cfg.l2_latency,
            path_latency: cfg.memory.path_latency,
            hop_cost,
            mc_clock_divisor: cfg.memory.mc_clock_divisor,
            cfg: cfg.clone(),
            fast_forward: true,
            skipped_cycles: 0,
            ticked_cycles: 0,
            pf_candidates: Vec::new(),
            probe_hist: Histogram::new(256),
            fill_deliveries: 0,
            mshr_full_retries: 0,
            dropped_prefetches: 0,
            l2_prefetches_issued: 0,
            spurious_completions: 0,
            trace_cfg: TraceConfig::off(),
            trace: None,
        })
    }

    /// Turns on event tracing for the rest of the run, recording the streams
    /// `cfg` selects. Call before [`run_cycles`](System::run_cycles); collect
    /// the streams afterwards with [`take_trace`](System::take_trace).
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.trace_cfg = cfg;
        if !cfg.any() {
            for mc in &mut self.mcs {
                mc.set_cmd_tracing(false);
            }
            self.trace = None;
            return;
        }
        for mc in &mut self.mcs {
            mc.set_cmd_tracing(cfg.dram_cmds);
        }
        self.trace = Some(Trace::default());
    }

    /// Removes and returns the streams recorded since tracing was enabled
    /// (`None` if tracing is off). Tracing stays enabled; the next call
    /// returns only newer events.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let mut trace = self.trace.take()?;
        if self.trace_cfg.dram_cmds {
            trace.dram_cmds = self.mcs.iter_mut().map(|mc| mc.take_cmd_trace()).collect();
        }
        self.trace = Some(Trace::default());
        Some(trace)
    }

    /// Samples the periodic trace streams; called from the tick loop only
    /// while tracing is enabled.
    fn trace_sample(&mut self, now: Cycle) {
        let cfg = self.trace_cfg;
        if !cfg.samples() || !now.raw().is_multiple_of(cfg.sample_interval.max(1)) {
            return;
        }
        let trace = self.trace.as_mut().expect("checked by caller"); // simlint::allow(P002, reason = "trace_sample is only called when tracing is on, so the trace sink exists")
        if cfg.mshr_occupancy {
            for (i, bank) in self.mshr_banks.iter().enumerate() {
                trace
                    .mshr_occupancy
                    .push(OccupancySample::of(now, i, bank.as_ref()));
            }
        }
        if cfg.mc_queue_depth {
            for (i, mc) in self.mcs.iter().enumerate() {
                trace.mc_queue_depth.push(QueueDepthSample {
                    at: now,
                    mc: i,
                    depth: mc.queue_len(),
                });
            }
        }
    }

    /// Current simulated time.
    pub const fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration in force.
    pub const fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The simulated cores.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Total µops committed across all cores.
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(Core::committed).sum()
    }

    /// µops committed by one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_committed(&self, core: usize) -> u64 {
        self.cores[core].committed()
    }

    /// Mean L2 MSHR probes per access (the paper's §5.2 statistic,
    /// including the mandatory first probe). `None` before any access.
    pub fn probes_per_access(&self) -> Option<f64> {
        self.probe_hist.mean()
    }

    /// Turns quiescence fast-forwarding off (or back on). With it off,
    /// every cycle runs the full tick loop. Results are bit-identical
    /// either way — the flag exists so tests and debugging sessions can
    /// verify exactly that.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
        if !enabled {
            // The reference path re-polls every cycle: release any parked
            // waiters at the end of the next tick, where their next failed
            // attempt puts them back on the wheel.
            self.woken.append(&mut self.waiters);
        }
    }

    /// Cycles advanced in bulk by quiescence fast-forwarding so far.
    pub const fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Cycles executed by the full per-cycle loop so far.
    pub const fn ticked_cycles(&self) -> u64 {
        self.ticked_cycles
    }

    /// Advances the machine by `n` cycles.
    ///
    /// Cycle-accurate in effect, activity-driven in cost. Whenever every
    /// core is provably inert until a known cycle, the loop drops into an
    /// MC-only slice that runs just the
    /// memory side of the machine until a core can wake — and inside that
    /// slice, whenever the memory side is *also* quiescent, it computes
    /// the earliest cycle anything can happen and jumps there in one
    /// step, bulk-replaying the per-cycle statistics the skipped ticks
    /// would have recorded.
    ///
    /// L2 misses stalled on a full MSHR bank wait off the event wheel until
    /// a deallocation in their bank, a new capacity limit or a fill of
    /// their line can let them through, and are charged their failed
    /// per-cycle attempts lazily; every waiter is settled before this
    /// returns, so statistics read between calls are exact.
    pub fn run_cycles(&mut self, n: u64) {
        let end = self.now + Cycles::new(n);
        while self.now < end {
            if self.fast_forward {
                if let Some(wake) = self.cores_inert_bound() {
                    // No core can commit or issue before `wake`: run the
                    // memory side alone until then (or until a fill
                    // changes some core's prospects).
                    let slice_end = wake.map_or(end, |w| w.min(end));
                    self.mc_slice(slice_end);
                    continue;
                }
            }
            self.tick();
        }
        let last = self.now.raw().saturating_sub(1);
        for w in &mut self.waiters {
            w.charge_through(last, &mut self.probe_hist, &mut self.mshr_full_retries);
        }
    }

    /// When every core is provably slice-compatible this cycle, returns
    /// the earliest cycle at which any core needs the full loop again —
    /// commit a due `ReadyAt` head, outlast a fetch stall — with inner
    /// `None` meaning every core is blocked until a fill arrives. Returns
    /// outer `None` when some core is active right now.
    ///
    /// Slice-compatible covers two cases: a core with no activity before
    /// `wake`, and a core whose only possible activity is committing while
    /// its front-end refills after a mispredict — commits are a pure
    /// function of the core's own window, replayed bit-identically by
    /// [`Core::note_skipped`], so such a core stays out of the loop until
    /// its fetch stall expires.
    fn cores_inert_bound(&self) -> Option<Option<Cycle>> {
        let now = self.now;
        let mut wake: Option<Cycle> = None;
        let merge = |w: &mut Option<Cycle>, t: Cycle| {
            *w = Some(w.map_or(t, |w: Cycle| w.min(t)));
        };
        for core in &self.cores {
            match core.next_activity(now) {
                Some(t) if t <= now => {
                    let fetch_live_at = core.fetch_stall_until();
                    if fetch_live_at > now {
                        merge(&mut wake, fetch_live_at);
                    } else {
                        return None;
                    }
                }
                Some(t) => merge(&mut wake, t),
                None => {}
            }
        }
        Some(wake)
    }

    /// Runs the memory side of the machine alone until `end`, a proven
    /// bound on the earliest core wake-up. Each cycle either jumps (the
    /// memory side is quiescent too — [`mc_skip_target`]) or runs an
    /// MC-only tick: the full tick minus the core stage, whose effect on
    /// slice-compatible cores is one stall-counter increment each plus, for
    /// a fetch-stalled core, any commits its window allows — both replayed
    /// by [`Core::note_skipped`]. Both forms count as *skipped* cycles —
    /// the full per-cycle loop never ran. The slice ends early when a fill
    /// reaches any core, since that can change the core-side proof.
    ///
    /// [`mc_skip_target`]: System::mc_skip_target
    fn mc_slice(&mut self, end: Cycle) {
        let fills = self.fill_deliveries;
        while self.now < end && self.fill_deliveries == fills {
            if let Some(target) = self.mc_skip_target(end) {
                self.fast_forward_to(target);
            } else {
                let now = self.now;
                self.skipped_cycles += 1;
                for core in &mut self.cores {
                    core.note_skipped(now, 1);
                }
                self.tick_memory(now);
                self.now = now + Cycles::new(1);
                self.events.advance();
            }
        }
    }

    /// When the *memory side* of the machine is provably quiescent at
    /// `self.now`, returns the earliest future cycle (clamped to `end`) at
    /// which it can do anything; `None` when some component is active this
    /// cycle. Every bound mirrors one memory stage of
    /// [`tick`](System::tick): the event wheel, MC completions, MC issue
    /// at the controller clock, send-queue drains, trace sampling, and
    /// dynamic MSHR tuner boundaries. The caller has already bounded
    /// `end` by core activity, so a returned target skips whole-machine
    /// dead time.
    ///
    /// Parked MSHR-full waiters need no bound of their own: they wake only
    /// on an MC completion or a tuner limit change, both bounded here.
    fn mc_skip_target(&self, end: Cycle) -> Option<Cycle> {
        let now = self.now;
        let mut target = end;
        // Checks are ordered cheapest-veto-first; since any veto returns
        // None before `fast_forward_to` runs, the order cannot change
        // what a skip does, only what a refused skip costs.
        if self.events.has_due() {
            return None;
        }
        let divisor = self.mc_clock_divisor;
        for (i, mc) in self.mcs.iter().enumerate() {
            if let Some(t) = mc.next_completion_at() {
                if t <= now {
                    return None;
                }
                target = target.min(t);
            }
            if !self.send_queues[i].is_empty() && mc.can_accept() {
                return None;
            }
            if let Some(ready) = mc.next_issue_ready() {
                // The controller acts on its own clock: round the
                // bank-ready bound up to the next controller edge.
                let edge = ready.max(now).raw().div_ceil(divisor) * divisor;
                if edge <= now.raw() {
                    return None;
                }
                target = target.min(Cycle::new(edge));
            }
        }
        if self.trace.is_some() && self.trace_cfg.samples() {
            let interval = self.trace_cfg.sample_interval.max(1);
            if now.raw().is_multiple_of(interval) {
                return None;
            }
            target = target.min(Cycle::new((now.raw() / interval + 1) * interval));
        }
        if let Some(tuner) = &self.tuner {
            let boundary = tuner.next_boundary();
            if boundary <= now {
                return None;
            }
            target = target.min(boundary);
        }
        // The slot scan is the expensive part, so it runs only once
        // everything else already permits the skip.
        if let Some(t) = self.events.next_event_after_now() {
            target = target.min(t);
        }
        (target > now).then_some(target)
    }

    /// Jumps `self.now` to `target`, replaying in bulk the only effects
    /// the skipped ticks would have had: per-core stall counters and the
    /// per-controller-clock queue-depth samples. Parked MSHR-full waiters
    /// need nothing here; their failed attempts are charged when they
    /// wake or when [`run_cycles`](System::run_cycles) returns.
    fn fast_forward_to(&mut self, target: Cycle) {
        let from = self.now;
        let n = target.raw() - from.raw();
        debug_assert!(n > 0, "skip target must be in the future");
        for core in &mut self.cores {
            core.note_skipped(from, n);
        }
        let divisor = self.mc_clock_divisor;
        let edges = target.raw().div_ceil(divisor) - from.raw().div_ceil(divisor);
        if edges > 0 {
            for mc in &mut self.mcs {
                mc.note_skipped_ticks(edges);
            }
        }
        self.events.advance_by(n);
        self.skipped_cycles += n;
        self.now = target;
    }

    fn schedule(&mut self, at: Cycle, kind: EventKind) {
        self.events.push(at, kind);
    }

    fn tick(&mut self) {
        let now = self.now;
        self.ticked_cycles += 1;

        // 1. Cores issue/commit; their requests enter the L2 pipeline.
        let l2_arrival = now + self.l2_latency;
        let mut buf = std::mem::take(&mut self.req_buf);
        for i in 0..self.cores.len() {
            // A core that provably cannot commit or issue this cycle
            // charges its one stall counter directly (what the full
            // commit/issue walk would do, bit-identically) instead of
            // walking it. Gated on fast-forward so `tick_by_tick` runs
            // remain the naive reference this shortcut is checked against.
            if self.fast_forward && self.cores[i].next_activity(now).is_none_or(|t| t > now) {
                self.cores[i].note_skipped(now, 1);
                continue;
            }
            buf.clear();
            self.cores[i].cycle(now, &mut buf);
            for req in buf.drain(..) {
                self.schedule(l2_arrival, EventKind::L2Access { req, retry: None });
            }
        }
        self.req_buf = buf;

        self.tick_memory(now);

        self.now = now + Cycles::new(1);
        self.events.advance();
    }

    /// Stages 2–7 of [`tick`](System::tick): everything except the cores —
    /// event drain, controller issue/completion, send-queue transfer,
    /// trace sampling, MSHR tuning, and the return of woken MSHR-full
    /// waiters to the event wheel. Shared by the full tick and the
    /// MC-only slice, which replays the core stage's stall counters
    /// instead of running it.
    fn tick_memory(&mut self, now: Cycle) {
        // 2. Handle everything due this cycle. Handlers may schedule more
        // same-cycle events (e.g. a zero-delay MC send), which land back in
        // the live slot — keep draining until it stays empty.
        loop {
            let mut batch = self.events.take_due();
            if batch.is_empty() {
                break;
            }
            for kind in batch.drain(..) {
                match kind {
                    EventKind::L2Access { req, retry } => self.handle_l2_access(req, retry),
                    EventKind::McSend(req) => {
                        self.send_queues[req.location.mc.index()].push(req);
                    }
                    EventKind::CoreFill { line, mut cores } => {
                        for &c in &cores {
                            self.deliver_to_core(c, line);
                        }
                        cores.clear();
                        if self.core_list_pool.len() < CORE_LIST_POOL_CAP {
                            self.core_list_pool.push(cores);
                        }
                    }
                }
            }
            self.events.recycle(batch);
        }
        // Where this cycle's MSHR-full failures would sit in the next
        // slot under per-cycle rescheduling (see stage 7).
        let retry_at = self.events.next_len();

        // 3. Memory controllers issue (at their own clock) and complete.
        if now.raw().is_multiple_of(self.mc_clock_divisor) {
            for mc in &mut self.mcs {
                mc.tick(now);
            }
        }
        let mut completions = std::mem::take(&mut self.completion_buf);
        for i in 0..self.mcs.len() {
            completions.clear();
            self.mcs[i].drain_completions_into(now, &mut completions);
            for c in completions.drain(..) {
                self.handle_completion(c);
            }
        }
        self.completion_buf = completions;

        // 4. Move queued requests into controllers with free MRQ slots.
        for i in 0..self.mcs.len() {
            if self.send_queues[i].is_empty() {
                continue;
            }
            while self.mcs[i].can_accept() {
                let Some(req) = self.send_queues[i].pop() else {
                    break;
                };
                self.mcs[i]
                    .enqueue(req)
                    .expect("routing checked at creation"); // simlint::allow(P002, reason = "the mapper routed this request to MC i at creation, so its queue accepts it")
            }
        }

        // 5. Periodic trace sampling (one discriminant check when off).
        if self.trace.is_some() {
            self.trace_sample(now);
        }

        // 6. Dynamic MSHR capacity tuning (§5.1).
        if let Some(tuner) = &mut self.tuner {
            let committed: u64 = self.cores.iter().map(Core::committed).sum();
            if let Some(limit) = tuner.tick(now, committed) {
                for bank in &mut self.mshr_banks {
                    bank.set_capacity_limit(limit);
                }
                self.woken.append(&mut self.waiters);
            }
        }

        // 7. Waiters a wake source released this cycle failed on every
        // cycle through this one: charge those attempts and put them back
        // on the wheel, in the next slot, where their retries would be.
        if !self.woken.is_empty() {
            for w in &mut self.woken {
                w.charge_through(now.raw(), &mut self.probe_hist, &mut self.mshr_full_retries);
            }
            self.woken.sort_unstable_by_key(|w| w.key.order());
            let requeued = self.woken.drain(..).map(|w| EventKind::L2Access {
                req: w.req,
                retry: Some(w.key),
            });
            self.events.insert_next(retry_at, requeued);
        }
    }

    /// Handles a core request reaching the L2. A miss that finds its MSHR
    /// bank full retries every cycle until it allocates. With fast-forward
    /// on, those retries do not sit on the event wheel: the request parks
    /// on `waiters`, since a failed allocation changes nothing and only
    /// three events can make the next attempt succeed — a deallocation in
    /// its bank, a new capacity limit, or an L2 fill of its own line. The
    /// first of those releases it, the attempts it would have failed in
    /// between are charged in bulk, and it re-enters the wheel where
    /// per-cycle rescheduling would have put it. `tick_by_tick` runs keep
    /// the per-cycle retries as the reference this is checked against.
    fn handle_l2_access(&mut self, req: CoreRequest, retry: Option<RetryKey>) {
        if req.is_writeback {
            self.handle_l1_writeback(req);
            return;
        }
        let line = req.line;
        let hit = if retry.is_some() {
            // Quiet probe: the first attempt already counted the access and
            // trained the prefetchers. The line may have arrived meanwhile
            // through another requester's fill.
            if self.l2.contains(line) {
                if req.is_write {
                    self.l2.mark_dirty(line);
                }
                true
            } else {
                false
            }
        } else {
            self.l2.access(line, req.is_write && !req.is_prefetch) == AccessOutcome::Hit
        };
        if hit {
            // Demand and L1-prefetch requests both have an L1 MSHR entry
            // waiting for the line.
            self.deliver_to_core(req.core, line);
        } else if let Err((bank, probes)) = self.allocate_l2_miss(&req) {
            // MSHR bank full. Every core-originated request — demand or L1
            // prefetch — has an L1 MSHR entry waiting on this line, so it
            // must retry rather than drop (a dropped prefetch would leave
            // its core's entry allocated forever).
            self.mshr_full_retries += 1;
            let key = retry.unwrap_or_else(|| {
                self.retry_seq += 1;
                RetryKey {
                    first_failed: self.now.raw(),
                    seq: self.retry_seq,
                }
            });
            // Parking relies on fresh accesses preceding retries in their
            // slot, which a zero L2 latency would break.
            if self.fast_forward && self.l2_latency > Cycles::ZERO {
                self.waiters.push(Waiter {
                    req,
                    key,
                    bank,
                    probes,
                    charged_through: self.now.raw(),
                });
            } else {
                let at = self.now + Cycles::new(1);
                let retry = Some(key);
                self.schedule(at, EventKind::L2Access { req, retry });
            }
        }
        // The L2 prefetchers observe the demand stream only.
        if retry.is_none() && !req.is_prefetch {
            self.train_l2_prefetchers(req.pc, line);
        }
    }

    /// Interconnect cost for a request from `core` to MC `mc` (zero on the
    /// shipped quad-core machines, which model core/MC adjacency).
    #[inline]
    fn hop_to(&self, core: CoreId, mc: usize) -> Cycles {
        if self.hop_cost.is_empty() {
            Cycles::ZERO
        } else {
            // simlint::allow(P004, reason = "row-major (core, mc) table sized cores*mcs at construction; both factors are in range by construction")
            self.hop_cost[core.index() * self.mcs.len() + mc]
        }
    }

    /// Tries to record the L2 miss of a core request. When its bank is full
    /// the miss is not recorded; the error carries the bank and the probes
    /// the failed attempt cost.
    fn allocate_l2_miss(&mut self, req: &CoreRequest) -> Result<(), (usize, u32)> {
        let line = req.line;
        let target = MissTarget {
            core: req.core,
            token: u64::from(req.is_write) << 1, // bit 0 = L2 origin (clear here)
            is_prefetch: req.is_prefetch,
        };
        let kind = if req.is_write {
            MissKind::Write
        } else {
            MissKind::Read
        };
        let location = self.mapper.decode(line.base());
        let bank = location.mc.index();
        match self.mshr_banks[bank].allocate(line, target, kind, self.now) {
            Ok(outcome) => {
                self.probe_hist.record(outcome.probes() as u64);
                // If an L2 prefetch for this exact line is already in
                // flight, the data is on its way: track the miss but send
                // no duplicate memory request.
                if outcome.is_primary() && !self.pf_inflight[bank].contains(&line) {
                    let mem = MemRequest {
                        line,
                        location,
                        kind: RequestKind::Read,
                        core: target.core,
                        arrival: self.now,
                        token: target.token,
                    };
                    // Charge the extra (beyond-mandatory) probe latency plus
                    // the one-way wire path to memory and any on-die
                    // core→MC hops.
                    let delay = Cycles::new(outcome.probes().saturating_sub(1) as u64)
                        + self.path_latency
                        + self.hop_to(target.core, bank);
                    self.schedule(self.now + delay, EventKind::McSend(mem));
                }
                Ok(())
            }
            Err(e) => {
                self.probe_hist.record(e.probes() as u64);
                Err((bank, e.probes()))
            }
        }
    }

    fn train_l2_prefetchers(&mut self, pc: u64, line: LineAddr) {
        // Reuse one scratch buffer across demand accesses; this runs on
        // every (non-retried) demand reaching the L2.
        let mut candidates = std::mem::take(&mut self.pf_candidates);
        candidates.clear();
        if let Some(pf) = &mut self.l2_nextline {
            pf.observe_into(pc, line, &mut candidates);
        }
        if let Some(pf) = &mut self.l2_stride {
            pf.observe_into(pc, line, &mut candidates);
        }
        for candidate in candidates.drain(..) {
            if self.l2.contains(candidate) {
                continue;
            }
            let location = self.mapper.decode(candidate.base());
            let bank = location.mc.index();
            if self.pf_inflight[bank].contains(&candidate)
                || self.mshr_banks[bank].lookup(candidate).found
            {
                continue; // the line is already on its way
            }
            if self.pf_inflight[bank].len() >= self.pf_cap_per_mc {
                self.dropped_prefetches += 1;
                continue;
            }
            self.pf_inflight[bank].push(candidate);
            let req = MemRequest {
                line: candidate,
                location,
                kind: RequestKind::Read,
                core: CoreId::new(0),
                arrival: self.now,
                token: L2_ORIGIN,
            };
            let at = self.now + self.path_latency;
            self.schedule(at, EventKind::McSend(req));
            self.l2_prefetches_issued += 1;
        }
        self.pf_candidates = candidates;
    }

    fn handle_l1_writeback(&mut self, req: CoreRequest) {
        if self.l2.mark_dirty(req.line) {
            return; // absorbed by the L2
        }
        // Not L2-resident (already evicted): flows straight to memory.
        let location = self.mapper.decode(req.line.base());
        let mem = MemRequest {
            line: req.line,
            location,
            kind: RequestKind::Writeback,
            core: req.core,
            arrival: self.now,
            token: 0,
        };
        let at = self.now + self.path_latency + self.hop_to(req.core, location.mc.index());
        self.schedule(at, EventKind::McSend(mem));
    }

    fn handle_completion(&mut self, completion: Completion) {
        if completion.request.kind == RequestKind::Writeback {
            return;
        }
        let line = completion.request.line;
        let bank = completion.request.location.mc.index();
        let is_l2_prefetch = completion.request.token & L2_ORIGIN != 0;
        if is_l2_prefetch {
            let inflight = &mut self.pf_inflight[bank];
            if let Some(i) = inflight.iter().position(|&l| l == line) {
                inflight.swap_remove(i);
            }
        }
        let dealloc = self.mshr_banks[bank].deallocate(line);
        let Some((entry, probes)) = dealloc else {
            // A prefetch with no demand miss merged behind it: just fill.
            if is_l2_prefetch {
                self.fill_l2(line, completion.request.core);
            } else {
                self.spurious_completions += 1;
            }
            return;
        };
        self.probe_hist.record(probes as u64);
        // A freed entry may admit any request waiting on this bank.
        self.woken
            .extend(self.waiters.extract_if(.., |w| w.bank == bank));
        self.fill_l2(line, completion.request.core);
        // Wake the waiting cores; each core is woken once regardless of how
        // many of its µops merged into the entry. The core list rides inside
        // the `CoreFill` event, which hands its (cleared) vector back to
        // `core_list_pool` once delivered — so in steady state completions
        // recycle warmed-up buffers instead of allocating.
        let mut cores: Vec<CoreId> = self.core_list_pool.pop().unwrap_or_default();
        for t in entry.targets() {
            if !cores.contains(&t.core) {
                cores.push(t.core);
            }
        }
        if !cores.is_empty() {
            let delay =
                Cycles::new(probes.saturating_sub(1) as u64) + self.path_latency + Cycles::new(1);
            self.schedule(self.now + delay, EventKind::CoreFill { line, cores });
        } else if self.core_list_pool.len() < CORE_LIST_POOL_CAP {
            self.core_list_pool.push(cores);
        }
    }

    /// Installs a returned line into the L2, releasing any request parked
    /// on a full MSHR bank for it; a dirty victim flows back to memory as a
    /// writeback.
    fn fill_l2(&mut self, line: LineAddr, core: CoreId) {
        self.woken
            .extend(self.waiters.extract_if(.., |w| w.req.line == line));
        if let Some(victim) = self.l2.fill(line, false) {
            if victim.dirty {
                let location = self.mapper.decode(victim.line.base());
                let mem = MemRequest {
                    line: victim.line,
                    location,
                    kind: RequestKind::Writeback,
                    core,
                    arrival: self.now,
                    token: 0,
                };
                let at = self.now + self.path_latency;
                self.schedule(at, EventKind::McSend(mem));
            }
        }
    }

    fn deliver_to_core(&mut self, core: CoreId, line: LineAddr) {
        self.fill_deliveries += 1;
        if let Some(writeback) = self.cores[core.index()].fill(line) {
            let at = self.now + self.l2_latency;
            self.schedule(
                at,
                EventKind::L2Access {
                    req: writeback,
                    retry: None,
                },
            );
        }
    }

    /// Estimates the total DRAM energy consumed so far under `model`,
    /// summed over every bank of every rank of every controller.
    pub fn dram_energy(&self, model: &stacksim_dram::EnergyModel) -> stacksim_dram::EnergyReport {
        let mut total = stacksim_dram::EnergyReport::default();
        for mc in &self.mcs {
            for rank in mc.ranks() {
                for bank in rank.banks() {
                    total.accumulate(&model.energy_of(bank));
                }
            }
        }
        total
    }

    /// Machine-wide stall breakdown summed over cores: cycles lost to
    /// `(full L1 MSHRs, full reorder window, branch refill)`.
    fn stall_breakdown(&self) -> (u64, u64, u64) {
        self.cores.iter().fold((0, 0, 0), |(m, w, b), core| {
            (
                m + core.mshr_stall_cycles(),
                w + core.window_stall_cycles(),
                b + core.branch_stall_cycles(),
            )
        })
    }

    /// Exports the machine's statistics as a hierarchical [`MetricsSink`]:
    /// system-level counters at the root, with one child per component
    /// (`l2`, `core0..N`, `mc0..M`) that the component writes itself.
    /// Sub-device metrics are dotted names local to their owner's node, so
    /// a lookup like `"mc0.ranks.refreshes"` reads one metric of `mc0`.
    pub fn metrics(&self) -> MetricsSink {
        let mut sink = MetricsSink::new("system");
        sink.counter("cycles", self.now.raw());
        sink.counter("ticked_cycles", self.ticked_cycles);
        sink.counter("skipped_cycles", self.skipped_cycles);
        sink.counter("committed", self.total_committed());
        sink.counter("mshr_full_retries", self.mshr_full_retries);
        let (mshr_s, window_s, branch_s) = self.stall_breakdown();
        sink.counter("mshr_stall_cycles", mshr_s);
        sink.counter("window_stall_cycles", window_s);
        sink.counter("branch_stall_cycles", branch_s);
        sink.counter("dropped_prefetches", self.dropped_prefetches);
        sink.counter("l2_prefetches_issued", self.l2_prefetches_issued);
        sink.counter("spurious_completions", self.spurious_completions);
        if let Some(p) = self.probes_per_access() {
            sink.gauge("mshr_probes_per_access", p);
        }
        let occupancy: usize = self.mshr_banks.iter().map(|b| b.occupancy()).sum();
        sink.counter("mshr_occupancy", occupancy as u64);
        self.l2.write_metrics(sink.child_mut("l2"));
        for core in &self.cores {
            core.write_metrics(sink.child_mut(&format!("core{}", core.id().index())));
        }
        for mc in &self.mcs {
            mc.write_metrics(sink.child_mut(&format!("mc{}", mc.id().index())));
        }
        sink
    }
}

/// Builds one L2 MSHR bank of the requested organization.
fn make_mshr(kind: MshrKind, entries: usize) -> Box<dyn MissHandler> {
    match kind {
        MshrKind::Cam => Box::new(CamMshr::new(entries)),
        MshrKind::DirectLinear => Box::new(DirectMappedMshr::new(entries, ProbeScheme::Linear)),
        MshrKind::DirectQuadratic => {
            Box::new(DirectMappedMshr::new(entries, ProbeScheme::Quadratic))
        }
        MshrKind::Vbf => Box::new(VbfMshr::new(entries)),
        MshrKind::Hierarchical => {
            let banks = 2usize;
            let per_bank = (entries / 4).max(1);
            let shared = (entries - banks * per_bank).max(1);
            Box::new(HierarchicalMshr::new(banks, per_bank, shared))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Machines;
    use stacksim_workload::Instr;

    /// A scripted generator usable from system tests.
    struct Looping {
        instrs: Vec<Instr>,
        pos: usize,
    }

    impl TraceGenerator for Looping {
        fn next_instr(&mut self) -> Instr {
            let i = self.instrs[self.pos % self.instrs.len()];
            self.pos += 1;
            i
        }

        fn name(&self) -> &str {
            "loop"
        }
    }

    fn generators_of(instrs: Vec<Instr>, cores: usize) -> Vec<Box<dyn TraceGenerator>> {
        (0..cores)
            .map(|_| {
                Box::new(Looping {
                    instrs: instrs.clone(),
                    pos: 0,
                }) as Box<dyn TraceGenerator>
            })
            .collect()
    }

    #[test]
    fn compute_only_mix_runs_at_pipeline_speed() {
        let cfg = Machines::builtin().m2d;
        let gens = generators_of(vec![Instr::Compute], 4);
        let mut sys = System::with_generators(&cfg, gens).unwrap();
        sys.run_cycles(1000);
        for i in 0..4 {
            let ipc = sys.core_committed(i) as f64 / 1000.0;
            assert!(ipc > 3.5, "core {i} ipc {ipc}");
        }
    }

    #[test]
    fn memory_traffic_flows_end_to_end() {
        let cfg = Machines::builtin().m3d_fast;
        // Every core streams over disjoint lines.
        let gens: Vec<Box<dyn TraceGenerator>> = (0..4)
            .map(|c| {
                let instrs: Vec<Instr> = (0..4096u64)
                    .map(|i| Instr::Load {
                        pc: 0x100,
                        addr: LineAddr::new(c * 1_000_000 + i).base(),
                    })
                    .collect();
                Box::new(Looping { instrs, pos: 0 }) as Box<dyn TraceGenerator>
            })
            .collect();
        let mut sys = System::with_generators(&cfg, gens).unwrap();
        sys.run_cycles(20_000);
        let stats = sys.metrics();
        assert!(sys.total_committed() > 0, "cores must make progress");
        assert!(stats.get("l2.misses").unwrap() > 0.0, "L2 must miss");
        assert!(
            stats.get("mc0.issued").unwrap() > 0.0,
            "memory must be accessed"
        );
        assert_eq!(stats.get("spurious_completions"), Some(0.0));
    }

    #[test]
    fn mix_construction_and_progress() {
        let cfg = Machines::builtin().m3d_fast;
        let mix = Mix::by_name("VH2").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 1).unwrap();
        sys.run_cycles(10_000);
        assert!(sys.total_committed() > 0);
        // Memory-intensive mix: IPC far below pipeline width.
        let ipc = sys.total_committed() as f64 / (4.0 * 10_000.0);
        assert!(ipc < 3.0, "VH mix cannot run at pipeline speed ({ipc})");
    }

    #[test]
    fn faster_memory_means_more_progress() {
        let mix = Mix::by_name("VH1").unwrap();
        let mut slow = System::for_mix(&Machines::builtin().m2d, mix, 1).unwrap();
        let mut fast = System::for_mix(&Machines::builtin().m3d_fast, mix, 1).unwrap();
        slow.run_cycles(30_000);
        fast.run_cycles(30_000);
        assert!(
            fast.total_committed() > slow.total_committed(),
            "3D-fast {} must beat 2D {}",
            fast.total_committed(),
            slow.total_committed()
        );
    }

    #[test]
    fn quad_mc_spreads_traffic_across_controllers() {
        let cfg = Machines::builtin().quad_mc;
        let mix = Mix::by_name("VH1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 1).unwrap();
        sys.run_cycles(20_000);
        let stats = sys.metrics();
        for mc in 0..4 {
            assert!(
                stats.get(&format!("mc{mc}.issued")).unwrap_or(0.0) > 0.0,
                "mc{mc} idle"
            );
        }
    }

    #[test]
    fn vbf_mshr_system_matches_cam_semantics() {
        let mix = Mix::by_name("H1").unwrap();
        let cam = Machines::builtin().dual_mc;
        let vbf = cam.with_mshr_kind(MshrKind::Vbf);
        let mut sys_cam = System::for_mix(&cam, mix, 5).unwrap();
        let mut sys_vbf = System::for_mix(&vbf, mix, 5).unwrap();
        sys_cam.run_cycles(20_000);
        sys_vbf.run_cycles(20_000);
        // Same workload, same capacity: committed counts must be close
        // (VBF only adds probe latency).
        let a = sys_cam.total_committed() as f64;
        let b = sys_vbf.total_committed() as f64;
        assert!((a - b).abs() / a < 0.2, "cam {a} vs vbf {b}");
        // And the VBF's probe count must be small (paper: ~2.2-2.3).
        let probes = sys_vbf.probes_per_access().unwrap();
        assert!(probes < 4.0, "probes/access {probes}");
    }

    #[test]
    fn generator_count_is_validated() {
        let cfg = Machines::builtin().m2d;
        let gens = generators_of(vec![Instr::Compute], 3);
        assert!(System::with_generators(&cfg, gens).is_err());
    }

    #[test]
    fn stats_record_is_comprehensive() {
        let cfg = Machines::builtin().m3d_fast;
        let mix = Mix::by_name("M1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 2).unwrap();
        sys.run_cycles(5_000);
        let stats = sys.metrics();
        for key in [
            "cycles",
            "committed",
            "l2.hits",
            "core0.committed",
            "mc0.issued",
        ] {
            assert!(stats.get(key).is_some(), "missing stat {key}");
        }
    }

    #[test]
    fn device_event_counts_are_typed_counters() {
        use stacksim_stats::MetricValue;
        let cfg = Machines::builtin().m3d_fast;
        let mix = Mix::by_name("H1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 2).unwrap();
        sys.run_cycles(5_000);
        let stats = sys.metrics();
        for path in [
            "l2.misses",
            "core0.dl1.hits",
            "core0.dtlb.misses",
            "core0.tage.mispredictions",
            "mc0.issued",
            "mc0.ranks.reads",
        ] {
            assert!(
                matches!(stats.get_value(path), Some(MetricValue::Counter(_))),
                "{path} must be a counter"
            );
        }
        for path in ["l2.miss_rate", "mc0.row_hit_rate"] {
            assert!(
                matches!(stats.get_value(path), Some(MetricValue::Gauge(_))),
                "{path} must be a gauge"
            );
        }
    }

    #[test]
    fn tracing_records_streams_without_changing_behaviour() {
        let cfg = Machines::builtin().m3d_fast;
        let mix = Mix::by_name("VH1").unwrap();
        let mut plain = System::for_mix(&cfg, mix, 1).unwrap();
        let mut traced = System::for_mix(&cfg, mix, 1).unwrap();
        let mut tc = TraceConfig::all();
        tc.sample_interval = 256;
        traced.enable_tracing(tc);
        plain.run_cycles(20_000);
        traced.run_cycles(20_000);
        // Tracing must be purely observational.
        assert_eq!(plain.total_committed(), traced.total_committed());
        let trace = traced.take_trace().unwrap();
        assert!(
            !trace.dram_cmds.iter().all(Vec::is_empty),
            "commands traced"
        );
        assert!(!trace.mshr_occupancy.is_empty(), "occupancy sampled");
        assert!(!trace.mc_queue_depth.is_empty(), "queue depth sampled");
        // Command stream is time-ordered per (rank, bank): commands carry
        // their real issue times, so streams of different banks interleave
        // but each bank's own sequence is monotonic.
        for cmds in &trace.dram_cmds {
            let mut last = std::collections::HashMap::new();
            for c in cmds {
                let prev = last.insert((c.rank, c.bank), c.at);
                assert!(
                    prev.is_none_or(|p| p <= c.at),
                    "bank stream went backwards: {c}"
                );
            }
        }
        // The untraced system yields no trace.
        assert_eq!(plain.take_trace(), None);
        // A second take returns only newer events.
        let again = traced.take_trace().unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn dynamic_tuner_adjusts_limits() {
        use stacksim_mshr::TunerConfig;
        let cfg = Machines::builtin()
            .dual_mc
            .with_mshr_scale(8)
            .with_dynamic_mshr(TunerConfig {
                sample_cycles: 500,
                apply_cycles: 5_000,
                divisors: vec![1, 2, 4],
            });
        let mix = Mix::by_name("VH1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 3).unwrap();
        sys.run_cycles(10_000);
        // The machine survives retuning and keeps committing.
        assert!(sys.total_committed() > 0);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::scenario::Machines;

    #[test]
    #[ignore = "diagnostic"]
    fn skip_veto_probe() {
        let m = Machines::builtin();
        let probes: Vec<(&str, SystemConfig, &str)> = vec![
            ("2d/VH1", m.m2d, "VH1"),
            ("3dfast/VH1", m.m3d_fast, "VH1"),
            ("quad/VH1", m.quad_mc.clone(), "VH1"),
            ("quad/H2", m.quad_mc, "H2"),
            ("dual/HM1", m.dual_mc, "HM1"),
        ];
        for (label, cfg, mix_name) in probes {
            let mix = Mix::by_name(mix_name).unwrap();
            let mut sys = System::for_mix(&cfg, mix, 0xC0FFEE).unwrap();
            let end = Cycle::new(70_000);
            let mut jumpable = 0u64;
            let mut mc_only = 0u64;
            let mut active_hist = [0u64; 5];
            while sys.now < end {
                let now = sys.now;
                match sys.cores_inert_bound() {
                    Some(wake) => {
                        let slice_end = wake.map_or(end, |w| w.min(end));
                        if sys.mc_skip_target(slice_end).is_some() {
                            jumpable += 1;
                        } else {
                            mc_only += 1;
                        }
                    }
                    None => {
                        let active = sys
                            .cores
                            .iter()
                            .filter(|c| c.next_activity(now).is_some_and(|t| t <= now))
                            .count();
                        active_hist[active.min(4)] += 1;
                    }
                }
                sys.set_fast_forward(false);
                sys.tick();
                sys.set_fast_forward(true);
            }
            println!("=== {label} ===");
            println!("jumpable-this-cycle: {jumpable}");
            println!("mc-slice-this-cycle: {mc_only}");
            println!("vetoed-by-active-core-count [1..=4 of 5 bins]: {active_hist:?}");
        }
    }

    #[test]
    #[ignore = "diagnostic"]
    fn timeline_probe() {
        let cfg = Machines::builtin().m3d_fast;
        let mix = Mix::by_name("VH1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 1).unwrap();
        for step in 0..60 {
            sys.run_cycles(500);
            let occ: usize = sys.mshr_banks.iter().map(|b| b.occupancy()).sum();
            let sq: usize = sys
                .send_queues
                .iter()
                .map(|q| q.demand.len() + q.writeback.len() + q.prefetch.len())
                .sum();
            let pf: Vec<usize> = sys.pf_inflight.iter().map(|p| p.len()).collect();
            let occs: Vec<usize> = sys.mshr_banks.iter().map(|b| b.occupancy()).collect();
            println!("   pf={pf:?} occs={occs:?}");
            let mrq: usize = sys.mcs.iter().map(|m| m.queue_len()).sum();
            let ev = sys.events.len();
            println!(
                "t={} occ={occ} sendq={sq} mrq={mrq} events={ev} committed={} retries={} outstanding_core0={} window0={}",
                (step + 1) * 500,
                sys.total_committed(),
                sys.mshr_full_retries,
                sys.cores[0].outstanding_misses(),
                sys.cores[0].window_occupancy(),
            );
        }
    }
}
