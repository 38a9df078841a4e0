//! The core: issue, reorder window, DL1, L1 MSHRs, prefetchers, commit.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use stacksim_cache::{
    AccessOutcome, NextLinePrefetcher, Prefetcher, SetAssocCache, StridePrefetcher,
};
use stacksim_mshr::{CamMshr, MissHandler, MissKind, MissTarget};
use stacksim_stats::MetricsSink;
use stacksim_types::{CoreId, Cycle, Cycles, LineAddr};
use stacksim_vm::{PageAllocator, Tlb, TlbConfig, TlbOutcome, VirtAddr};
use stacksim_workload::{Instr, InstrBlock, TraceGenerator};

use crate::branch::Tage;
use crate::config::CoreConfig;
use crate::request::CoreRequest;

/// State of one reorder-window slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// The µop has executed; it can commit once it reaches the head.
    Done,
    /// The µop waits on a line fill.
    Waiting(LineAddr),
    /// The µop completes at a known future cycle (TLB page walk).
    ReadyAt(Cycle),
}

/// The reorder window: a fixed-capacity power-of-two ring of [`Slot`]s.
///
/// The window only ever commits from the head and appends at the tail, so
/// a masked-index ring replaces the previous `VecDeque` — same observable
/// behavior, but the slot a µop lands in is one store with no
/// capacity/wrap bookkeeping on the hot path. Capacity is rounded up to a
/// power of two; the *logical* window limit stays wherever the owner
/// enforces it (the `config.window` check in `issue`).
#[derive(Debug)]
struct SlotRing {
    buf: Box<[Slot]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl SlotRing {
    fn with_capacity(capacity: usize) -> SlotRing {
        let cap = capacity.next_power_of_two().max(1);
        SlotRing {
            buf: vec![Slot::Done; cap].into_boxed_slice(),
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    const fn len(&self) -> usize {
        self.len
    }

    const fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn front(&self) -> Option<&Slot> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty window");
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Ring index the next [`push_back`](SlotRing::push_back) lands in.
    #[inline]
    const fn tail(&self) -> usize {
        (self.head + self.len) & self.mask
    }

    #[inline]
    fn push_back(&mut self, slot: Slot) {
        debug_assert!(self.len <= self.mask, "window ring overfilled");
        self.buf[self.tail()] = slot;
        self.len += 1;
    }

    /// Marks the slot at ring index `i`, waiting on `line`, done. A slot
    /// never moves while it waits: it can only commit once it is done.
    #[inline]
    fn wake(&mut self, i: usize, line: LineAddr) {
        debug_assert_eq!(
            self.buf[i],
            Slot::Waiting(line),
            "woke a slot not waiting on the line"
        );
        self.buf[i] = Slot::Done;
    }
}

/// Per-core virtual-memory state: the DTLB plus a handle on the machine's
/// shared FCFS page allocator.
struct CoreVm {
    tlb: Tlb,
    allocator: Rc<RefCell<PageAllocator>>,
    asid: u16,
}

/// One simulated core.
///
/// See the crate documentation for the execution model. The owner must:
///
/// 1. call [`cycle`](Core::cycle) once per CPU cycle, forwarding the
///    produced [`CoreRequest`]s to the shared L2;
/// 2. call [`fill`](Core::fill) when a previously requested line returns,
///    forwarding any returned writeback request to the L2.
pub struct Core {
    id: CoreId,
    config: CoreConfig,
    generator: Box<dyn TraceGenerator>,
    /// Batched fetch buffer: the generator refills a whole block per
    /// virtual call; the fetch path drains it through a bump cursor. The
    /// observable µop sequence is identical to per-instruction pulls
    /// (generators run ahead, but they are pure sources — no simulation
    /// state feeds back into them).
    block: InstrBlock,
    /// Misprediction verdicts for the branches of the current block, in
    /// block order, resolved in one TAGE pass at refill time (the block is
    /// a pure source, so predictor state is a function of the branch
    /// sequence alone). `branch_cursor` tracks consumption at issue.
    branch_flags: Vec<bool>,
    branch_cursor: usize,
    dl1: SetAssocCache,
    mshr: CamMshr,
    nextline: Option<NextLinePrefetcher>,
    stride: Option<StridePrefetcher>,
    /// Scratch buffer for prefetch candidates, reused across accesses so
    /// the per-demand-access training loop never allocates.
    pf_buf: Vec<LineAddr>,
    window: SlotRing,
    stalled_instr: Option<(Instr, LineAddr)>,
    vm: Option<CoreVm>,
    tage: Option<Tage>,
    fetch_stall_until: Cycle,
    /// Memoized [`next_activity`](Core::next_activity) bound (absolute,
    /// un-clamped). `None` = stale; recomputed lazily and invalidated by
    /// the only two mutation paths, [`cycle`](Core::cycle) and
    /// [`fill`](Core::fill).
    activity_bound: Cell<Option<Option<Cycle>>>,
    committed: u64,
    // Statistics.
    mshr_stall_cycles: u64,
    window_stall_cycles: u64,
    branch_stall_cycles: u64,
    prefetches_issued: u64,
    prefetches_dropped: u64,
    spurious_fills: u64,
}

impl Core {
    /// Creates a core running `generator`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CoreConfig::validate`]).
    pub fn new(id: CoreId, config: CoreConfig, generator: Box<dyn TraceGenerator>) -> Self {
        config.validate();
        let tage = config.branch.clone().map(Tage::new);
        Core {
            id,
            generator,
            block: InstrBlock::default(),
            branch_flags: Vec::new(),
            branch_cursor: 0,
            dl1: SetAssocCache::new(config.dl1),
            mshr: CamMshr::new(config.l1_mshrs),
            nextline: (config.nextline_degree > 0)
                .then(|| NextLinePrefetcher::new(config.nextline_degree)),
            stride: (config.stride_entries > 0)
                .then(|| StridePrefetcher::new(config.stride_entries, 1)),
            pf_buf: Vec::new(),
            window: SlotRing::with_capacity(config.window),
            config,
            stalled_instr: None,
            vm: None,
            tage,
            fetch_stall_until: Cycle::ZERO,
            activity_bound: Cell::new(None),
            committed: 0,
            mshr_stall_cycles: 0,
            window_stall_cycles: 0,
            branch_stall_cycles: 0,
            prefetches_issued: 0,
            prefetches_dropped: 0,
            spurious_fills: 0,
        }
    }

    /// Attaches virtual memory: the core's program now emits *virtual*
    /// addresses, translated through a private DTLB and the machine's
    /// shared first-come-first-serve [`PageAllocator`] under address space
    /// `asid`. TLB misses charge the configured page-walk latency.
    pub fn attach_vm(
        &mut self,
        config: TlbConfig,
        allocator: Rc<RefCell<PageAllocator>>,
        asid: u16,
    ) {
        self.vm = Some(CoreVm {
            tlb: Tlb::new(config),
            allocator,
            asid,
        });
    }

    /// This core's identifier.
    pub const fn id(&self) -> CoreId {
        self.id
    }

    /// The running program's name.
    pub fn program(&self) -> &str {
        self.generator.name()
    }

    /// µops committed so far.
    pub const fn committed(&self) -> u64 {
        self.committed
    }

    /// Simulates one cycle: commits from the window head, then issues new
    /// µops. Demand misses and prefetches are appended to `requests` for
    /// the owner to route to the L2.
    pub fn cycle(&mut self, now: Cycle, requests: &mut Vec<CoreRequest>) {
        self.activity_bound.set(None);
        self.commit(now);
        self.issue(now, requests);
    }

    fn commit(&mut self, now: Cycle) {
        for _ in 0..self.config.commit_width {
            let ready = match self.window.front() {
                Some(Slot::Done) => true,
                Some(Slot::ReadyAt(t)) => *t <= now,
                _ => false,
            };
            if !ready {
                break;
            }
            self.window.pop_front();
            self.committed += 1;
        }
    }

    /// Replays the commits the per-cycle loop would have performed over the
    /// `n` fetch-stalled cycles starting at `from`. With issue silenced the
    /// window evolves only through [`commit`](Core::commit), a pure function
    /// of the window itself, so walking the poppable cycles reproduces the
    /// committed count bit-identically. Cycles whose head is not yet ready
    /// are stepped over in one bound.
    fn replay_commits(&mut self, from: Cycle, n: u64) {
        let mut c = 0;
        let mut popped = false;
        while c < n {
            match self.window.front() {
                Some(Slot::Done) => {}
                Some(Slot::ReadyAt(t)) if t.raw() <= from.raw() + c => {}
                Some(Slot::ReadyAt(t)) if t.raw() < from.raw() + n => {
                    c = t.raw() - from.raw();
                    continue;
                }
                _ => break,
            }
            self.commit(Cycle::new(from.raw() + c));
            popped = true;
            c += 1;
        }
        if popped {
            self.activity_bound.set(None);
        }
    }

    fn issue(&mut self, now: Cycle, requests: &mut Vec<CoreRequest>) {
        if now < self.fetch_stall_until {
            // The front-end is refilling after a branch misprediction.
            self.branch_stall_cycles += 1;
            return;
        }
        for _ in 0..self.config.issue_width {
            if self.window.len() >= self.config.window {
                self.window_stall_cycles += 1;
                return;
            }
            let resumed = self.stalled_instr.is_some();
            let (instr, stalled_line) = match self.stalled_instr.take() {
                Some((i, line)) => (i, Some(line)),
                None => {
                    let instr = match self.block.take() {
                        Some(i) => i,
                        None => {
                            self.refill_block();
                            // simlint::allow(P002, reason = "refill fills the block to its capacity, which is validated non-zero at construction")
                            self.block.take().expect("a refilled block is non-empty")
                        }
                    };
                    (instr, None)
                }
            };
            match instr {
                Instr::Compute => self.window.push_back(Slot::Done),
                Instr::Branch { .. } => {
                    let Some(tage) = &mut self.tage else {
                        self.window.push_back(Slot::Done);
                        continue;
                    };
                    // The verdict was resolved in block order at refill
                    // time; consume it and charge the statistics now, at
                    // the cycle the per-µop walk would have.
                    let mispredicted = self.branch_flags[self.branch_cursor];
                    self.branch_cursor += 1;
                    tage.note_outcome(mispredicted);
                    if mispredicted {
                        // Mispredicted: the branch resolves after the
                        // pipeline refill, and fetch stalls until then.
                        let resolve = now + Cycles::new(tage.penalty());
                        self.window.push_back(Slot::ReadyAt(resolve));
                        self.fetch_stall_until = resolve;
                        return;
                    }
                    self.window.push_back(Slot::Done);
                }
                Instr::Load { pc, addr } | Instr::Store { pc, addr } => {
                    let is_write = instr.is_store();
                    if resumed {
                        // A µop retrying after an MSHR-full stall: it was
                        // already counted, translated, and already trained
                        // the prefetchers; probe quietly.
                        let line = stalled_line.expect("stalled memory op kept its line"); // simlint::allow(P002, reason = "a resumed uop is re-probed only after an MSHR-full stall recorded its line")
                        if self.dl1.contains(line) {
                            self.window.push_back(Slot::Done);
                        } else if !self.try_miss(line, pc, is_write, requests) {
                            self.stalled_instr = Some((instr, line));
                            self.mshr_stall_cycles += 1;
                            return;
                        }
                        continue;
                    }
                    // Translate (virtual machines only); caches are
                    // physically tagged.
                    let (line, walk) = self.translate(addr);
                    match self.dl1.access(line, is_write) {
                        AccessOutcome::Hit => match walk {
                            // The page walk is the critical path of an
                            // L1 hit; longer-latency misses overlap it.
                            Some(w) => self.window.push_back(Slot::ReadyAt(now + w)),
                            None => self.window.push_back(Slot::Done),
                        },
                        AccessOutcome::Miss => {
                            if !self.try_miss(line, pc, is_write, requests) {
                                // L1 MSHRs exhausted: hold the µop and stop
                                // issuing for this cycle.
                                self.stalled_instr = Some((instr, line));
                                self.mshr_stall_cycles += 1;
                                return;
                            }
                        }
                    }
                    self.train_prefetchers(pc, line, requests);
                }
            }
        }
    }

    /// Refills the fetch block and resolves its branches through TAGE in
    /// one pass. Branches are consumed strictly in block order (a branch
    /// never parks in `stalled_instr`), and the predictor's tables are a
    /// pure function of the branch sequence, so resolving a whole block
    /// ahead of issue yields bit-identical verdicts while paying the
    /// table-walk cost once per block instead of once per µop. Statistics
    /// are charged per *issued* branch in `issue`, keeping counts exact
    /// even when a run ends mid-block.
    fn refill_block(&mut self) {
        self.generator.refill(&mut self.block);
        let Some(tage) = &mut self.tage else {
            return;
        };
        self.branch_flags.clear();
        self.branch_cursor = 0;
        for instr in self.block.pending() {
            if let Instr::Branch { pc, taken } = *instr {
                self.branch_flags.push(tage.process(pc, taken));
            }
        }
    }

    /// Translates a program address to a physical line. Returns the page
    /// walk penalty when the DTLB missed.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted (the configured footprints
    /// are validated to fit).
    fn translate(&mut self, addr: stacksim_types::PhysAddr) -> (LineAddr, Option<Cycles>) {
        let Some(vm) = &mut self.vm else {
            return (addr.line(), None);
        };
        let vaddr = VirtAddr::new(addr.raw());
        let walk = match vm.tlb.access(vaddr.vpage()) {
            TlbOutcome::Hit => None,
            TlbOutcome::Miss { walk } => Some(walk),
        };
        let paddr = vm
            .allocator
            .borrow_mut()
            .translate(vm.asid, vaddr)
            .expect("physical memory exhausted; grow the machine's memory"); // simlint::allow(P002, reason = "physical memory is sized to cover every mix footprint; exhaustion is a config bug worth stopping on")
        (paddr.line(), walk)
    }

    /// Records a demand miss. Returns `false` if the MSHR file is full.
    fn try_miss(
        &mut self,
        line: LineAddr,
        pc: u64,
        is_write: bool,
        requests: &mut Vec<CoreRequest>,
    ) -> bool {
        // The token names the window slot the µop will wait in, so the fill
        // wakes exactly that slot, and its low bit carries write intent so
        // the fill knows whether to install the line dirty.
        let slot = self.window.tail() as u64;
        let token = (slot << 1) | u64::from(is_write);
        let target = MissTarget::demand(self.id, token);
        let kind = if is_write {
            MissKind::Write
        } else {
            MissKind::Read
        };
        match self.mshr.allocate(line, target, kind, Cycle::ZERO) {
            Ok(outcome) => {
                self.window.push_back(Slot::Waiting(line));
                if outcome.is_primary() {
                    requests.push(CoreRequest::demand(self.id, line, pc, is_write));
                }
                true
            }
            Err(_) => false,
        }
    }

    fn train_prefetchers(&mut self, pc: u64, line: LineAddr, requests: &mut Vec<CoreRequest>) {
        let mut candidates = std::mem::take(&mut self.pf_buf);
        candidates.clear();
        if let Some(pf) = &mut self.nextline {
            pf.observe_into(pc, line, &mut candidates);
        }
        if let Some(pf) = &mut self.stride {
            pf.observe_into(pc, line, &mut candidates);
        }
        for target_line in candidates.drain(..) {
            if self.dl1.contains(target_line) || self.mshr.lookup(target_line).found {
                continue;
            }
            if self.mshr.is_full() {
                self.prefetches_dropped += 1;
                continue;
            }
            // No µop waits on a prefetch: its token names no slot, and its
            // clear low bit installs the line clean.
            let target = MissTarget::prefetch(self.id, 0);
            self.mshr
                .allocate(target_line, target, MissKind::Read, Cycle::ZERO)
                .expect("mshr has room"); // simlint::allow(P002, reason = "prefetch issue is gated on MSHR headroom checked just above")
            requests.push(CoreRequest::prefetch(self.id, target_line));
            self.prefetches_issued += 1;
        }
        self.pf_buf = candidates;
    }

    /// Delivers a line fill from the memory system: wakes the window slot
    /// of every demand target merged into the line's MSHR entry (each
    /// `Waiting(line)` slot has exactly one), installs the line into the
    /// DL1, and — if a dirty victim was evicted — returns the writeback
    /// request the owner must route to the L2.
    pub fn fill(&mut self, line: LineAddr) -> Option<CoreRequest> {
        self.activity_bound.set(None);
        let Some((entry, _)) = self.mshr.deallocate(line) else {
            self.spurious_fills += 1;
            return None;
        };
        let mut dirty = false;
        for t in entry.targets() {
            dirty |= t.token & 1 == 1;
            if !t.is_prefetch {
                self.window.wake((t.token >> 1) as usize, line);
            }
        }
        let victim = self.dl1.fill(line, dirty)?;
        victim
            .dirty
            .then(|| CoreRequest::writeback(self.id, victim.line))
    }

    /// The earliest cycle at or after `now` at which this core can make
    /// progress (commit or issue anything), or `None` if it is blocked
    /// until a [`fill`](Core::fill) arrives. `Some(now)` means the core is
    /// active this cycle and its owner must not fast-forward past it.
    ///
    /// Mirrors the order of checks in the cycle loop exactly: a `Done` or
    /// due `ReadyAt` head commits; a non-full window with no stalled µop
    /// always fetches fresh work once any fetch stall expires; a µop
    /// stalled on a full L1 MSHR resumes only when its line arrived, its
    /// line gained an entry, or an entry freed up — all of which happen in
    /// `fill`, so a blocked verdict stays valid until then.
    ///
    /// The answer is memoized as an absolute (un-clamped) bound: every
    /// input is mutated only by [`cycle`](Core::cycle) and
    /// [`fill`](Core::fill), which invalidate it, so the owner's per-cycle
    /// probes between those events cost one cached read. Clamping commutes
    /// with the merge (`max(min(a, b), now) == min(max(a, now),
    /// max(b, now))`), so the clamped-per-source original and this
    /// clamp-once form agree everywhere.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let bound = match self.activity_bound.get() {
            Some(b) => b,
            None => {
                let b = self.activity_bound_uncached();
                self.activity_bound.set(Some(b));
                b
            }
        };
        bound.map(|t| t.max(now))
    }

    /// The earliest cycle at which anything can happen, un-clamped (a
    /// bound in the past means "active whenever asked").
    fn activity_bound_uncached(&self) -> Option<Cycle> {
        let commit_at = match self.window.front() {
            Some(Slot::Done) => Some(Cycle::ZERO),
            Some(Slot::ReadyAt(t)) => Some(*t),
            Some(Slot::Waiting(_)) | None => None,
        };
        let issue_at = if self.window.len() >= self.config.window {
            None // issue is gated on commit draining the window
        } else if let Some((_, line)) = &self.stalled_instr {
            let unblocked = self.dl1.contains(*line)
                || self.mshr.entry(*line).is_some()
                || !self.mshr.is_full();
            unblocked.then_some(self.fetch_stall_until)
        } else {
            Some(self.fetch_stall_until) // the generator always has another µop
        };
        match (commit_at, issue_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => None,
        }
    }

    /// The cycle until which fetch stalls refilling after a mispredict
    /// (`<= now` means fetch is live). While this lies in the future the
    /// core cannot issue, so its only possible activity is committing —
    /// a pure function of its own window that
    /// [`note_skipped`](Core::note_skipped) replays exactly.
    pub const fn fetch_stall_until(&self) -> Cycle {
        self.fetch_stall_until
    }

    /// Accounts for `n` skipped cycles starting at `from`, during which the
    /// owner proved (via [`next_activity`](Core::next_activity)) that this
    /// core could not issue — though it may still commit while
    /// fetch-stalled, which is replayed here cycle-exactly. Replays the
    /// stall counters the per-cycle loop would have incremented: `issue`
    /// charges a branch stall while the front-end refills, otherwise a
    /// window stall when the window is full, otherwise an MSHR stall on
    /// the held µop.
    pub fn note_skipped(&mut self, from: Cycle, n: u64) {
        let from_raw = from.raw();
        let branch = self.fetch_stall_until.raw().clamp(from_raw, from_raw + n) - from_raw;
        self.branch_stall_cycles += branch;
        if branch > 0 {
            self.replay_commits(from, branch);
        }
        let rest = n - branch;
        if rest == 0 {
            return;
        }
        if self.window.len() >= self.config.window {
            self.window_stall_cycles += rest;
        } else {
            debug_assert!(
                self.stalled_instr.is_some(),
                "a skipped core must be fetch-stalled, window-full or MSHR-stalled"
            );
            self.mshr_stall_cycles += rest;
        }
    }

    /// Cycles issue stalled on a full L1 MSHR file.
    pub const fn mshr_stall_cycles(&self) -> u64 {
        self.mshr_stall_cycles
    }

    /// Cycles issue stalled on a full reorder window.
    pub const fn window_stall_cycles(&self) -> u64 {
        self.window_stall_cycles
    }

    /// Cycles fetch stalled refilling after a branch misprediction.
    pub const fn branch_stall_cycles(&self) -> u64 {
        self.branch_stall_cycles
    }

    /// Outstanding L1 misses.
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.occupancy()
    }

    /// Occupied reorder-window slots.
    pub fn window_occupancy(&self) -> usize {
        self.window.len()
    }

    /// Whether the core is completely drained (useful in tests).
    pub fn is_idle(&self) -> bool {
        self.window.is_empty() && self.mshr.occupancy() == 0
    }

    /// Writes the core's counters, and those of its DL1, DTLB and TAGE
    /// predictor under `dl1.`, `dtlb.` and `tage.` names, into its metrics
    /// node.
    pub fn write_metrics(&self, node: &mut MetricsSink) {
        node.counter("committed", self.committed);
        node.counter("mshr_stall_cycles", self.mshr_stall_cycles);
        node.counter("window_stall_cycles", self.window_stall_cycles);
        node.counter("prefetches_issued", self.prefetches_issued);
        node.counter("prefetches_dropped", self.prefetches_dropped);
        node.counter("spurious_fills", self.spurious_fills);
        node.counter("dl1.hits", self.dl1.hits());
        node.counter("dl1.misses", self.dl1.misses());
        node.counter("dl1.fills", self.dl1.fills());
        node.counter("dl1.writebacks", self.dl1.writebacks());
        if let Some(rate) = self.dl1.miss_rate() {
            node.gauge("dl1.miss_rate", rate);
        }
        node.counter("branch_stall_cycles", self.branch_stall_cycles);
        if let Some(vm) = &self.vm {
            node.counter("dtlb.hits", vm.tlb.hits());
            node.counter("dtlb.misses", vm.tlb.misses());
            if let Some(rate) = vm.tlb.miss_rate() {
                node.gauge("dtlb.miss_rate", rate);
            }
        }
        if let Some(tage) = &self.tage {
            node.counter("tage.predictions", tage.predictions());
            node.counter("tage.mispredictions", tage.mispredictions());
            if let Some(mpki) = tage.mpki() {
                node.gauge("tage.mispredicts_per_kilo", mpki);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_types::Cycles;

    /// A scripted generator for deterministic core tests.
    struct Script {
        instrs: Vec<Instr>,
        pos: usize,
    }

    impl Script {
        fn new(instrs: Vec<Instr>) -> Self {
            Script { instrs, pos: 0 }
        }
    }

    impl TraceGenerator for Script {
        fn next_instr(&mut self) -> Instr {
            let i = self.instrs[self.pos % self.instrs.len()];
            self.pos += 1;
            i
        }

        fn name(&self) -> &str {
            "script"
        }
    }

    fn load(line: u64) -> Instr {
        Instr::Load {
            pc: 0x100,
            addr: stacksim_types::LineAddr::new(line).base(),
        }
    }

    fn store(line: u64) -> Instr {
        Instr::Store {
            pc: 0x200,
            addr: stacksim_types::LineAddr::new(line).base(),
        }
    }

    fn bare_core(instrs: Vec<Instr>) -> Core {
        let cfg = CoreConfig::penryn().without_prefetchers();
        Core::new(CoreId::new(0), cfg, Box::new(Script::new(instrs)))
    }

    #[test]
    fn compute_only_commits_at_full_width() {
        let mut core = bare_core(vec![Instr::Compute]);
        let mut reqs = Vec::new();
        let mut now = Cycle::ZERO;
        for _ in 0..100 {
            core.cycle(now, &mut reqs);
            now += Cycles::new(1);
        }
        // Width 4, but commit trails issue by one cycle.
        assert!(core.committed() >= 4 * 99 - 4);
        assert!(reqs.is_empty());
    }

    #[test]
    fn miss_emits_one_demand_request_and_blocks_commit() {
        let mut core = bare_core(vec![load(5), Instr::Compute]);
        let mut reqs = Vec::new();
        core.cycle(Cycle::ZERO, &mut reqs);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].line, LineAddr::new(5));
        assert!(!reqs[0].is_prefetch);
        // Until the fill arrives, nothing commits (the miss is at the head).
        for c in 1..50u64 {
            core.cycle(Cycle::new(c), &mut reqs);
        }
        assert_eq!(core.committed(), 0);
        // Fill: the window drains.
        assert!(core.fill(LineAddr::new(5)).is_none());
        core.cycle(Cycle::new(50), &mut reqs);
        assert!(core.committed() > 0);
    }

    #[test]
    fn secondary_miss_merges_without_new_request() {
        // Two loads to the same line back to back.
        let mut core = bare_core(vec![load(7), load(7), Instr::Compute]);
        let mut reqs = Vec::new();
        core.cycle(Cycle::ZERO, &mut reqs);
        let demand: Vec<_> = reqs.iter().filter(|r| !r.is_prefetch).collect();
        assert_eq!(demand.len(), 1, "secondary miss must merge");
        assert_eq!(core.outstanding_misses(), 1);
    }

    #[test]
    fn mshr_exhaustion_stalls_issue() {
        // Endless stream of misses to distinct lines.
        let instrs: Vec<Instr> = (0..4096).map(|i| load(i * 2)).collect();
        let mut core = bare_core(instrs);
        let mut reqs = Vec::new();
        for c in 0..100u64 {
            core.cycle(Cycle::new(c), &mut reqs);
        }
        // Exactly 8 L1 MSHRs: never more outstanding, and requests stop.
        assert_eq!(core.outstanding_misses(), 8);
        assert_eq!(reqs.iter().filter(|r| !r.is_prefetch).count(), 8);
        assert!(core.mshr_stall_cycles() > 0);
    }

    #[test]
    fn window_fills_behind_long_miss() {
        // One miss, then endless compute: the window fills to capacity and
        // issue stalls (in-order commit blocks behind the miss).
        let mut instrs = vec![load(3)];
        instrs.extend(std::iter::repeat_n(Instr::Compute, 500));
        let mut core = bare_core(instrs);
        let mut reqs = Vec::new();
        for c in 0..200u64 {
            core.cycle(Cycle::new(c), &mut reqs);
        }
        assert_eq!(core.window_occupancy(), 96);
        assert!(core.window_stall_cycles() > 0);
        assert_eq!(core.committed(), 0);
    }

    #[test]
    fn store_miss_installs_dirty_and_writes_back() {
        let mut core = bare_core(vec![store(1), Instr::Compute]);
        let mut reqs = Vec::new();
        core.cycle(Cycle::ZERO, &mut reqs);
        assert!(core.fill(LineAddr::new(1)).is_none());
        // Evict line 1 by filling its set with conflicting lines; the DL1
        // has 32 sets, so lines 1 + 32k conflict. 12 ways -> fill 12 more.
        for k in 1..=12u64 {
            let victim = core.fill_for_test(LineAddr::new(1 + 32 * k));
            if let Some(wb) = victim {
                assert!(wb.is_writeback);
                assert_eq!(wb.line, LineAddr::new(1));
                return;
            }
        }
        panic!("dirty line was never evicted");
    }

    #[test]
    fn prefetcher_emits_nextline_requests() {
        let cfg = CoreConfig::penryn(); // prefetchers on
        let instrs: Vec<Instr> = (0..64).map(load).collect();
        let mut core = Core::new(CoreId::new(0), cfg, Box::new(Script::new(instrs)));
        let mut reqs = Vec::new();
        core.cycle(Cycle::ZERO, &mut reqs);
        assert!(
            reqs.iter().any(|r| r.is_prefetch),
            "next-line prefetch expected"
        );
    }

    #[test]
    fn fill_wakes_exactly_the_waiting_slots_across_ring_wraps() {
        // Two loads per line merge demand targets; the next-line prefetcher
        // runs ahead, so the load of the odd line merges into its entry.
        let mut instrs = Vec::new();
        for k in 0..2048u64 {
            instrs.extend([load(2 * k), load(2 * k), Instr::Compute]);
            instrs.extend([store(2 * k + 1), Instr::Compute, Instr::Compute]);
        }
        let mut core = Core::new(
            CoreId::new(0),
            CoreConfig::penryn(),
            Box::new(Script::new(instrs)),
        );
        let mut reqs = Vec::new();
        let mut outstanding = std::collections::VecDeque::new();
        let (mut wraps, mut mixed_fills) = (0, 0);
        for c in 0..20_000u64 {
            core.cycle(Cycle::new(c), &mut reqs);
            outstanding.extend(reqs.drain(..).filter(|r| !r.is_writeback).map(|r| r.line));
            if c % 3 != 0 {
                continue;
            }
            let Some(line) = outstanding.pop_front() else {
                continue;
            };
            let ring = &core.window;
            let occupied: Vec<usize> = (0..ring.len).map(|i| (ring.head + i) & ring.mask).collect();
            let before = ring.buf.to_vec();
            wraps += usize::from(ring.head + ring.len > ring.buf.len());
            let targets = core
                .mshr
                .entry(line)
                .map(|e| e.targets().to_vec())
                .unwrap_or_default();
            if targets.iter().any(|t| t.is_prefetch) && targets.iter().any(|t| !t.is_prefetch) {
                mixed_fills += 1;
            }
            core.fill(line);
            for (i, (was, now)) in before.iter().zip(core.window.buf.iter()).enumerate() {
                let woken = occupied.contains(&i) && *was == Slot::Waiting(line);
                assert_eq!(
                    *now,
                    if woken { Slot::Done } else { *was },
                    "slot {i} at cycle {c}"
                );
            }
        }
        assert!(wraps > 0, "the window never wrapped its ring");
        assert!(
            mixed_fills > 0,
            "no fill carried demand and prefetch targets"
        );
        assert!(core.committed() > 1000);
    }

    #[test]
    fn spurious_fill_is_counted_not_fatal() {
        let mut core = bare_core(vec![Instr::Compute]);
        assert!(core.fill(LineAddr::new(42)).is_none());
        assert_eq!(core.spurious_fills, 1);
    }

    impl Core {
        /// Test helper: force-fill a line as if a prefetch returned.
        fn fill_for_test(&mut self, line: LineAddr) -> Option<CoreRequest> {
            self.activity_bound.set(None);
            let victim = self.dl1.fill(line, false)?;
            victim
                .dirty
                .then(|| CoreRequest::writeback(self.id, victim.line))
        }
    }
}
