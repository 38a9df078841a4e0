//! The measurement harness: warmup, fixed measurement window, HMIPC.
//!
//! The paper warms the caches, then simulates a fixed instruction budget per
//! program, freezing each program's statistics when its budget is reached
//! while execution continues so the mix keeps competing for shared
//! resources (§2.4). For steady-state synthetic programs an equivalent and
//! simpler scheme is a fixed measurement *window*: warm up for
//! `warmup_cycles`, snapshot per-core committed counts, run
//! `measure_cycles`, and report each core's ∆committed / window as its IPC.
//! Multi-programmed throughput is the harmonic mean of the four per-core
//! IPCs (HMIPC, Table 2(b)).
//!
//! Each run is a pure function of `(SystemConfig, Mix, RunConfig)`: the
//! simulator is deterministic per seed and shares no state across runs.
//! That purity is what the parallel engine exploits — a [`Session`]'s
//! [`run_matrix`](Session::run_matrix) fans independent points across
//! worker threads with bit-identical results to a sequential loop, and
//! memoizes on the full configuration identity so baselines shared between
//! figures simulate exactly once per session.

use core::fmt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use stacksim_stats::{harmonic_mean, MetricsSink};
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::scenario::{Machines, ScenarioHash};
use crate::system::System;
use crate::trace::{Trace, TraceConfig};

/// Length, seeding and tracing of one simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Cache/branch warmup cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measured window length in cycles.
    pub measure_cycles: u64,
    /// Seed for the workload generators.
    pub seed: u64,
    /// Event streams to record during the measured window (off by default).
    /// Part of the run identity, so traced and untraced runs of the same
    /// point never share a memo entry.
    pub trace: TraceConfig,
    /// Quiescence fast-forwarding (on by default): skip cycles in which
    /// the whole machine provably does nothing. Purely a simulator-speed
    /// knob — every simulated outcome is bit-identical either way — but
    /// part of the run identity so verification runs that disable it
    /// never alias a fast-forwarded memo entry.
    pub fast_forward: bool,
}

impl RunConfig {
    /// A short window for unit tests (fast, still past the warmup knee).
    pub fn quick() -> RunConfig {
        RunConfig {
            warmup_cycles: 10_000,
            measure_cycles: 60_000,
            seed: 0xC0FFEE,
            trace: TraceConfig::off(),
            fast_forward: true,
        }
    }

    /// This configuration with fast-forwarding disabled (full per-cycle
    /// simulation), for verifying that skipping changes nothing.
    pub fn tick_by_tick(mut self) -> RunConfig {
        self.fast_forward = false;
        self
    }

    /// This configuration with the given trace streams enabled.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim::runner::RunConfig;
    /// use stacksim::trace::TraceConfig;
    ///
    /// let run = RunConfig::quick().with_trace(TraceConfig::all());
    /// assert!(run.trace.any());
    /// ```
    pub fn with_trace(mut self, trace: TraceConfig) -> RunConfig {
        self.trace = trace;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_cycles: 30_000,
            measure_cycles: 250_000,
            seed: 0xC0FFEE,
            trace: TraceConfig::off(),
            fast_forward: true,
        }
    }
}

/// The outcome of one mix × configuration run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The mix that ran.
    pub mix: &'static str,
    /// Per-core IPC over the measured window.
    pub per_core_ipc: Vec<f64>,
    /// Harmonic-mean IPC across the mix's programs.
    pub hmipc: f64,
    /// µops committed per core during the window.
    pub committed: Vec<u64>,
    /// Cores that committed *zero* µops during the window. Their IPC is
    /// floored to `1 / measure_cycles` in [`per_core_ipc`](Self::per_core_ipc)
    /// so the harmonic mean stays defined, but the floor is no longer
    /// silent: the affected cores are recorded here and warned on stderr.
    pub zero_commit_cores: Vec<usize>,
    /// Full machine statistics at the end of the run, as a hierarchical
    /// metrics tree (use [`MetricsSink::get`] with the same dotted names
    /// the old flat record used, e.g. `"l2.misses"`).
    pub stats: MetricsSink,
    /// Event streams recorded during the run; `None` unless
    /// [`RunConfig::trace`] enabled at least one stream.
    pub trace: Option<Trace>,
}

/// A speedup was requested between runs of *different* mixes, which is
/// meaningless — HMIPC ratios only compare like against like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixMismatch {
    /// Mix of the run the speedup was asked of.
    pub ours: &'static str,
    /// Mix of the baseline it was compared against.
    pub baseline: &'static str,
}

impl fmt::Display for MixMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "speedup across different mixes: {} vs baseline {}",
            self.ours, self.baseline
        )
    }
}

impl std::error::Error for MixMismatch {}

impl From<MixMismatch> for ConfigError {
    fn from(e: MixMismatch) -> ConfigError {
        ConfigError::new(e.to_string())
    }
}

impl RunResult {
    /// Speedup of this run over a baseline run of the same mix.
    ///
    /// # Errors
    ///
    /// Returns [`MixMismatch`] if the runs are for different mixes — a
    /// cross-mix HMIPC ratio compares unrelated workloads and is never
    /// meaningful, so the contract is an error, not a number.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use stacksim::scenario::Machines;
    /// use stacksim::runner::{run_mix, RunConfig};
    /// use stacksim_workload::Mix;
    ///
    /// let run = RunConfig::quick();
    /// let mix = Mix::by_name("VH1").unwrap();
    /// let machines = Machines::builtin();
    /// let base = run_mix(&machines.m2d, mix, &run).unwrap();
    /// let fast = run_mix(&machines.m3d_fast, mix, &run).unwrap();
    /// let speedup = fast.speedup_over(&base).unwrap();
    /// assert!(speedup > 1.0);
    /// ```
    #[must_use = "the speedup ratio or the mix mismatch"]
    pub fn speedup_over(&self, baseline: &RunResult) -> Result<f64, MixMismatch> {
        if self.mix != baseline.mix {
            return Err(MixMismatch {
                ours: self.mix,
                baseline: baseline.mix,
            });
        }
        Ok(self.hmipc / baseline.hmipc)
    }
}

/// Runs one mix on one configuration.
///
/// # Errors
///
/// Returns [`ConfigError`] if the configuration is inconsistent.
#[must_use = "the run's results or the reason the configuration is invalid"]
pub fn run_mix(cfg: &SystemConfig, mix: &Mix, run: &RunConfig) -> Result<RunResult, ConfigError> {
    let mut system = System::for_mix(cfg, mix, run.seed)?;
    Ok(measure(&mut system, cfg, mix, run))
}

/// The measurement protocol of [`run_mix`] on a freshly built `system`:
/// warmup, the traced measured window, per-core IPC and HMIPC.
fn measure(system: &mut System, cfg: &SystemConfig, mix: &Mix, run: &RunConfig) -> RunResult {
    system.set_fast_forward(run.fast_forward);
    system.run_cycles(run.warmup_cycles);
    if run.trace.any() {
        // Trace the measured window only; warmup events are not evaluation
        // artifacts.
        system.enable_tracing(run.trace);
    }
    let before: Vec<u64> = (0..cfg.cores).map(|i| system.core_committed(i)).collect();
    system.run_cycles(run.measure_cycles);
    let committed: Vec<u64> = (0..cfg.cores)
        .map(|i| system.core_committed(i) - before[i])
        .collect();
    // A zero-commit core would make the harmonic mean undefined; floor it
    // to one committed µop but report the floor instead of hiding it.
    let zero_commit_cores: Vec<usize> = committed
        .iter()
        .enumerate()
        .filter(|(_, &c)| c == 0)
        .map(|(i, _)| i)
        .collect();
    if !zero_commit_cores.is_empty() {
        eprintln!(
            "warning: mix {} seed {:#x}: cores {:?} committed zero µops in the \
             {}-cycle window; their IPC is floored to 1/window for the harmonic mean",
            mix.name, run.seed, zero_commit_cores, run.measure_cycles
        );
    }
    let per_core_ipc: Vec<f64> = committed
        .iter()
        .map(|&c| (c.max(1)) as f64 / run.measure_cycles as f64)
        .collect();
    let hmipc = harmonic_mean(&per_core_ipc).expect("ipc values are positive"); // simlint::allow(P002, reason = "per-core IPCs are floored to 1/window, so the harmonic mean is defined")
    let trace = system.take_trace();
    RunResult {
        mix: mix.name,
        per_core_ipc,
        hmipc,
        committed,
        zero_commit_cores,
        stats: system.metrics(),
        trace,
    }
}

// ---------------------------------------------------------------------------
// Parallel engine
// ---------------------------------------------------------------------------

/// One point of a run matrix: a machine configuration, the mix to run on
/// it, and the run window.
pub type RunPoint = (SystemConfig, &'static Mix, RunConfig);

/// A per-point progress callback: `(points_done, points_total)` for the
/// matrix currently running.
pub type ProgressFn = Box<dyn Fn(usize, usize) + Send + Sync>;

/// Fans independent work items across a fixed pool of worker threads,
/// returning the outputs **in input order** regardless of which worker
/// finished when.
///
/// Workers pull items off a shared atomic cursor, so uneven item costs
/// balance automatically. With `jobs == 1` (or one item) this degrades to
/// a plain in-place loop.
pub fn parallel_map<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let out = f(item);
                    // simlint::allow(P002, reason = "slot mutex poisoning means a worker already panicked; propagating is correct")
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join each worker's OS thread, not only its closure (all the scope
        // itself waits for): a thread hands its malloc arena back only as it
        // exits, so the next call's workers then reuse the same arenas
        // instead of, depending on timing, creating new ones. That keeps the
        // process's peak resident set the same from one run to the next.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned") // simlint::allow(P002, reason = "slot mutex poisoning means a worker already panicked; propagating is correct")
                .expect("worker filled every slot") // simlint::allow(P002, reason = "the scoped-thread join proves every worker filled its slot")
        })
        .collect()
}

/// Memo cache key: the machine's [`ScenarioHash`] leads, so a lookup
/// hashes one precomputed u64 instead of re-walking the whole
/// configuration; the full configuration stays in the key as the equality
/// backstop, so two machines colliding on the 64-bit digest still memoize
/// separately. This is the same digest `reproduce --scenario` prints,
/// making "one hash = one simulated machine" the session-wide contract.
#[derive(Clone, PartialEq, Eq)]
struct MemoKey {
    scenario: ScenarioHash,
    cfg: SystemConfig,
    mix: &'static str,
    run: RunConfig,
}

impl MemoKey {
    fn new(cfg: &SystemConfig, mix: &'static str, run: &RunConfig) -> MemoKey {
        MemoKey {
            scenario: ScenarioHash::of(cfg),
            cfg: cfg.clone(),
            mix,
            run: *run,
        }
    }
}

impl std::hash::Hash for MemoKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // `cfg` is deliberately omitted: `scenario` already digests it.
        self.scenario.hash(state);
        self.mix.hash(state);
        self.run.hash(state);
    }
}

/// A durable second-tier result cache consulted by
/// [`Session::run_mix_cached`] after the session's memo misses and before
/// simulating.
///
/// The canonical implementation is `stacksim-store`'s on-disk
/// content-addressed store (see `docs/STORE.md`); the trait lives here so
/// the kernel crate depends only on the *shape* of a durable cache, never
/// on filesystem code. Implementations must be infallible from the
/// runner's point of view: a corrupt or unreadable entry is a `None`
/// (recompute), never a panic, and a failed persist must not fail the run.
pub trait ResultStore: Send + Sync {
    /// Returns the stored result for this exact `(cfg, mix, run)` point,
    /// or `None` to make the runner simulate it.
    fn load(&self, cfg: &SystemConfig, mix: &'static str, run: &RunConfig) -> Option<RunResult>;

    /// Persists a freshly simulated result for later processes.
    fn store(&self, cfg: &SystemConfig, mix: &'static str, run: &RunConfig, result: &RunResult);
}

/// Where [`Session::run_mix_cached`] found a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunSource {
    /// Served by the session's memo (including waiting on another thread
    /// that was already computing the same point).
    Memo,
    /// Loaded from the session's durable [`ResultStore`].
    Store,
    /// Freshly simulated by this call.
    Simulated,
}

/// Per-key cell: concurrent callers of the same point block on one cell
/// while the first caller simulates, instead of duplicating the run.
type MemoCell = Arc<OnceLock<Result<Arc<RunResult>, ConfigError>>>;

/// Tier and cycle accounting of one [`Session`].
#[derive(Default)]
struct Counters {
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    simulated: AtomicU64,
    skipped_cycles: AtomicU64,
    ticked_cycles: AtomicU64,
}

/// One experiment session: the machine set the drivers draw from, the
/// worker count, the memo of completed runs, the optional durable
/// [`ResultStore`], the progress callback and the run accounting.
///
/// Every run point is a pure function of its `(config, mix, run)` triple,
/// so the session memoizes on that identity: a baseline shared between
/// figures simulates exactly once per session, and
/// [`run_matrix`](Self::run_matrix) fans a matrix across worker threads
/// with results bit-identical to a sequential loop of [`run_mix`] calls.
/// Two sessions share nothing.
pub struct Session {
    machines: Machines,
    jobs: usize,
    store: Option<Arc<dyn ResultStore>>,
    progress: Option<ProgressFn>,
    /// Completed and in-flight runs. Its lock only ever covers a map
    /// lookup or insert, never a simulation, so a panic elsewhere cannot
    /// leave the map half-updated: a poisoned lock is recovered, not
    /// propagated.
    memo: Mutex<HashMap<MemoKey, MemoCell>>,
    counters: Counters,
}

impl Session {
    /// A session over `machines` with one worker per available CPU, no
    /// durable store and no progress callback.
    pub fn new(machines: Machines) -> Session {
        Session {
            machines,
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            store: None,
            progress: None,
            memo: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// This session with `jobs` worker threads (at least one).
    pub fn with_jobs(mut self, jobs: usize) -> Session {
        self.jobs = jobs.max(1);
        self
    }

    /// This session with a durable result store behind its memo. Every
    /// memo miss consults the store before simulating, and every fresh
    /// simulation is written through to it.
    ///
    /// Traced runs ([`TraceConfig::any`]) bypass the store entirely: event
    /// streams are not persisted, so serving a stored result for a traced
    /// request would silently drop its streams.
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Session {
        self.store = Some(store);
        self
    }

    /// This session with a callback invoked once per completed matrix
    /// point by [`run_matrix`](Self::run_matrix), with the number of
    /// points finished so far and the matrix size. Callbacks may be
    /// invoked from any worker thread; keep them cheap and re-entrant.
    pub fn with_progress(mut self, progress: ProgressFn) -> Session {
        self.progress = Some(progress);
        self
    }

    /// The machine set experiment drivers draw from.
    pub fn machines(&self) -> &Machines {
        &self.machines
    }

    /// The worker count matrices and drivers fan out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every point of the matrix, in parallel and memoized, returning
    /// results in input order.
    ///
    /// Scheduling cannot perturb the numbers: each point is a pure function
    /// of its `(config, mix, run)` triple, so the output is bit-identical
    /// to a sequential loop of [`run_mix`] calls over the same slice.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) [`ConfigError`] if any point has
    /// an inconsistent configuration.
    #[must_use = "the matrix results or the reason a configuration is invalid"]
    pub fn run_matrix(&self, points: &[RunPoint]) -> Result<Vec<Arc<RunResult>>, ConfigError> {
        let done = AtomicUsize::new(0);
        let total = points.len();
        parallel_map(self.jobs, points, |(cfg, mix, run)| {
            let result = self.run_mix_cached(cfg, mix, run).map(|(result, _)| result);
            if let Some(progress) = &self.progress {
                progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
            }
            result
        })
        .into_iter()
        .collect()
    }

    /// Memoized [`run_mix`], plus where the result came from: the first
    /// call for a given `(cfg, mix, run)` triple consults the durable store
    /// and otherwise simulates; every later call — from any thread —
    /// returns the same shared [`RunResult`] as a [`RunSource::Memo`] hit.
    ///
    /// The mix is taken by `'static` reference (the workload registry) so the
    /// name used in the key cannot outlive or diverge from its definition.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent (also
    /// memoized: a bad point is validated once).
    #[must_use = "the run's results or the reason the configuration is invalid"]
    pub fn run_mix_cached(
        &self,
        cfg: &SystemConfig,
        mix: &'static Mix,
        run: &RunConfig,
    ) -> Result<(Arc<RunResult>, RunSource), ConfigError> {
        let cell = self.memo_cell(MemoKey::new(cfg, mix.name, run));
        // If the closure runs, this cell is ours to fill: tier 2 (durable
        // store), then the simulator. Otherwise the point was already memoized
        // (or another thread is computing it and get_or_init waits) — a memo
        // hit either way.
        let source = std::cell::Cell::new(RunSource::Memo);
        let result = cell
            .get_or_init(|| {
                // Traced runs bypass the store: event streams are not
                // persisted, so a stored result could not honor the request.
                let store = self.store.as_deref().filter(|_| !run.trace.any());
                if let Some(store) = store {
                    if let Some(stored) = store.load(cfg, mix.name, run) {
                        self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                        source.set(RunSource::Store);
                        return Ok(Arc::new(stored));
                    }
                    self.counters.store_misses.fetch_add(1, Ordering::Relaxed);
                }
                let mut system = System::for_mix(cfg, mix, run.seed)?;
                let result = Arc::new(measure(&mut system, cfg, mix, run));
                self.count_cycles(&system);
                self.counters.simulated.fetch_add(1, Ordering::Relaxed);
                source.set(RunSource::Simulated);
                if let Some(store) = store {
                    store.store(cfg, mix.name, run, &result);
                }
                Ok(result)
            })
            .clone()?;
        Ok((result, source.get()))
    }

    /// Adds a finished system's fast-forwarded and fully ticked cycles to
    /// the session's cycle totals. [`run_mix_cached`](Self::run_mix_cached)
    /// counts its own simulations; drivers that build a [`System`]
    /// directly call this so their work shows in
    /// [`skip_totals`](Self::skip_totals) too.
    pub fn count_cycles(&self, system: &System) {
        let c = &self.counters;
        c.skipped_cycles
            .fetch_add(system.skipped_cycles(), Ordering::Relaxed);
        c.ticked_cycles
            .fetch_add(system.ticked_cycles(), Ordering::Relaxed);
    }

    /// `(skipped, ticked)` cycle totals over every simulation this session
    /// performed (fresh simulations only — memo and store hits add
    /// nothing). The reproduce binary snapshots deltas around each
    /// experiment to report per-experiment skipped-cycle fractions.
    pub fn skip_totals(&self) -> (u64, u64) {
        let c = &self.counters;
        (
            c.skipped_cycles.load(Ordering::Relaxed),
            c.ticked_cycles.load(Ordering::Relaxed),
        )
    }

    /// `(store_hits, store_misses, simulated)` totals across every
    /// [`run_mix_cached`](Self::run_mix_cached) call of this session:
    /// points served from the durable store, points the store was asked
    /// for but did not have, and points that ran the simulator. Memo hits
    /// touch none of the three. With no store, `store_hits`/`store_misses`
    /// stay zero and `simulated` still counts fresh runs.
    pub fn tier_stats(&self) -> (u64, u64, u64) {
        let c = &self.counters;
        (
            c.store_hits.load(Ordering::Relaxed),
            c.store_misses.load(Ordering::Relaxed),
            c.simulated.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct `(config, mix, run)` points this session has
    /// memoized (diagnostic; pairs with the reproduce binary's run
    /// accounting).
    pub fn memo_len(&self) -> usize {
        // simlint::allow(L002, reason = "`.len()` here is HashMap::len on the guard; the Store::len edge is simlint's documented name-collision over-approximation")
        let map = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        map.len()
    }

    /// Visits every *successful* memoized run of this session, in no
    /// particular order. The post-hoc audit hook: `reproduce
    /// --check-protocol` replays the protocol checker over every traced run
    /// the experiments produced, without re-simulating anything.
    ///
    /// The callback runs outside the memo lock, so it may itself trigger
    /// [`run_mix_cached`](Self::run_mix_cached) calls; runs completing
    /// concurrently with the snapshot may or may not be visited.
    pub fn for_each_cached_run<F>(&self, mut f: F)
    where
        F: FnMut(&SystemConfig, &'static str, &RunConfig, &Arc<RunResult>),
    {
        for (key, cell) in &self.memo_snapshot() {
            if let Some(Ok(result)) = cell.get() {
                f(&key.cfg, key.mix, &key.run, result);
            }
        }
    }

    /// Snapshot of the memo's cells, taken under the lock and returned by
    /// value. Keeping the guard confined to this helper means callers iterate
    /// — and in particular hit the durable store or the simulator — with the
    /// memo lock already released.
    fn memo_snapshot(&self) -> Vec<(MemoKey, MemoCell)> {
        let map = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Looks up (or inserts) the cell for `key`, holding the memo lock only
    /// for the map operation itself. Callers fill the cell — tier-2 store
    /// lookup, simulation — after this returns, so the memo lock is never
    /// held across file I/O.
    fn memo_cell(&self, key: MemoKey) -> MemoCell {
        // simlint::allow(L002, reason = "HashMap::entry only; the path to Store I/O is the `.len()` name-collision over-approximation (entry -> find -> len), not a real call")
        let mut map = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(key).or_default().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Machines;

    #[test]
    fn moderate_mix_outruns_stream_mix() {
        let cfg = Machines::builtin().m2d;
        let run = RunConfig::quick();
        let m1 = run_mix(&cfg, Mix::by_name("M1").unwrap(), &run).unwrap();
        let vh1 = run_mix(&cfg, Mix::by_name("VH1").unwrap(), &run).unwrap();
        assert!(
            m1.hmipc > 3.0 * vh1.hmipc,
            "moderate {} vs stream {}",
            m1.hmipc,
            vh1.hmipc
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = Machines::builtin().m3d_fast;
        let run = RunConfig::quick();
        let a = run_mix(&cfg, Mix::by_name("H2").unwrap(), &run).unwrap();
        let b = run_mix(&cfg, Mix::by_name("H2").unwrap(), &run).unwrap();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.hmipc, b.hmipc);
    }

    #[test]
    fn speedup_over_baseline() {
        let run = RunConfig::quick();
        let mix = Mix::by_name("VH2").unwrap();
        let machines = Machines::builtin();
        let base = run_mix(&machines.m2d, mix, &run).unwrap();
        let fast = run_mix(&machines.m3d_fast, mix, &run).unwrap();
        let s = fast.speedup_over(&base).unwrap();
        assert!(s > 1.2, "3D-fast should clearly beat 2D on streams: {s}");
    }

    #[test]
    fn speedup_requires_same_mix() {
        let run = RunConfig::quick();
        let cfg = Machines::builtin().m2d;
        let a = run_mix(&cfg, Mix::by_name("M1").unwrap(), &run).unwrap();
        let b = run_mix(&cfg, Mix::by_name("M2").unwrap(), &run).unwrap();
        let err = a.speedup_over(&b).unwrap_err();
        assert_eq!(
            err,
            MixMismatch {
                ours: "M1",
                baseline: "M2"
            }
        );
        assert!(err.to_string().contains("different mixes"));
        let as_config: ConfigError = err.into();
        assert!(as_config.to_string().contains("M2"));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let cfg = Machines::builtin().m3d_fast;
        let mix = Mix::by_name("H2").unwrap();
        let plain_cfg = RunConfig::quick();
        let traced_cfg = RunConfig::quick().with_trace(crate::trace::TraceConfig::all());
        let plain = run_mix(&cfg, mix, &plain_cfg).unwrap();
        let traced = run_mix(&cfg, mix, &traced_cfg).unwrap();
        // Tracing is observational: every measured number is bit-identical.
        // Only the fast-forward bookkeeping may differ — trace sampling
        // imposes extra skip barriers, changing how the run was *executed*
        // (more ticks, fewer skips) but nothing the machine *did*.
        let machine = |r: &RunResult| {
            r.stats
                .flatten()
                .into_iter()
                .filter(|(name, _)| name != "ticked_cycles" && name != "skipped_cycles")
                .collect::<Vec<_>>()
        };
        assert_eq!(plain.committed, traced.committed);
        assert_eq!(plain.per_core_ipc, traced.per_core_ipc);
        assert_eq!(plain.hmipc, traced.hmipc);
        assert_eq!(machine(&plain), machine(&traced));
        // And only the traced run carries streams.
        assert_eq!(plain.trace, None);
        let trace = traced.trace.as_ref().expect("trace requested");
        assert!(!trace.is_empty());
    }

    #[test]
    fn progress_reporter_sees_every_point() {
        let calls = Arc::new(AtomicUsize::new(0));
        let last_total = Arc::new(AtomicUsize::new(0));
        let (c, t) = (Arc::clone(&calls), Arc::clone(&last_total));
        let session = Session::new(Machines::builtin())
            .with_jobs(2)
            .with_progress(Box::new(move |_done, total| {
                c.fetch_add(1, Ordering::Relaxed);
                t.store(total, Ordering::Relaxed);
            }));
        let cfg = Machines::builtin().m2d;
        let run = RunConfig::quick();
        let points: Vec<RunPoint> = ["M1", "M2"]
            .iter()
            .map(|m| (cfg.clone(), Mix::by_name(m).unwrap(), run))
            .collect();
        let results = session.run_matrix(&points).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(last_total.load(Ordering::Relaxed), 2);
        assert_eq!(session.memo_len(), 2);
        assert_eq!(session.tier_stats(), (0, 0, 2));
    }

    #[test]
    fn parallel_map_keeps_order_and_rethrows_a_worker_panic() {
        let items: Vec<u32> = (0..64).collect();
        assert_eq!(
            parallel_map(3, &items, |x| x * 2),
            (0..64).map(|x| x * 2).collect::<Vec<_>>()
        );
        let panic = std::panic::catch_unwind(|| {
            parallel_map(2, &items, |&x| if x == 17 { panic!("item {x}") } else { x })
        })
        .unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("item 17")
        );
    }
}
