//! Seeded config-space fuzzer.
//!
//! A fuzz *case* is a deterministic function of one `u64` seed: a machine
//! configuration sampled around the paper's named design points, a workload
//! mix, and a short simulation window. [`run_case`] subjects the case to
//! every oracle this crate offers:
//!
//! 1. the differential MSHR oracle ([`crate::oracle`]) for the sampled
//!    organization and per-bank entry count;
//! 2. a fast-forward run and a tick-by-tick run of the same point, which
//!    must agree bit-for-bit on every committed count, IPC, metric and
//!    traced DRAM command (the quiescence skip's contract);
//! 3. the DRAM protocol checker ([`crate::protocol`]) over the traced
//!    command streams.
//!
//! On failure, [`shrink`] walks a fixed list of named simplifying
//! transformations, keeping each one that preserves the failure class, and
//! [`Repro`] captures `(seed, kept transformations, failure)` as a JSON
//! artifact that [`replay`] can re-run bit-identically later — on CI or on
//! a developer machine.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stacksim::config::SystemConfig;
use stacksim::runner::{run_mix, RunConfig, RunResult};
use stacksim::scenario::{Machines, Scenario, SHIPPED};
use stacksim_dram::PagePolicy;
use stacksim_mshr::MshrKind;
use stacksim_stats::Json;
use stacksim_types::RefreshConfig;
use stacksim_workload::Mix;

use crate::oracle::{self, StreamParams};
use crate::protocol;

/// One generated point in configuration space.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// Generator seed that produced (and reproduces) the case.
    pub seed: u64,
    /// The sampled machine configuration.
    pub cfg: SystemConfig,
    /// Workload mix name (resolved through [`Mix::by_name`]).
    pub mix: &'static str,
    /// Simulation window (trace settings are added by [`run_case`]).
    pub run: RunConfig,
}

/// Why a fuzz case failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuzzFailure {
    /// The generated configuration was rejected by the simulator even
    /// though the generator only samples valid points.
    Config(String),
    /// An MSHR organization diverged from the CAM oracle.
    Oracle(String),
    /// Fast-forward and tick-by-tick runs disagreed.
    FastForward(String),
    /// The DRAM command stream broke a protocol rule.
    Protocol {
        /// Total violations found.
        count: usize,
        /// The first few violations, rendered.
        first: Vec<String>,
    },
}

impl FuzzFailure {
    /// Stable class name used to decide whether a shrunk case "still
    /// fails the same way".
    pub fn class(&self) -> &'static str {
        match self {
            FuzzFailure::Config(_) => "config",
            FuzzFailure::Oracle(_) => "oracle",
            FuzzFailure::FastForward(_) => "fast-forward",
            FuzzFailure::Protocol { .. } => "protocol",
        }
    }
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::Config(e) => write!(f, "config rejected: {e}"),
            FuzzFailure::Oracle(e) => write!(f, "mshr oracle: {e}"),
            FuzzFailure::FastForward(e) => write!(f, "fast-forward mismatch: {e}"),
            FuzzFailure::Protocol { count, first } => {
                write!(f, "{count} protocol violations: {}", first.join("; "))
            }
        }
    }
}

/// Inserts or replaces the member at `path` inside nested JSON objects,
/// creating intermediate objects as needed. Replacements keep the original
/// member position so rendered documents stay stable.
fn set_key(v: &mut Json, path: &[&str], value: Json) {
    let Some((head, rest)) = path.split_first() else {
        return;
    };
    let Json::Obj(members) = v else { return };
    if rest.is_empty() {
        match members.iter_mut().find(|(k, _)| k == head) {
            Some(slot) => slot.1 = value,
            None => members.push(((*head).to_string(), value)),
        }
        return;
    }
    if !members.iter().any(|(k, _)| k == head) {
        members.push(((*head).to_string(), Json::Obj(Vec::new())));
    }
    if let Some(slot) = members.iter_mut().find(|(k, _)| k == head) {
        set_key(&mut slot.1, rest, value);
    }
}

/// The member at `path` inside nested JSON objects, if present.
fn member_mut<'a>(v: &'a mut Json, path: &[&str]) -> Option<&'a mut Json> {
    path.iter().try_fold(v, |v, key| match v {
        Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|m| &mut m.1),
        _ => None,
    })
}

/// A geometry's `(ways, sets)`, each one of its options, uniformly.
fn geometry(rng: &mut SmallRng, ways: &[u64], sets: &[u64]) -> (u64, u64) {
    let ways = ways[rng.gen_range(0..ways.len())];
    (ways, sets[rng.gen_range(0..sets.len())])
}

/// Deterministically generates the case for `seed`.
///
/// # Panics
///
/// Panics if a shipped scenario file is broken or a mutation produces a
/// document the scenario parser rejects — both are build bugs, not fuzz
/// findings, and must fail loudly.
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Base machines are the shipped scenario files, sampled through the
    // scenario frontend so the render → parse → validate → build path is
    // itself under the fuzzer, beyond-quad-core topologies included.
    let (_, text) = SHIPPED[rng.gen_range(0..SHIPPED.len())];
    let base = Scenario::from_str(text).expect("shipped scenario must load");
    let mut doc = Json::parse(text).expect("shipped scenario is valid JSON");

    let kind = oracle::ALL_KINDS[rng.gen_range(0..oracle::ALL_KINDS.len())];
    set_key(
        &mut doc,
        &["machine", "mshr", "kind"],
        Json::Str(kind.to_string()),
    );
    // Keep per-bank entries a power of two for quadratic probing.
    let per_bank = [4usize, 8, 16, 32][rng.gen_range(0..4usize)];
    set_key(
        &mut doc,
        &["machine", "mshr", "total_entries"],
        Json::Num((per_bank * base.config.memory.mcs as usize) as f64),
    );
    if rng.gen_range(0u32..4) == 0 {
        set_key(
            &mut doc,
            &["machine", "mshr", "dynamic"],
            Json::Obj(vec![
                ("sample_cycles".into(), Json::Num(500.0)),
                ("apply_cycles".into(), Json::Num(4_000.0)),
                (
                    "divisors".into(),
                    Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Num(4.0)]),
                ),
            ]),
        );
    }
    set_key(
        &mut doc,
        &["machine", "memory", "row_buffer_entries"],
        Json::Num(rng.gen_range(1u32..5) as f64),
    );
    set_key(
        &mut doc,
        &["machine", "memory", "page_policy"],
        Json::Str(if rng.gen::<bool>() { "open" } else { "closed" }.into()),
    );
    set_key(
        &mut doc,
        &["machine", "memory", "smart_refresh"],
        Json::Bool(rng.gen::<bool>()),
    );
    set_key(
        &mut doc,
        &["machine", "memory", "refresh_ms"],
        match rng.gen_range(0u32..3) {
            0 => Json::Num(64.0),
            1 => Json::Num(32.0),
            _ => Json::Null,
        },
    );
    set_key(
        &mut doc,
        &["machine", "l2", "prefetch"],
        Json::Bool(rng.gen::<bool>()),
    );
    // Cache and DTLB geometries: associativity and set count per seed,
    // direct-mapped and non-power-of-two set counts included. The L2's set
    // count is per bank, so every bank holds whole sets.
    let (ways, sets) = geometry(&mut rng, &[1, 2, 3, 8, 12], &[1, 5, 24, 32]);
    let dl1 = Json::Obj(vec![
        ("size_bytes".into(), Json::Num((sets * ways * 64) as f64)),
        ("associativity".into(), Json::Num(ways as f64)),
    ]);
    set_key(&mut doc, &["machine", "core", "dl1"], dl1.clone());
    if let Some(Json::Arr(cores)) = member_mut(&mut doc, &["machine", "per_core"]) {
        for core in cores {
            set_key(core, &["dl1"], dl1.clone());
        }
    }
    let (ways, sets) = geometry(&mut rng, &[1, 3, 8, 24], &[3, 64, 100, 533]);
    let banks = u64::from(base.config.l2_banks);
    for (key, value) in [
        ("size_bytes", banks * sets * ways * 64),
        ("associativity", ways),
    ] {
        set_key(&mut doc, &["machine", "l2", key], Json::Num(value as f64));
    }
    if base.config.vm.is_some() {
        let (ways, sets) = geometry(&mut rng, &[1, 3, 4], &[1, 5, 16]);
        for (key, value) in [("entries", sets * ways), ("associativity", ways)] {
            set_key(&mut doc, &["machine", "vm", key], Json::Num(value as f64));
        }
    }

    let cfg = Scenario::from_str(&doc.pretty())
        .expect("scenario mutated within schema bounds must reparse")
        .config;

    let mixes = Mix::all();
    let mix = &mixes[rng.gen_range(0..mixes.len())];

    let mut run = RunConfig::quick();
    run.warmup_cycles = rng.gen_range(1_000u64..4_000);
    run.measure_cycles = rng.gen_range(6_000u64..20_000);
    run.seed = rng.gen::<u64>();

    FuzzCase {
        seed,
        cfg,
        mix: mix.name,
        run,
    }
}

/// Flattened metric tree minus the skip meta-counters, which describe how
/// the run was executed rather than what the machine did.
fn machine_metrics(result: &RunResult) -> Vec<(String, f64)> {
    result
        .stats
        .flatten()
        .into_iter()
        .filter(|(name, _)| name != "ticked_cycles" && name != "skipped_cycles")
        .collect()
}

/// Runs every check against `case`. On a pass, returns the cores that
/// committed nothing in the measured window: for those, the fast-forward
/// comparison covered no committed µop.
///
/// # Errors
///
/// Returns the first [`FuzzFailure`] detected.
#[must_use = "Ok means the case passed; dropping the result hides failures"]
pub fn run_case(case: &FuzzCase) -> Result<Vec<usize>, FuzzFailure> {
    // 1. Differential MSHR oracle on the sampled organization.
    let params = StreamParams {
        entries: case.cfg.mshr_entries_per_bank().max(1),
        ops: 300,
        tuner: case.cfg.mshr.dynamic.is_some(),
        ..StreamParams::default()
    };
    oracle::drive_stream(case.cfg.mshr.kind, case.seed, &params)
        .map_err(|d| FuzzFailure::Oracle(d.to_string()))?;

    let mix = Mix::by_name(case.mix)
        .ok_or_else(|| FuzzFailure::Config(format!("unknown mix {}", case.mix)))?;
    let traced = case.run.with_dram_trace();

    // 2. Fast-forward versus tick-by-tick bit identity.
    let fast = run_mix(&case.cfg, mix, &traced).map_err(|e| FuzzFailure::Config(e.to_string()))?;
    let slow = run_mix(&case.cfg, mix, &traced.tick_by_tick())
        .map_err(|e| FuzzFailure::Config(e.to_string()))?;
    if fast.committed != slow.committed {
        return Err(FuzzFailure::FastForward(format!(
            "committed {:?} vs {:?}",
            fast.committed, slow.committed
        )));
    }
    if fast.per_core_ipc != slow.per_core_ipc || fast.hmipc != slow.hmipc {
        return Err(FuzzFailure::FastForward("IPC differs".into()));
    }
    if fast.trace != slow.trace {
        return Err(FuzzFailure::FastForward("trace streams differ".into()));
    }
    let fast_metrics = machine_metrics(&fast);
    let slow_metrics = machine_metrics(&slow);
    if fast_metrics != slow_metrics {
        let diff = fast_metrics
            .iter()
            .zip(&slow_metrics)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{} = {} vs {}", a.0, a.1, b.1))
            .unwrap_or_else(|| "metric sets differ in size".into());
        return Err(FuzzFailure::FastForward(diff));
    }

    // 3. DRAM protocol over the traced command streams.
    let violations =
        protocol::check_run(&case.cfg, &fast).map_err(|e| FuzzFailure::Config(e.to_string()))?;
    if !violations.is_empty() {
        return Err(FuzzFailure::Protocol {
            count: violations.len(),
            first: violations.iter().take(5).map(|v| v.to_string()).collect(),
        });
    }
    Ok(fast.zero_commit_cores)
}

/// A named simplifying transformation used by the shrinker.
type ShrinkOp = (&'static str, fn(&mut FuzzCase));

/// The fixed, ordered shrink vocabulary. Names are part of the repro
/// artifact format, so keep them stable.
const SHRINK_OPS: &[ShrinkOp] = &[
    ("short-window", |c| {
        c.run.warmup_cycles = 1_000;
        c.run.measure_cycles = 6_000;
    }),
    ("no-dynamic-mshr", |c| c.cfg.mshr.dynamic = None),
    ("cam-mshr", |c| c.cfg.mshr.kind = MshrKind::Cam),
    ("small-mshr", |c| {
        c.cfg.mshr.total_entries = 4 * c.cfg.memory.mcs as usize;
    }),
    ("single-row-buffer", |c| c.cfg.memory.row_buffer_entries = 1),
    ("no-smart-refresh", |c| c.cfg.memory.smart_refresh = false),
    ("no-refresh", |c| {
        c.cfg.memory.refresh = RefreshConfig::DISABLED
    }),
    ("open-page", |c| c.cfg.memory.page_policy = PagePolicy::Open),
    ("no-prefetch", |c| c.cfg.l2_prefetch = false),
    ("penryn-caches", |c| {
        let penryn = Machines::builtin().m2d;
        c.cfg.l2 = penryn.l2;
        c.cfg.core.dl1 = penryn.core.dl1;
        for core in &mut c.cfg.per_core {
            core.dl1 = penryn.core.dl1;
        }
        if c.cfg.vm.is_some() {
            c.cfg.vm = penryn.vm;
        }
    }),
    ("mix-m1", |c| c.mix = "M1"),
];

/// Shrinks a failing case: applies each transformation in order, keeping
/// it iff the case still fails with the same [`FuzzFailure::class`].
/// Returns the minimal case and the names of the transformations kept.
pub fn shrink(case: &FuzzCase, failure: &FuzzFailure) -> (FuzzCase, Vec<&'static str>) {
    let class = failure.class();
    shrink_with(case, |c| {
        run_case(c).err().is_some_and(|f| f.class() == class)
    })
}

/// Shrinking engine with an arbitrary failure predicate (separated for
/// testability: tests can shrink against synthetic predicates without a
/// real failure in the simulator).
pub fn shrink_with(
    case: &FuzzCase,
    still_fails: impl Fn(&FuzzCase) -> bool,
) -> (FuzzCase, Vec<&'static str>) {
    let mut current = case.clone();
    let mut applied = Vec::new();
    for (name, op) in SHRINK_OPS {
        let mut candidate = current.clone();
        op(&mut candidate);
        if candidate == current {
            continue; // already minimal in this dimension
        }
        if still_fails(&candidate) {
            current = candidate;
            applied.push(*name);
        }
    }
    (current, applied)
}

/// Schema tag of the repro artifact format.
pub const REPRO_SCHEMA: &str = "stacksim-simcheck-repro/v1";

/// A replayable failure artifact: everything needed to regenerate the
/// exact failing case is the seed plus the kept shrink transformations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Repro {
    /// Generator seed.
    pub seed: u64,
    /// Shrink transformations to re-apply, in order.
    pub shrink_ops: Vec<String>,
    /// Rendered failure, for humans reading the artifact.
    pub failure: String,
}

impl Repro {
    /// Renders the artifact as JSON. The seed is carried as a string so
    /// the full `u64` range survives the f64 number representation.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(REPRO_SCHEMA.into())),
            ("seed".into(), Json::Str(self.seed.to_string())),
            (
                "shrink_ops".into(),
                Json::Arr(
                    self.shrink_ops
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("failure".into(), Json::Str(self.failure.clone())),
        ])
    }

    /// Parses an artifact produced by [`Repro::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found.
    #[must_use = "the parsed repro or the parse error"]
    pub fn from_json(v: &Json) -> Result<Repro, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != REPRO_SCHEMA {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let seed = v
            .get("seed")
            .and_then(Json::as_str)
            .ok_or("missing seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad seed: {e}"))?;
        let shrink_ops = v
            .get("shrink_ops")
            .and_then(Json::as_arr)
            .ok_or("missing shrink_ops")?
            .iter()
            .map(|s| s.as_str().map(String::from).ok_or("non-string shrink op"))
            .collect::<Result<Vec<_>, _>>()?;
        let failure = v
            .get("failure")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        Ok(Repro {
            seed,
            shrink_ops,
            failure,
        })
    }
}

/// Regenerates the concrete failing case an artifact describes.
///
/// # Errors
///
/// Returns the name of any shrink transformation this build no longer
/// knows (artifact written by an incompatible version).
#[must_use = "the rebuilt case or the reason the repro is stale"]
pub fn materialize(repro: &Repro) -> Result<FuzzCase, String> {
    let mut case = generate(repro.seed);
    for name in &repro.shrink_ops {
        let (_, op) = SHRINK_OPS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown shrink op {name:?}"))?;
        op(&mut case);
    }
    Ok(case)
}

/// Re-runs an artifact's case.
///
/// # Errors
///
/// Returns the [`FuzzFailure`] if the case still fails (i.e. the bug it
/// recorded is still present), or a [`FuzzFailure::Config`] wrapping the
/// materialization error for incompatible artifacts.
#[must_use = "Ok means the repro passed; dropping the result hides failures"]
pub fn replay(repro: &Repro) -> Result<(), FuzzFailure> {
    let case = materialize(repro).map_err(FuzzFailure::Config)?;
    run_case(&case).map(drop)
}

/// Fuzzes one seed end to end: generate, check, shrink, package.
/// Returns the passing case's zero-commit cores (see [`run_case`]), or
/// the failure's [`Repro`].
///
/// # Errors
///
/// Returns the [`Repro`] of a failing seed.
pub fn fuzz_one(seed: u64) -> Result<Vec<usize>, Repro> {
    let case = generate(seed);
    let failure = match run_case(&case) {
        Ok(zero_commit_cores) => return Ok(zero_commit_cores),
        Err(failure) => failure,
    };
    let (shrunk, ops) = shrink(&case, &failure);
    // Report the failure of the *shrunk* case (same class, usually a
    // shorter message); fall back to the original if shrinking somehow
    // repaired it.
    let failure = run_case(&shrunk).err().unwrap_or(failure);
    Err(Repro {
        seed,
        shrink_ops: ops.iter().map(|s| s.to_string()).collect(),
        failure: failure.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..32 {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.cfg
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid config: {e}"));
            assert!(Mix::by_name(a.mix).is_some(), "seed {seed}: bad mix");
        }
    }

    #[test]
    fn generation_covers_the_space() {
        let cases: Vec<FuzzCase> = (0..64).map(generate).collect();
        let kinds: std::collections::HashSet<_> = cases.iter().map(|c| c.cfg.mshr.kind).collect();
        assert!(kinds.len() >= 4, "only {kinds:?} sampled");
        assert!(cases
            .iter()
            .any(|c| c.cfg.memory.page_policy == PagePolicy::Closed));
        assert!(cases
            .iter()
            .any(|c| c.cfg.memory.refresh.period_ms.is_none()));
        assert!(cases
            .iter()
            .any(|c| c.cfg.memory.refresh.period_ms.is_some()));
        assert!(cases.iter().any(|c| c.cfg.mshr.dynamic.is_some()));
        assert!(cases.iter().any(|c| c.cfg.memory.mcs > 1));
        // Cache geometries: direct-mapped and non-power-of-two set counts
        // at every level, and each L2 bank a whole number of sets.
        let l2_sets = |c: &FuzzCase| c.cfg.l2.sets() / c.cfg.l2_banks as usize;
        assert!(cases.iter().any(|c| c.cfg.core.dl1.associativity == 1));
        assert!(cases
            .iter()
            .any(|c| !c.cfg.core.dl1.sets().is_power_of_two()));
        assert!(cases.iter().any(|c| c.cfg.l2.associativity == 1));
        assert!(cases.iter().any(|c| !l2_sets(c).is_power_of_two()));
        assert!(cases
            .iter()
            .filter_map(|c| c.cfg.vm)
            .any(|t| t.associativity == 1 || !t.sets().is_power_of_two()));
        for c in &cases {
            let bank = c.cfg.l2.size_bytes / u64::from(c.cfg.l2_banks);
            assert_eq!(bank % (64 * c.cfg.l2.associativity as u64), 0);
        }
    }

    #[test]
    fn shrink_with_applies_every_failure_preserving_op() {
        let case = generate(11);
        let (minimal, applied) = shrink_with(&case, |_| true);
        // Everything that can simplify did.
        assert_eq!(minimal.cfg.mshr.kind, MshrKind::Cam);
        assert_eq!(minimal.cfg.memory.page_policy, PagePolicy::Open);
        assert_eq!(minimal.cfg.memory.refresh.period_ms, None);
        assert_eq!(minimal.mix, "M1");
        assert_eq!(minimal.run.measure_cycles, 6_000);
        assert_eq!(minimal.cfg.l2, Machines::builtin().m2d.l2);
        assert!(!applied.is_empty(), "{applied:?}");
        // And a predicate that never holds keeps the case untouched.
        let (same, none) = shrink_with(&case, |_| false);
        assert_eq!(same, case);
        assert!(none.is_empty());
    }

    #[test]
    fn repro_json_round_trips() {
        let r = Repro {
            seed: u64::MAX,
            shrink_ops: vec!["cam-mshr".into(), "short-window".into()],
            failure: "42 protocol violations: …".into(),
        };
        let text = r.to_json().pretty();
        let parsed =
            Repro::from_json(&Json::parse(&text).expect("valid json")).expect("round trip");
        assert_eq!(parsed, r);
    }

    #[test]
    fn repro_rejects_foreign_artifacts() {
        let v = Json::parse(r#"{"schema":"other/v9","seed":"1"}"#).unwrap();
        assert!(Repro::from_json(&v).is_err());
        let v = Json::parse(
            r#"{"schema":"stacksim-simcheck-repro/v1","seed":"not-a-number","shrink_ops":[]}"#,
        )
        .unwrap();
        assert!(Repro::from_json(&v).is_err());
    }

    #[test]
    fn materialize_applies_recorded_ops() {
        let repro = Repro {
            seed: 5,
            shrink_ops: vec!["cam-mshr".into(), "no-refresh".into()],
            failure: String::new(),
        };
        let case = materialize(&repro).expect("known ops");
        assert_eq!(case.cfg.mshr.kind, MshrKind::Cam);
        assert_eq!(case.cfg.memory.refresh.period_ms, None);
        let bad = Repro {
            shrink_ops: vec!["warp-drive".into()],
            ..repro
        };
        assert!(materialize(&bad).is_err());
    }
}
