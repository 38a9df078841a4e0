//! Integration tests for the parallel experiment engine: fanning a run
//! matrix across worker threads must be bit-identical to a sequential
//! [`run_mix`] loop, and a session's memo must hand every repeat caller the
//! same shared result instead of re-simulating. Every test owns its
//! [`Session`], so memo sizes and tier counts are exact.

use std::sync::Arc;

use stacksim::experiments::{ablation_energy, ablation_smart_refresh, table2a};
use stacksim::runner::{run_mix, RunConfig, RunPoint, RunSource, Session};
use stacksim::scenario::Machines;
use stacksim::SystemConfig;
use stacksim_workload::{Benchmark, Mix};

fn window() -> RunConfig {
    RunConfig {
        warmup_cycles: 8_000,
        measure_cycles: 40_000,
        seed: 0xD17E,
        ..RunConfig::default()
    }
}

fn session(jobs: usize) -> Session {
    Session::new(Machines::builtin()).with_jobs(jobs)
}

#[test]
fn parallel_matrix_is_bit_identical_to_sequential_run_mix() {
    let run = window();
    let machines = Machines::builtin();
    let cfgs = [machines.m2d, machines.m3d_fast];
    let mixes = [Mix::by_name("M1").unwrap(), Mix::by_name("VH1").unwrap()];
    let points: Vec<RunPoint> = cfgs
        .iter()
        .flat_map(|cfg| mixes.iter().map(|&mix| (cfg.clone(), mix, run)))
        .collect();

    // The parallel path, forced onto several workers.
    let session = session(4);
    let parallel = session.run_matrix(&points).unwrap();
    assert_eq!(session.memo_len(), 4);
    assert_eq!(session.tier_stats(), (0, 0, 4));

    // The sequential reference: a plain loop of uncached run_mix calls.
    for ((cfg, mix, run), par) in points.iter().zip(&parallel) {
        let seq = run_mix(cfg, mix, run).unwrap();
        assert_eq!(
            seq.committed, par.committed,
            "{}: committed diverged",
            mix.name
        );
        assert_eq!(
            seq.hmipc.to_bits(),
            par.hmipc.to_bits(),
            "{}: hmipc diverged ({} vs {})",
            mix.name,
            seq.hmipc,
            par.hmipc
        );
        assert_eq!(
            seq.per_core_ipc, par.per_core_ipc,
            "{}: per-core IPC diverged",
            mix.name
        );
    }
}

#[test]
fn worker_count_cannot_perturb_results() {
    let run = window();
    let mixes = [Mix::by_name("H2").unwrap(), Mix::by_name("HM2").unwrap()];
    let cfg = Machines::builtin().m3d;
    let points: Vec<RunPoint> = mixes.iter().map(|&m| (cfg.clone(), m, run)).collect();
    let serial = session(1).run_matrix(&points).unwrap();
    let wide = session(8).run_matrix(&points).unwrap();
    for (a, b) in serial.iter().zip(&wide) {
        assert_eq!(a.committed, b.committed, "{}: committed diverged", a.mix);
        assert_eq!(a.hmipc.to_bits(), b.hmipc.to_bits(), "{}: hmipc", a.mix);
        assert_eq!(a.stats.flatten(), b.stats.flatten(), "{}: metrics", a.mix);
    }
}

#[test]
fn repeated_points_hit_the_memo() {
    let run = window();
    let cfg = Machines::builtin().m3d_fast;
    let mix = Mix::by_name("HM1").unwrap();
    let session = session(2);

    let (first, source) = session.run_mix_cached(&cfg, mix, &run).unwrap();
    assert_eq!(source, RunSource::Simulated, "first call must simulate");

    let (second, source) = session.run_mix_cached(&cfg, mix, &run).unwrap();
    assert_eq!(source, RunSource::Memo, "repeat call must hit the memo");
    assert!(
        Arc::ptr_eq(&first, &second),
        "repeat call must return the cached result"
    );

    // The same point inside a matrix also resolves to the cached run.
    let via_matrix = session.run_matrix(&[(cfg.clone(), mix, run)]).unwrap();
    assert!(Arc::ptr_eq(&first, &via_matrix[0]));
    assert_eq!(session.memo_len(), 1);
    assert_eq!(session.tier_stats(), (0, 0, 1));
}

#[test]
fn concurrent_callers_of_one_point_simulate_it_once() {
    let run = window();
    let point: RunPoint = (Machines::builtin().m2d, Mix::by_name("H1").unwrap(), run);
    let session = session(4);
    let results = session.run_matrix(&vec![point; 8]).unwrap();
    assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
    assert_eq!(session.memo_len(), 1);
    assert_eq!(session.tier_stats(), (0, 0, 1), "one simulation per key");
}

#[test]
fn memo_distinguishes_every_key_component() {
    let run = window();
    let cfg = Machines::builtin().m3d_fast;
    let mix = Mix::by_name("M2").unwrap();
    let session = session(1);
    let cached = |cfg: &SystemConfig, mix: &'static Mix, run: &RunConfig| {
        session.run_mix_cached(cfg, mix, run).unwrap().0
    };
    let base = cached(&cfg, mix, &run);

    // Different config, same mix and window.
    let other_cfg = cached(&Machines::builtin().m2d, mix, &run);
    assert!(!Arc::ptr_eq(&base, &other_cfg));

    // Different mix, same config and window.
    let other_mix = cached(&cfg, Mix::by_name("M3").unwrap(), &run);
    assert!(!Arc::ptr_eq(&base, &other_mix));

    // Different window, same config and mix.
    let other_run = cached(&cfg, mix, &RunConfig { seed: 5, ..run });
    assert!(!Arc::ptr_eq(&base, &other_run));

    assert_eq!(session.memo_len(), 4);
    assert_eq!(session.tier_stats(), (0, 0, 4));
}

#[test]
fn two_sessions_share_nothing() {
    let run = window();
    let cfg = Machines::builtin().m2d;
    let mix = Mix::by_name("VH3").unwrap();

    let a = session(1);
    let (in_a, source) = a.run_mix_cached(&cfg, mix, &run).unwrap();
    assert_eq!(source, RunSource::Simulated);
    assert_eq!(a.memo_len(), 1);

    let b = session(1);
    assert_eq!(b.memo_len(), 0, "a new session starts with an empty memo");
    assert_eq!(b.tier_stats(), (0, 0, 0));
    assert_eq!(b.skip_totals(), (0, 0));
    let (in_b, source) = b.run_mix_cached(&cfg, mix, &run).unwrap();
    assert_eq!(source, RunSource::Simulated, "A's memo must not serve B");
    assert!(!Arc::ptr_eq(&in_a, &in_b));
    assert_eq!(in_a.hmipc.to_bits(), in_b.hmipc.to_bits());
    assert_eq!(a.tier_stats(), (0, 0, 1), "B's run is not counted in A");
}

/// Drivers that build `System` directly, bypassing the memo, still charge
/// their simulated cycles to the session (the `--timings` rows) without
/// touching the memo or the tier counters (the `store:` line).
#[test]
fn direct_system_drivers_count_their_cycles() {
    let run = RunConfig {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
        ..window()
    };
    let check = |name: &str, session: &Session| {
        let (skipped, ticked) = session.skip_totals();
        assert!(ticked > 0, "{name}: no ticked cycles counted");
        assert!(
            skipped + ticked >= run.warmup_cycles + run.measure_cycles,
            "{name}: fewer cycles counted than one run simulates"
        );
        assert_eq!(session.memo_len(), 0, "{name}: memo touched");
        assert_eq!(session.tier_stats(), (0, 0, 0), "{name}: tiers touched");
    };

    let s = session(2);
    let first: Vec<&'static Benchmark> = Benchmark::all().iter().take(1).collect();
    table2a(&s, &run, &first).unwrap();
    check("table2a", &s);

    let s = session(2);
    ablation_smart_refresh(&s, &run, Mix::by_name("VH1").unwrap()).unwrap();
    check("ablation-smart-refresh", &s);

    let s = session(2);
    ablation_energy(&s, &run, Mix::by_name("H2").unwrap()).unwrap();
    check("ablation-energy", &s);
}
