//! Integration tests for the parallel experiment engine: fanning a run
//! matrix across worker threads must be bit-identical to a sequential
//! [`run_mix`] loop, and the memo cache must hand every repeat caller the
//! same shared result instead of re-simulating.

use std::sync::Arc;

use stacksim::configs;
use stacksim::runner::{
    run_mix, run_mix_cached, run_mix_cached_with_source, ParallelRunner, RunConfig, RunPoint,
    RunSource,
};
use stacksim_workload::Mix;

/// A run window no other test uses, so the process-wide memo entries this
/// file creates are its own.
fn window(seed: u64) -> RunConfig {
    RunConfig {
        warmup_cycles: 8_000,
        measure_cycles: 40_000,
        seed,
        ..RunConfig::default()
    }
}

#[test]
fn parallel_matrix_is_bit_identical_to_sequential_run_mix() {
    let run = window(0xD17E_0001);
    let cfgs = [configs::cfg_2d(), configs::cfg_3d_fast()];
    let mixes = [Mix::by_name("M1").unwrap(), Mix::by_name("VH1").unwrap()];
    let points: Vec<RunPoint> = cfgs
        .iter()
        .flat_map(|cfg| mixes.iter().map(|&mix| (cfg.clone(), mix, run)))
        .collect();

    // The parallel path, forced onto several workers.
    let parallel = ParallelRunner::with_jobs(4).run_matrix(&points).unwrap();

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
    let run = window(0xD17E_0002);
    let mixes = [Mix::by_name("H2").unwrap(), Mix::by_name("HM2").unwrap()];
    let cfg = configs::cfg_3d();
    let points: Vec<RunPoint> = mixes.iter().map(|&m| (cfg.clone(), m, run)).collect();
    let serial = ParallelRunner::with_jobs(1).run_matrix(&points).unwrap();
    // The second pass hits the memo, which is exactly the guarantee: any
    // jobs value resolves every point to the same shared result.
    let wide = ParallelRunner::with_jobs(8).run_matrix(&points).unwrap();
    for (a, b) in serial.iter().zip(&wide) {
        assert!(
            Arc::ptr_eq(a, b),
            "matrix points must resolve to the shared memo entry"
        );
    }
}

#[test]
fn repeated_points_hit_the_memo() {
    let run = window(0xD17E_0003);
    let cfg = configs::cfg_3d_fast();
    let mix = Mix::by_name("HM1").unwrap();

    // Sibling tests fill the process-wide memo concurrently, so this checks
    // where each call's result came from, not how large the memo is.
    let (first, source) = run_mix_cached_with_source(&cfg, mix, &run).unwrap();
    assert_eq!(source, RunSource::Simulated, "first call must simulate");

    let (second, source) = run_mix_cached_with_source(&cfg, mix, &run).unwrap();
    assert_eq!(source, RunSource::Memo, "repeat call must hit the memo");
    assert!(
        Arc::ptr_eq(&first, &second),
        "repeat call must return the cached result"
    );

    // The same point inside a matrix also resolves to the cached run.
    let via_matrix = ParallelRunner::with_jobs(2)
        .run_matrix(&[(cfg.clone(), mix, run)])
        .unwrap();
    assert!(Arc::ptr_eq(&first, &via_matrix[0]));
}

#[test]
fn memo_distinguishes_every_key_component() {
    let run = window(0xD17E_0004);
    let cfg = configs::cfg_3d_fast();
    let mix = Mix::by_name("M2").unwrap();
    let base = run_mix_cached(&cfg, mix, &run).unwrap();

    // Different config, same mix and window.
    let other_cfg = run_mix_cached(&configs::cfg_2d(), mix, &run).unwrap();
    assert!(!Arc::ptr_eq(&base, &other_cfg));

    // Different mix, same config and window.
    let other_mix = run_mix_cached(&cfg, Mix::by_name("M3").unwrap(), &run).unwrap();
    assert!(!Arc::ptr_eq(&base, &other_mix));

    // Different window, same config and mix.
    let other_run = run_mix_cached(&cfg, mix, &window(0xD17E_0005)).unwrap();
    assert!(!Arc::ptr_eq(&base, &other_run));
}
