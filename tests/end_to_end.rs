//! Cross-crate end-to-end invariants: whatever configuration and workload
//! run, the machine must conserve requests, stay deterministic, and keep
//! its statistics self-consistent.

use stacksim::runner::{run_mix, RunConfig};
use stacksim::{configs, System, SystemConfig};
use stacksim_mshr::MshrKind;
use stacksim_workload::Mix;

fn all_machine_shapes() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("2d", configs::cfg_2d()),
        ("3d", configs::cfg_3d()),
        ("3d_wide", configs::cfg_3d_wide()),
        ("3d_fast", configs::cfg_3d_fast()),
        ("dual_mc", configs::cfg_dual_mc()),
        ("quad_mc", configs::cfg_quad_mc()),
        (
            "quad_vbf",
            configs::cfg_quad_mc()
                .with_mshr_scale(8)
                .with_mshr_kind(MshrKind::Vbf),
        ),
        (
            "dual_hier",
            configs::cfg_dual_mc()
                .with_mshr_scale(4)
                .with_mshr_kind(MshrKind::Hierarchical),
        ),
        (
            "quad_quadratic",
            configs::cfg_quad_mc()
                .with_mshr_scale(8)
                .with_mshr_kind(MshrKind::DirectQuadratic),
        ),
    ]
}

#[test]
fn every_machine_shape_makes_progress_on_every_class() {
    for (name, cfg) in all_machine_shapes() {
        for mix_name in ["VH2", "H3", "HM2", "M1"] {
            let mix = Mix::by_name(mix_name).unwrap();
            let mut sys = System::for_mix(&cfg, mix, 3).unwrap();
            sys.run_cycles(25_000);
            assert!(
                sys.total_committed() > 100,
                "{name} stalled on {mix_name}: {} committed",
                sys.total_committed()
            );
        }
    }
}

#[test]
fn no_spurious_completions_anywhere() {
    for (name, cfg) in all_machine_shapes() {
        let mix = Mix::by_name("H1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, 9).unwrap();
        sys.run_cycles(25_000);
        let stats = sys.metrics();
        assert_eq!(
            stats.get("spurious_completions"),
            Some(0.0),
            "{name}: memory completions must match MSHR entries"
        );
        for c in 0..4 {
            assert_eq!(
                stats.get(&format!("core{c}.spurious_fills")),
                Some(0.0),
                "{name}: core fills must match L1 MSHR entries"
            );
        }
    }
}

#[test]
fn request_conservation_under_stream_load() {
    // Every demand L2 miss eventually becomes exactly one memory read (or
    // merges); reads issued at the MCs can never exceed requests created.
    let cfg = configs::cfg_quad_mc();
    let mix = Mix::by_name("VH1").unwrap();
    let mut sys = System::for_mix(&cfg, mix, 5).unwrap();
    sys.run_cycles(60_000);
    let stats = sys.metrics();
    let issued: f64 = (0..4)
        .map(|i| stats.get(&format!("mc{i}.issued")).unwrap_or(0.0))
        .sum();
    let misses = stats.get("l2.misses").unwrap();
    let prefetches = stats.get("l2_prefetches_issued").unwrap();
    let writebacks: f64 = (0..4)
        .map(|i| stats.get(&format!("mc{i}.ranks.writes")).unwrap_or(0.0))
        .sum();
    assert!(
        issued <= misses + prefetches + writebacks,
        "issued {issued} exceeds demand {misses} + prefetch {prefetches} + wb {writebacks}"
    );
    assert!(issued > 0.0);
}

#[test]
fn identical_runs_are_bit_identical() {
    let cfg = configs::cfg_dual_mc();
    let run = RunConfig {
        warmup_cycles: 5_000,
        measure_cycles: 30_000,
        seed: 42,
        ..RunConfig::default()
    };
    let mix = Mix::by_name("VH3").unwrap();
    let a = run_mix(&cfg, mix, &run).unwrap();
    let b = run_mix(&cfg, mix, &run).unwrap();
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.per_core_ipc, b.per_core_ipc);
    // Full metric trees must agree too.
    let pairs: Vec<_> = a
        .stats
        .flatten()
        .into_iter()
        .zip(b.stats.flatten())
        .collect();
    assert!(!pairs.is_empty());
    for ((ka, va), (kb, vb)) in pairs {
        assert_eq!(ka, kb);
        assert_eq!(va, vb, "stat {ka} diverged");
    }
}

#[test]
fn different_seeds_change_timing_but_not_validity() {
    let cfg = configs::cfg_3d_fast();
    let mix = Mix::by_name("H2").unwrap();
    let mut totals = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut sys = System::for_mix(&cfg, mix, seed).unwrap();
        sys.run_cycles(20_000);
        assert_eq!(sys.metrics().get("spurious_completions"), Some(0.0));
        totals.push(sys.total_committed());
    }
    assert!(
        totals.windows(2).any(|w| w[0] != w[1]),
        "seeds must matter: {totals:?}"
    );
}

#[test]
fn hmipc_equals_harmonic_mean_of_core_ipcs() {
    let cfg = configs::cfg_3d_fast();
    let run = RunConfig {
        warmup_cycles: 5_000,
        measure_cycles: 30_000,
        seed: 8,
        ..RunConfig::default()
    };
    let r = run_mix(&cfg, Mix::by_name("HM1").unwrap(), &run).unwrap();
    let inv: f64 = r.per_core_ipc.iter().map(|i| 1.0 / i).sum();
    let expect = r.per_core_ipc.len() as f64 / inv;
    assert!((r.hmipc - expect).abs() < 1e-12);
}
