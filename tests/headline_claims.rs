//! Integration test for the paper's headline claims (abstract, §3, §4.2,
//! §5.2): the cumulative speedup chain must reproduce in *shape* — who
//! wins, ordering, and rough factors — across the memory-intensive mixes.

use stacksim::configs;
use stacksim::experiments::headline;
use stacksim::runner::{run_mix, RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_stats::geometric_mean;
use stacksim_workload::Mix;

fn run() -> RunConfig {
    RunConfig {
        warmup_cycles: 15_000,
        measure_cycles: 90_000,
        seed: 11,
        ..RunConfig::default()
    }
}

#[test]
fn cumulative_speedup_chain_reproduces() {
    let mixes: Vec<&'static Mix> = Mix::memory_intensive().collect();
    let h = headline(&Session::new(Machines::builtin()), &run(), &mixes).unwrap();

    // Paper: 3D-fast is 2.17x over 2D. Accept a generous band — the
    // substrate is a different core model — but demand a clear win of
    // roughly that magnitude.
    assert!(
        h.fast_over_2d > 1.5 && h.fast_over_2d < 8.0,
        "3D-fast over 2D: {:.2}x (paper 2.17x; this model overshoots, see EXPERIMENTS.md)",
        h.fast_over_2d
    );

    // Paper: the aggressive organization adds 1.75x over 3D-fast.
    assert!(
        h.aggressive_over_fast > 1.15 && h.aggressive_over_fast < 3.5,
        "aggressive over 3D-fast: {:.2}x (paper 1.75x)",
        h.aggressive_over_fast
    );

    // Paper: the scalable MHA adds another 17.8% (quad-MC).
    assert!(
        h.mha_over_aggressive > 1.02,
        "MHA over aggressive: {:.2}x (paper 1.18x)",
        h.mha_over_aggressive
    );

    // And the full proposal lands far above the 2D machine (paper 4.46x).
    assert!(
        h.total_over_2d > 2.5,
        "total over 2D: {:.2}x (paper 4.46x)",
        h.total_over_2d
    );
    // Cumulative consistency.
    assert!(h.total_over_2d > h.fast_over_2d);
}

#[test]
fn gains_shrink_for_moderate_mixes() {
    // §3: "the moderate-miss applications do not observe as large of a
    // benefit ... these programs have better L2 cache hit rates".
    let rc = run();
    let speedup_of = |mix_names: &[&str]| -> f64 {
        let vals: Vec<f64> = mix_names
            .iter()
            .map(|n| {
                let mix = Mix::by_name(n).unwrap();
                let base = run_mix(&configs::cfg_2d(), mix, &rc).unwrap();
                let fast = run_mix(&configs::cfg_3d_fast(), mix, &rc).unwrap();
                fast.speedup_over(&base).unwrap()
            })
            .collect();
        geometric_mean(&vals).unwrap()
    };
    let memory_bound = speedup_of(&["VH1", "VH2"]);
    let moderate = speedup_of(&["M1", "M3"]);
    assert!(
        memory_bound > moderate,
        "memory-bound mixes ({memory_bound:.2}x) must gain more than moderate ones ({moderate:.2}x)"
    );
}
