//! Shape checks for the reproduced figures, run on a representative subset
//! of mixes at moderate windows: orderings and directions must match the
//! paper even where absolute factors differ.

use stacksim::experiments::{figure4, figure6a, figure6b, figure7, figure9, thermal_check};
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn run() -> RunConfig {
    RunConfig {
        warmup_cycles: 15_000,
        measure_cycles: 90_000,
        seed: 23,
        ..RunConfig::default()
    }
}

fn session() -> Session {
    Session::new(Machines::builtin())
}

fn hv_mixes() -> Vec<&'static Mix> {
    Mix::memory_intensive().collect()
}

#[test]
fn figure4_progression_is_monotone_on_gm() {
    let r = figure4(&session(), &run(), &hv_mixes()).unwrap();
    let gm = r.gm_hvh.expect("H/VH mixes provided");
    assert!(gm[0] > 1.0, "3D must beat 2D: {:.3}", gm[0]);
    assert!(
        gm[1] > gm[0],
        "wide bus must add over 3D: {:.3} vs {:.3}",
        gm[1],
        gm[0]
    );
    assert!(
        gm[2] > gm[1],
        "true-3D must add over wide: {:.3} vs {:.3}",
        gm[2],
        gm[1]
    );
    // Rough factor: paper says 2.17x for the full simple-3D stack; this
    // model's stronger memory sensitivity lands higher (see EXPERIMENTS.md).
    assert!(gm[2] > 1.6 && gm[2] < 8.0, "3D-fast factor {:.2}", gm[2]);
}

#[test]
fn figure6a_parallel_resources_beat_extra_cache() {
    let r = figure6a(&session(), &run(), &hv_mixes()).unwrap();
    let best_grid = r
        .grid
        .iter()
        .map(|c| c.speedup_hvh)
        .fold(f64::MIN, f64::max);
    let best_l2 = r
        .extra_l2
        .iter()
        .map(|&(_, s, _)| s)
        .fold(f64::MIN, f64::max);
    // §4.1: "adding less state in the form of more row buffers/ranks is
    // actually better than adding more state as additional L2 cache."
    assert!(
        best_grid > best_l2,
        "memory parallelism ({best_grid:.3}) must beat extra L2 ({best_l2:.3})"
    );
    // Extra L2 is worth almost nothing on memory-bound mixes.
    assert!(
        best_l2 < 1.1,
        "extra L2 speedup {best_l2:.3} (paper: ~1.002)"
    );
    // The 4 MC / 16 ranks corner must be a clear win (paper 1.338).
    let corner = r.cell(4, 16).unwrap().speedup_hvh;
    assert!(corner > 1.05, "4MC/16R corner {corner:.3}");
}

#[test]
fn figure6b_second_row_buffer_entry_gives_most_of_the_benefit() {
    let r = figure6b(&session(), &run(), &hv_mixes()).unwrap();
    for &mcs in &[2u16, 4] {
        let rb1 = r.cell(mcs, 1).unwrap().speedup_hvh;
        let rb2 = r.cell(mcs, 2).unwrap().speedup_hvh;
        let rb4 = r.cell(mcs, 4).unwrap().speedup_hvh;
        assert!(rb2 > rb1, "{mcs} MC: rb2 {rb2:.3} must beat rb1 {rb1:.3}");
        assert!(
            rb4 >= rb2 * 0.95,
            "{mcs} MC: rb4 {rb4:.3} collapsed vs rb2 {rb2:.3}"
        );
        // Majority of the gain comes from the first extra entry (paper §4.2).
        let first_step = rb2 - rb1;
        let rest = (rb4 - rb2).max(0.0);
        assert!(
            first_step > rest,
            "{mcs} MC: first entry (+{first_step:.3}) must dominate further entries (+{rest:.3})"
        );
    }
}

#[test]
fn figure7_mshr_scaling_helps_memory_bound_mixes() {
    let mixes = [Mix::by_name("VH1").unwrap(), Mix::by_name("VH2").unwrap()];
    let session = session();
    let r = figure7(&session, &session.machines().quad_mc, &run(), &mixes).unwrap();
    let gm = r.gm_hvh_pct.expect("VH mixes provided");
    // Paper: capacity scaling buys tens of percent on stream mixes.
    assert!(gm[1] > 5.0, "4xMSHR gm {:.1}%", gm[1]);
    // Dynamic must not collapse relative to the best static point.
    let best = gm[..3].iter().cloned().fold(f64::MIN, f64::max);
    assert!(
        gm[3] > best - 20.0,
        "dynamic {:.1}% vs best static {:.1}%",
        gm[3],
        best
    );
}

#[test]
fn figure9_vbf_is_practical_and_close_to_ideal() {
    let mixes = [Mix::by_name("VH2").unwrap(), Mix::by_name("H1").unwrap()];
    let session = session();
    let r = figure9(&session, &session.machines().dual_mc, &run(), &mixes).unwrap();
    let gm = r.sweep.gm_hvh_pct.expect("H/VH mixes provided");
    let ideal = gm[0];
    let vbf = gm[1];
    assert!(
        (ideal - vbf).abs() < 12.0,
        "VBF ({vbf:.1}%) must track the ideal CAM ({ideal:.1}%)"
    );
    // Paper: 2.31 probes/access dual-MC (first probe included).
    assert!(
        r.vbf_probes_per_access >= 1.0 && r.vbf_probes_per_access < 3.5,
        "probes/access {:.2}",
        r.vbf_probes_per_access
    );
}

#[test]
fn thermal_conclusion_holds() {
    let c = thermal_check(65.0, 8);
    assert!(
        c.within_limit,
        "paper's §2.4 conclusion: stack within SDRAM limit"
    );
}
