//! Quiescence fast-forward must be invisible: a run with cycle skipping
//! enabled has to produce byte-for-byte the same simulated outcome — every
//! committed count, every IPC, every metric, every trace event — as the
//! same run ticked cycle by cycle.
//!
//! The only permitted difference is the simulator's own skip accounting
//! (`ticked_cycles` / `skipped_cycles`), which describes how the run was
//! *executed*, not what the machine *did*.

use stacksim::config::SystemConfig;
use stacksim::runner::{run_mix, RunConfig};
use stacksim::scenario::Machines;
use stacksim::trace::TraceConfig;
use stacksim::System;
use stacksim_mshr::{MshrKind, TunerConfig};
use stacksim_stats::MetricsSink;
use stacksim_workload::Mix;

/// Flattened metric tree minus the skip meta-counters.
fn machine_metrics(stats: &MetricsSink) -> Vec<(String, f64)> {
    stats
        .flatten()
        .into_iter()
        .filter(|(name, _)| name != "ticked_cycles" && name != "skipped_cycles")
        .collect()
}

fn assert_bit_identical(label: &str, cfg: &SystemConfig, mix_name: &str, run: RunConfig) {
    let mix = Mix::by_name(mix_name).expect("known mix");
    let fast = run_mix(cfg, mix, &run).expect("fast-forward run");
    let slow = run_mix(cfg, mix, &run.tick_by_tick()).expect("tick-by-tick run");

    assert_eq!(fast.committed, slow.committed, "{label}: committed");
    assert_eq!(fast.per_core_ipc, slow.per_core_ipc, "{label}: ipc");
    assert_eq!(fast.hmipc, slow.hmipc, "{label}: hmipc");
    assert_eq!(
        fast.zero_commit_cores, slow.zero_commit_cores,
        "{label}: zero-commit cores"
    );
    assert_eq!(fast.trace, slow.trace, "{label}: trace streams");
    let fast_metrics = machine_metrics(&fast.stats);
    let slow_metrics = machine_metrics(&slow.stats);
    assert_eq!(
        fast_metrics.len(),
        slow_metrics.len(),
        "{label}: metric count"
    );
    for (f, s) in fast_metrics.iter().zip(&slow_metrics) {
        assert_eq!(f, s, "{label}: metric {}", s.0);
    }

    // The tick-by-tick run must really have ticked every cycle, and the
    // fast run must account for every cycle one way or the other.
    let cycles = slow.stats.get("cycles").expect("cycles metric");
    assert_eq!(slow.stats.get("skipped_cycles"), Some(0.0), "{label}");
    assert_eq!(slow.stats.get("ticked_cycles"), Some(cycles), "{label}");
    let skipped = fast.stats.get("skipped_cycles").expect("skip counter");
    let ticked = fast.stats.get("ticked_cycles").expect("tick counter");
    assert_eq!(skipped + ticked, cycles, "{label}: cycle accounting");
}

/// Runs `mix` past the quick warmup, then `chunks` more `run_cycles(chunk)`
/// calls, fast-forwarded and tick by tick side by side, and requires equal
/// machine metrics after every call. MSHR-full waiters are charged lazily,
/// so this pins the settling `run_cycles` does before it returns.
fn assert_bit_identical_in_chunks(
    label: &str,
    cfg: &SystemConfig,
    mix_name: &str,
    chunk: u64,
    chunks: u64,
) {
    let mix = Mix::by_name(mix_name).expect("known mix");
    let run = RunConfig::quick();
    let mut fast = System::for_mix(cfg, mix, run.seed).expect("fast-forward system");
    let mut slow = System::for_mix(cfg, mix, run.seed).expect("tick-by-tick system");
    slow.set_fast_forward(false);
    fast.run_cycles(run.warmup_cycles);
    slow.run_cycles(run.warmup_cycles);
    for i in 1..=chunks {
        fast.run_cycles(chunk);
        slow.run_cycles(chunk);
        assert_eq!(
            machine_metrics(&fast.metrics()),
            machine_metrics(&slow.metrics()),
            "{label}: metrics after chunk {i}"
        );
    }
    let retries = slow.metrics().get("mshr_full_retries").expect("retries");
    assert!(retries > 0.0, "{label}: no MSHR-full waits to settle");
}

#[test]
fn fast_forward_matches_tick_by_tick_on_2d() {
    // Off-chip memory, single MC: long stalls, the skip-friendliest case.
    let cfg = Machines::builtin().m2d;
    assert_bit_identical("2d/VH1", &cfg, "VH1", RunConfig::quick());
    assert_bit_identical("2d/M1", &cfg, "M1", RunConfig::quick());
}

#[test]
fn fast_forward_matches_tick_by_tick_on_3d_multi_mc() {
    let cfg = Machines::builtin().quad_mc;
    assert_bit_identical("quad-mc/VH2", &cfg, "VH2", RunConfig::quick());
    assert_bit_identical("quad-mc/HM1", &cfg, "HM1", RunConfig::quick());
}

#[test]
fn fast_forward_matches_tick_by_tick_with_vbf_and_dynamic_mshr() {
    // VBF MSHRs add probe-latency events; the dynamic tuner adds phase
    // boundaries the skip must stop at, and each new capacity limit wakes
    // every request parked on a full MSHR bank.
    let cfg = Machines::builtin()
        .dual_mc
        .with_mshr_kind(MshrKind::Vbf)
        .with_mshr_scale(8)
        .with_dynamic_mshr(TunerConfig {
            sample_cycles: 500,
            apply_cycles: 5_000,
            divisors: vec![1, 2, 4],
        });
    assert_bit_identical("vbf+tuner/VH1", &cfg, "VH1", RunConfig::quick());
}

#[test]
fn fast_forward_matches_tick_by_tick_when_l2_prefetch_fills_wake_waiters() {
    // Streaming mixes keep the L2 prefetchers busy. A prefetch fill frees
    // no MSHR entry, so a request parked on a full bank for that line is
    // released by the fill of its line alone.
    assert_bit_identical(
        "l2-prefetch/dual-mc/VH2",
        &Machines::builtin().dual_mc,
        "VH2",
        RunConfig::quick(),
    );
}

#[test]
fn mshr_waiters_settle_between_short_run_cycles_calls() {
    assert_bit_identical_in_chunks(
        "chunks-of-1/2d/VH1",
        &Machines::builtin().m2d,
        "VH1",
        1,
        3_000,
    );
    assert_bit_identical_in_chunks(
        "chunks-of-7/quad-mc/VH2",
        &Machines::builtin().quad_mc,
        "VH2",
        7,
        3_000,
    );
}

#[test]
fn fast_forward_matches_tick_by_tick_while_tracing() {
    // Sampled trace streams impose periodic barriers; the streams
    // themselves (timestamps included) must come out identical.
    let mut trace = TraceConfig::all();
    trace.sample_interval = 512;
    let run = RunConfig::quick().with_trace(trace);
    assert_bit_identical("traced/H1", &Machines::builtin().m3d_fast, "H1", run);
}

#[test]
fn partial_quiescence_matches_tick_by_tick_with_mcs_draining() {
    // The partial-quiescence slice: every core parked on fills while one
    // or more MCs still drain their queues. Multi-MC aggressive configs
    // exercise the MC-only tick path (cores replayed via note_skipped,
    // memory stages run for real) far more than whole-machine jumps.
    assert_bit_identical(
        "partial/quad-mc/VH1",
        &Machines::builtin().quad_mc,
        "VH1",
        RunConfig::quick(),
    );
    assert_bit_identical(
        "partial/dual-mc/HM1",
        &Machines::builtin().dual_mc,
        "HM1",
        RunConfig::quick(),
    );
}

#[test]
fn partial_quiescence_matches_tick_by_tick_on_branch_refill_heavy_mix() {
    // Compute/branch-bound cores spend their idle time fetch-stalled after
    // mispredicts, often with commits still draining from the window —
    // the commit-replay case of the slice proof. Fast 3D memory keeps the
    // fills short so branch stalls dominate the inert windows.
    assert_bit_identical(
        "partial/3d-fast/M1",
        &Machines::builtin().m3d_fast,
        "M1",
        RunConfig::quick(),
    );
    assert_bit_identical(
        "partial/quad-mc/M2",
        &Machines::builtin().quad_mc,
        "M2",
        RunConfig::quick(),
    );
}

#[test]
fn partial_quiescence_skips_cycles_on_figure6_shaped_configs() {
    // The figure 6/7 sweeps run aggressive multi-MC machines where
    // whole-machine quiescence is rare; the MC-only slice is what makes
    // their skip fraction material. Floors are set conservatively below
    // measured quick-profile fractions so legitimate model changes don't
    // trip them, while a partial-quiescence regression (fraction collapses
    // toward the pre-slice level) still does.
    for (label, cfg, mix_name, floor) in [
        (
            "figure6-shaped/quad-mc/VH1",
            Machines::builtin().quad_mc,
            "VH1",
            0.10,
        ),
        (
            "figure6-shaped/dual-mc/HM1",
            Machines::builtin().dual_mc,
            "HM1",
            0.08,
        ),
    ] {
        let mix = Mix::by_name(mix_name).expect("known mix");
        let result = run_mix(&cfg, mix, &RunConfig::quick()).expect("run");
        let skipped = result.stats.get("skipped_cycles").expect("skip counter");
        let cycles = result.stats.get("cycles").expect("cycles");
        assert!(
            skipped > floor * cycles,
            "{label}: expected skip fraction above {floor}, got {skipped} of {cycles}"
        );
    }
}

#[test]
fn memory_bound_mixes_skip_most_cycles() {
    // The point of the whole exercise: on a memory-bound mix the machine
    // is quiescent more often than not.
    let mix = Mix::by_name("VH1").expect("known mix");
    let result = run_mix(&Machines::builtin().m2d, mix, &RunConfig::quick()).expect("run");
    let skipped = result.stats.get("skipped_cycles").expect("skip counter");
    let cycles = result.stats.get("cycles").expect("cycles");
    assert!(
        skipped > 0.4 * cycles,
        "expected a majority-ish skip fraction, got {skipped} of {cycles}"
    );
}
