//! The DRAM protocol checker against real traced simulations: legal runs
//! produce zero violations across page policies, refresh modes and MC
//! counts, and an injected timing bug is caught.

use stacksim::config::SystemConfig;
use stacksim::runner::{run_mix, RunConfig, RunResult};
use stacksim::scenario::Machines;
use stacksim_dram::{DramCmdKind, PagePolicy};
use stacksim_simcheck::protocol::{check_run, check_stream, ProtocolParams, ProtocolRule};
use stacksim_types::Cycle;
use stacksim_workload::Mix;

fn traced_run(cfg: &SystemConfig, mix_name: &str) -> RunResult {
    let mix = Mix::by_name(mix_name).expect("known mix");
    let run = RunConfig::quick().with_dram_trace();
    run_mix(cfg, mix, &run).expect("traced run")
}

fn assert_clean(label: &str, cfg: &SystemConfig, mix: &str) {
    let result = traced_run(cfg, mix);
    let trace = result.trace.as_ref().expect("trace recorded");
    let cmds: usize = trace.iter().map(Vec::len).sum();
    assert!(cmds > 100, "{label}: only {cmds} commands traced");
    let violations = check_run(cfg, &result).expect("valid config");
    assert!(
        violations.is_empty(),
        "{label}: {} violations, first: {}",
        violations.len(),
        violations[0]
    );
}

#[test]
fn off_chip_memory_with_refresh_obeys_the_protocol() {
    // The 2D baseline refreshes every 64 ms and pays the full tRP/tRCD/tCAS chain.
    assert_clean("2d/VH1", &Machines::builtin().m2d, "VH1");
}

#[test]
fn stacked_memory_obeys_the_protocol() {
    assert_clean("3d-fast/H1", &Machines::builtin().m3d_fast, "H1");
    assert_clean("quad-mc/VH2", &Machines::builtin().quad_mc, "VH2");
}

#[test]
fn closed_page_and_smart_refresh_obey_the_protocol() {
    let mut cfg = Machines::builtin().m3d;
    cfg.memory.page_policy = PagePolicy::Closed;
    assert_clean("3d/closed/H2", &cfg, "H2");

    let mut cfg = Machines::builtin().m3d;
    cfg.memory.smart_refresh = true;
    cfg.memory.row_buffer_entries = 4;
    assert_clean("3d/smart-refresh/VH1", &cfg, "VH1");
}

#[test]
fn injected_trp_off_by_one_is_caught() {
    let cfg = Machines::builtin().m2d;
    let result = traced_run(&cfg, "VH1");
    let params = ProtocolParams::for_config(&cfg).expect("valid config");
    let mut streams = result.trace.expect("trace recorded");

    // Find an ACT directly following its PRE on the same bank and pull it
    // one cycle into the precharge window — the classic off-by-one.
    let (mc, index) = streams
        .iter()
        .enumerate()
        .find_map(|(mc, cmds)| {
            (1..cmds.len())
                .find(|&i| {
                    cmds[i].kind == DramCmdKind::Activate
                        && cmds[i - 1].kind == DramCmdKind::Precharge
                        && cmds[i - 1].rank == cmds[i].rank
                        && cmds[i - 1].bank == cmds[i].bank
                })
                .map(|i| (mc, i))
        })
        .expect("an open-page trace contains PRE->ACT pairs");
    let cmds = &mut streams[mc];
    cmds[index].at = Cycle::new(cmds[index].at.raw() - 1);

    let violations = check_stream(&params, mc, cmds);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == ProtocolRule::TrpViolated && v.index == index),
        "expected a tRP violation at index {index}, got {violations:?}"
    );
}

#[test]
fn wrong_refresh_cadence_is_caught() {
    // Pretend the configuration promised refreshes half as often as the
    // machine actually performs them: the checker must notice the surplus.
    let cfg = Machines::builtin().m2d;
    let result = traced_run(&cfg, "M1");
    let mut params = ProtocolParams::for_config(&cfg).expect("valid config");
    let interval = params.refresh_interval.expect("the 2D baseline refreshes");
    params.refresh_interval = Some(stacksim_types::Cycles::new(interval.raw() * 2));

    let trace = result.trace.as_ref().expect("trace recorded");
    let refs: usize = trace
        .iter()
        .flatten()
        .filter(|c| c.kind == DramCmdKind::Refresh)
        .count();
    assert!(refs > 0, "expected refreshes in a 2D trace");
    let violations = stacksim_simcheck::protocol::check_trace(&params, trace);
    assert!(
        violations
            .iter()
            .any(|v| v.rule == ProtocolRule::RefreshTooFast),
        "expected refresh-too-fast under a doubled interval, got {} violations",
        violations.len()
    );
}
