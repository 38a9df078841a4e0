//! Property-based exploration of the configuration space: any *valid*
//! machine must simulate without panicking, conserve requests, and respect
//! its declared resource limits; invalid machines must be rejected at
//! construction.

use proptest::prelude::*;

use stacksim::scenario::{Machines, Scenario, ScenarioError};
use stacksim::{System, SystemConfig};
use stacksim_mshr::MshrKind;
use stacksim_types::InterleaveGranularity;
use stacksim_workload::Mix;

fn arbitrary_config() -> impl Strategy<Value = SystemConfig> {
    let mcs = prop_oneof![Just(1u16), Just(2), Just(4)];
    let ranks = prop_oneof![Just(8u16), Just(16)];
    let rbe = 1usize..=4;
    let mshr_scale = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)];
    let kind = prop_oneof![
        Just(MshrKind::Cam),
        Just(MshrKind::Vbf),
        Just(MshrKind::DirectLinear),
        Just(MshrKind::DirectQuadratic),
        Just(MshrKind::Hierarchical),
    ];
    let interleave = prop_oneof![
        Just(InterleaveGranularity::Line),
        Just(InterleaveGranularity::Page)
    ];
    let bus = prop_oneof![Just(8u32), Just(16), Just(64)];
    let machines = Machines::builtin();
    (mcs, ranks, rbe, mshr_scale, kind, interleave, bus).prop_map(
        move |(mcs, ranks, rbe, scale, kind, interleave, bus)| {
            let mut cfg = machines
                .aggressive(mcs, ranks, rbe)
                .with_mshr_scale(scale)
                .with_mshr_kind(kind);
            cfg.l2_interleave = interleave;
            cfg.memory.bus_width_bytes = bus;
            cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn valid_configs_simulate_cleanly(cfg in arbitrary_config(), seed in 0u64..1000) {
        prop_assert!(cfg.validate().is_ok());
        let mix = Mix::by_name("HM1").unwrap();
        let mut sys = System::for_mix(&cfg, mix, seed).unwrap();
        sys.run_cycles(6_000);
        let stats = sys.metrics();
        prop_assert!(sys.total_committed() > 0, "no forward progress");
        prop_assert_eq!(stats.get("spurious_completions"), Some(0.0));
        // Probe statistic is sane for every MSHR organization.
        if let Some(p) = stats.get("mshr_probes_per_access") {
            let cap = cfg.mshr_entries_per_bank() as f64;
            prop_assert!(p >= 1.0 && p <= cap.max(2.0), "probes {} beyond capacity {}", p, cap);
        }
    }
}

#[test]
fn invalid_shapes_are_rejected() {
    // Ranks not divisible among MCs.
    let mut cfg = Machines::builtin().m3d_fast;
    cfg.memory.mcs = 3;
    assert!(cfg.validate().is_err());
    // MSHR entries not divisible among banks.
    let mut cfg = Machines::builtin().quad_mc;
    cfg.mshr.total_entries = 10;
    assert!(cfg.validate().is_err());
    // MRQ smaller than the MC count.
    let mut cfg = Machines::builtin().quad_mc;
    cfg.memory.mrq_total = 2;
    assert!(cfg.validate().is_err());
    // Degenerate clocks.
    let mut cfg = Machines::builtin().m2d;
    cfg.memory.bus_clock_divisor = 0;
    assert!(cfg.validate().is_err());
    // Cache geometries that do not split into whole sets: each error names
    // the offending key.
    for (cfg, key) in ragged_cache_geometries() {
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains(key), "{err} does not name {key}");
    }
}

/// Machines whose caches do not split into whole sets, with the scenario
/// key each error must name.
fn ragged_cache_geometries() -> Vec<(SystemConfig, &'static str)> {
    let base = Machines::builtin().m2d;
    let mut cases = Vec::new();
    // 12 MB + 64 B: divides among 16 banks, but a bank is not whole lines.
    let mut cfg = base.clone();
    cfg.l2.size_bytes = 12_582_976;
    cases.push((cfg, "machine.l2.size_bytes"));
    // 12 MB + 8 B: does not divide among 16 banks.
    let mut cfg = base.clone();
    cfg.l2.size_bytes = 12_582_920;
    cases.push((cfg, "machine.l2.size_bytes"));
    // Whole lines per bank, but not whole 24-way sets.
    let mut cfg = base.clone();
    cfg.l2.size_bytes = (12 << 20) + 16 * 64;
    cases.push((cfg, "machine.l2.size_bytes"));
    // 385 lines do not split into 12-way sets.
    let mut cfg = base.clone();
    cfg.core.dl1.size_bytes = 24_640;
    cases.push((cfg, "machine.core: dl1.size_bytes"));
    // The same DL1 on one core of a heterogeneous machine.
    let mut cfg = base.clone();
    cfg.per_core = vec![cfg.core.clone(); cfg.cores];
    cfg.per_core[2].dl1.size_bytes = 24_640;
    cases.push((cfg, "machine.per_core[2]: dl1.size_bytes"));
    // A DTLB that is not whole sets.
    let mut cfg = base;
    cfg.vm = Some(stacksim_vm::TlbConfig {
        entries: 10,
        ..stacksim_vm::TlbConfig::dtlb_penryn()
    });
    cases.push((cfg, "machine.vm.entries"));
    cases
}

#[test]
fn system_rejects_what_validate_rejects() {
    let mut cfg = Machines::builtin().quad_mc;
    cfg.mshr.total_entries = 10;
    let mix = Mix::by_name("M1").unwrap();
    assert!(System::for_mix(&cfg, mix, 0).is_err());
    for (cfg, key) in ragged_cache_geometries() {
        match System::for_mix(&cfg, mix, 0) {
            Err(e) => assert!(e.to_string().contains(key), "{e} does not name {key}"),
            Ok(_) => panic!("{key}: ragged geometry built a system"),
        }
    }
}

#[test]
fn ragged_cache_scenarios_fail_typed() {
    for (machine, key) in [
        (
            r#"{"l2": {"size_bytes": 12582976}}"#,
            "machine.l2.size_bytes",
        ),
        (
            r#"{"core": {"dl1": {"size_bytes": 24640}}}"#,
            "machine.core: dl1.size_bytes",
        ),
    ] {
        let text = format!(
            r#"{{"schema": "stacksim-scenario/1", "name": "ragged", "machine": {machine}}}"#
        );
        match Scenario::from_str(&text) {
            Err(ScenarioError::Config(e)) => {
                assert!(e.to_string().contains(key), "{e} does not name {key}")
            }
            other => panic!("{text}: expected a config error, got {other:?}"),
        }
    }
}
