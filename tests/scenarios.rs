//! The scenario frontend's shipping contract: every file under
//! `scenarios/` must parse, validate and build, and is embedded in the
//! crate's `SHIPPED` table (the only definition of the paper's machines);
//! and the beyond-quad-core machines must actually simulate.

use std::path::{Path, PathBuf};

use stacksim::runner::{run_mix, RunConfig};
use stacksim::scenario::{Machines, Scenario, MACHINE_FILES, SHIPPED};
use stacksim_workload::Mix;

fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn every_shipped_scenario_parses_validates_and_builds() {
    let mut seen = 0;
    for entry in std::fs::read_dir(scenario_dir()).expect("scenarios/ must exist") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let scenario = Scenario::from_path(&path)
            .unwrap_or_else(|e| panic!("{} must load: {e}", path.display()));
        assert!(
            !scenario.name.is_empty(),
            "{} has an empty name",
            path.display()
        );
        scenario
            .config
            .validate()
            .unwrap_or_else(|e| panic!("{} is inconsistent: {e}", path.display()));
    }
    // The six Table 1 machines plus the two beyond-the-paper topologies.
    assert!(seen >= 8, "only {seen} scenario files found");
}

/// The embedded table is the directory: a new shipped file cannot be
/// missed by `Machines::builtin` or by the fuzzer, and the auto-detected
/// `scenarios/` set is the built-in one.
#[test]
fn embedded_table_lists_exactly_the_shipped_files() {
    let mut on_disk: Vec<String> = std::fs::read_dir(scenario_dir())
        .expect("scenarios/ must exist")
        .map(|e| e.expect("readable dir entry").file_name())
        .map(|name| name.into_string().expect("UTF-8 file name"))
        .filter(|name| name.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut embedded: Vec<&str> = SHIPPED.iter().map(|&(name, _)| name).collect();
    assert_eq!(&embedded[..MACHINE_FILES.len()], MACHINE_FILES);
    embedded.sort();
    assert_eq!(on_disk, embedded);
    assert_eq!(
        Machines::from_dir(&scenario_dir()),
        Ok(Machines::builtin()),
        "scenarios/ and the embedded set must be the same machines"
    );
}

#[test]
fn beyond_quad_core_scenarios_run_end_to_end() {
    for (file, cores) in [("8core-dual-stack.json", 8), ("16core-dual-stack.json", 16)] {
        let scenario = Scenario::from_path(&scenario_dir().join(file)).expect(file);
        assert_eq!(scenario.config.cores, cores, "{file}");
        let mix = Mix::by_name("HM1").expect("known mix");
        let result = run_mix(&scenario.config, mix, &RunConfig::quick())
            .unwrap_or_else(|e| panic!("{file} must simulate: {e}"));
        assert_eq!(result.per_core_ipc.len(), cores, "{file}");
        let total: u64 = result.committed.iter().sum();
        assert!(total > 100, "{file} stalled: {total} committed");
        assert!(result.hmipc > 0.0, "{file}: hmipc {}", result.hmipc);
    }
}

/// Determinism of the scenario path itself: loading the same file twice
/// and running it twice must agree bit for bit (the memo-key contract).
#[test]
fn scenario_loading_and_running_are_deterministic() {
    let dir = scenario_dir();
    let a = Scenario::from_path(&dir.join("8core-dual-stack.json")).expect("load once");
    let b = Scenario::from_path(&dir.join("8core-dual-stack.json")).expect("load twice");
    assert_eq!(a.config, b.config);
    assert_eq!(a.hash(), b.hash());
    let mix = Mix::by_name("VH1").expect("known mix");
    let r1 = run_mix(&a.config, mix, &RunConfig::quick()).expect("run once");
    let r2 = run_mix(&b.config, mix, &RunConfig::quick()).expect("run twice");
    assert_eq!(r1.committed, r2.committed);
    assert_eq!(r1.stats.flatten(), r2.stats.flatten());
}
