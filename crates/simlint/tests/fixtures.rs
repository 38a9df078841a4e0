//! Integration tests against the fixture workspace in
//! `tests/fixtures/ws/`: every rule fires exactly once on its injected
//! violation, every pragma'd twin is suppressed, and the text report
//! matches the checked-in snapshot byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

use stacksim_simlint::engine;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn scan() -> engine::Report {
    engine::scan(&fixture_root()).expect("fixture scan succeeds")
}

#[test]
fn every_rule_fires_on_its_injected_violation() {
    let report = scan();
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        [
            "D001", "D002", "D003", "H001", "H002", "M001", "M001", "M002", "N001", "P001", "P001",
            "P002", "P003", "P004", "R001", "R002", "X001", "X002"
        ],
        "unexpected finding set:\n{}",
        report.to_text()
    );
    // Each violation has a pragma'd twin that must be suppressed (X002's
    // is an acknowledged stale pragma); rule M001's pragma support is
    // covered by the workspace's own pragmas, and R002 has no twin —
    // pragmas only live in Rust source.
    assert_eq!(report.suppressed_by_pragma, 12);
    assert_eq!(report.files_scanned, 3);
}

#[test]
fn graph_summary_covers_the_fixture_workspace() {
    let report = scan();
    let graph = &report.graph;
    assert!(graph.nodes > 0 && graph.edges > 0);
    // lib.rs + hot.rs in dram, and util, all contribute symbols.
    assert_eq!(graph.files_with_symbols, 3);
    assert!(
        graph.roots.iter().any(|r| r == "dram::System::tick"),
        "fixture tick root not found: {:?}",
        graph.roots
    );
}

#[test]
fn only_filter_restricts_the_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--root")
        .arg(fixture_root())
        .args(["--only", "p001"])
        .output()
        .expect("simlint binary runs");
    assert_eq!(out.status.code(), Some(1), "findings remain: exit 1");
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    let findings: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with("simlint:"))
        .collect();
    assert_eq!(findings.len(), 2, "the two unsuppressed P001s:\n{text}");
    assert!(findings.iter().all(|l| l.contains(":P001: ")), "{text}");
    assert!(
        text.ends_with("2 finding(s), 12 suppressed by pragma\n"),
        "{text}"
    );
}

#[test]
fn kernel_rules_do_not_apply_outside_kernel_crates() {
    let report = scan();
    // util/src/lib.rs has unwrap()s but is not a kernel crate: no D/P/N
    // findings there — only metric drift and the workspace-wide rule
    // families (panic inventory, pragma hygiene).
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file == "crates/util/src/lib.rs")
        .all(|f| matches!(f.rule.as_str(), "M001" | "R001" | "X002")));
}

#[test]
fn test_code_is_exempt_from_kernel_rules() {
    let report = scan();
    // The #[cfg(test)] module in the fixture repeats an unwrap and an
    // Instant::now(); neither may be flagged (lines 48-53).
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file == "crates/dram/src/lib.rs")
        .all(|f| f.line < 47));
}

#[test]
fn malformed_pragma_is_flagged_and_does_not_suppress() {
    let report = scan();
    let on_line = |rule: &str| {
        report
            .findings
            .iter()
            .find(|f| f.rule == rule && f.file == "crates/dram/src/lib.rs" && f.line == 44)
    };
    assert!(
        on_line("X001").is_some(),
        "missing X001:\n{}",
        report.to_text()
    );
    assert!(
        on_line("P001").is_some(),
        "a reason-less pragma must not suppress:\n{}",
        report.to_text()
    );
}

#[test]
fn text_report_matches_snapshot() {
    let expected = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.txt"),
    )
    .expect("snapshot file present");
    assert_eq!(
        scan().to_text(),
        expected,
        "text report drifted from tests/fixtures/expected.txt; \
         if the change is intentional, update the snapshot"
    );
}
