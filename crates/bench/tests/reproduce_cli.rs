//! End-to-end exit-code contract of the `reproduce` binary's
//! `--out`/`--baseline` workflow, the `--timings` artifact and the
//! `--check-protocol` audit, driven through the real executable.
//!
//! The diff-machinery tests use the `thermal` experiment (no simulations)
//! so each invocation is near-instant; the diff machinery is identical for
//! every experiment. One test diffs seven simulating experiments against
//! the committed quick tree (`stackbench/expected/quick`).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use stacksim_stats::Json;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn out_then_identical_baseline_exits_zero() {
    let dir = tmp("identical");
    let save = reproduce()
        .args(["--only", "thermal", "--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("run reproduce --out");
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    assert!(dir.join("manifest.json").is_file());
    assert!(dir.join("thermal.json").is_file());

    let check = reproduce()
        .args(["--only", "thermal", "--quick", "--baseline"])
        .arg(&dir)
        .output()
        .expect("run reproduce --baseline");
    assert!(
        check.status.success(),
        "identical baseline must pass: {}",
        String::from_utf8_lossy(&check.stdout)
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(stdout.contains("0 regression metric(s)"), "{stdout}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn perturbed_baseline_exits_nonzero() {
    let dir = tmp("perturbed");
    let save = reproduce()
        .args(["--only", "thermal", "--quick", "--out"])
        .arg(&dir)
        .output()
        .expect("run reproduce --out");
    assert!(save.status.success());

    // Inject a regression into one saved metric.
    let path = dir.join("thermal.json");
    let text = fs::read_to_string(&path).unwrap();
    let needle = "\"max_c\": ";
    let at = text.find(needle).expect("thermal.json has max_c") + needle.len();
    let mut perturbed = text[..at].to_string();
    perturbed.push_str("999.0");
    perturbed.push_str(&text[at + text[at..].find([',', '\n']).unwrap()..]);
    fs::write(&path, perturbed).unwrap();

    let check = reproduce()
        .args(["--only", "thermal", "--quick", "--baseline"])
        .arg(&dir)
        .output()
        .expect("run reproduce --baseline");
    assert_eq!(
        check.status.code(),
        Some(1),
        "perturbed baseline must fail: {}",
        String::from_utf8_lossy(&check.stdout)
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(stdout.contains("[FAIL] thermal: max_c"), "{stdout}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_flags_exit_with_usage() {
    let out = reproduce()
        .args(["--only", "no-such-experiment"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--list"));

    let out = reproduce()
        .args(["--tol", "-1"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_baseline_directory_is_an_error() {
    let out = reproduce()
        .args([
            "--only",
            "thermal",
            "--quick",
            "--baseline",
            "/nonexistent/stacksim-base",
        ])
        .output()
        .expect("run reproduce");
    assert!(!out.status.success());
}

/// The `--timings` artifact, as stackbench's `parse_timings` reads it: one
/// entry per experiment that ran, in registry order whatever the order of
/// the `--only` flags.
#[test]
fn timings_artifact_lists_each_experiment_in_registry_order() {
    let dir = tmp("timings");
    fs::create_dir_all(&dir).unwrap();
    let file = dir.join("timings.json");
    let out = reproduce()
        .args([
            "--quick",
            "--only",
            "ablation-smart-refresh",
            "--only",
            "thermal",
        ])
        .arg("--timings")
        .arg(&file)
        .output()
        .expect("run reproduce --timings");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = Json::parse(&fs::read_to_string(&file).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("stacksim-bench-timings/1")
    );
    let experiments = doc.get("experiments").and_then(Json::as_arr).unwrap();
    let names: Vec<_> = experiments
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["thermal", "ablation-smart-refresh"]);
    let num = |e: &Json, key: &str| {
        e.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{key} missing"))
    };
    for e in experiments {
        assert!(num(e, "wall_seconds") > 0.0);
        let cycles = num(e, "skipped_cycles") + num(e, "ticked_cycles");
        let fraction = e.get("skipped_fraction").unwrap();
        assert_eq!(cycles == 0.0, fraction == &Json::Null, "{fraction:?}");
    }
    // `thermal` simulates no machine; `ablation-smart-refresh` drives
    // `System` directly, and its cycles count too.
    assert_eq!(num(&experiments[0], "ticked_cycles"), 0.0);
    assert_eq!(num(&experiments[0], "skipped_cycles"), 0.0);
    assert!(num(&experiments[1], "ticked_cycles") > 0.0);
    fs::remove_dir_all(&dir).unwrap();
}

/// `--check-protocol` traces every session run and audits the recorded
/// DRAM command streams. `ablation-cwf` runs its twelve points through
/// the session memo, so the audit has real streams to check (the
/// experiments that drive `System` directly leave nothing to audit).
#[test]
fn check_protocol_audits_traced_runs() {
    let out = reproduce()
        .args(["--quick", "--only", "ablation-cwf", "--check-protocol"])
        .output()
        .expect("run reproduce --check-protocol");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("protocol check: "))
        .unwrap_or_else(|| panic!("no protocol check line in:\n{stdout}"));
    let counts: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    let [runs, commands, violations] = counts[..] else {
        panic!("unexpected protocol check line: {line}");
    };
    assert!(runs >= 1, "{line}");
    assert!(commands > 0, "{line}");
    assert_eq!(violations, 0, "{line}");
}

/// Experiments that drive `System` directly simulate outside the run
/// memo, so `--check-protocol` cannot trace them; the audit names them
/// instead of counting them silently as zero traced runs.
#[test]
fn check_protocol_names_the_experiments_it_cannot_audit() {
    let out = reproduce()
        .args([
            "--quick",
            "--only",
            "ablation-smart-refresh",
            "--check-protocol",
        ])
        .output()
        .expect("run reproduce --check-protocol");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("protocol check: 0 traced run(s), 0 DRAM command(s), 0 violation(s)"),
        "{stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("protocol check: not traced")
                && l.ends_with(": ablation-smart-refresh")),
        "{stdout}"
    );
}

/// The comparison drivers reproduce the pinned quick tree exactly: one
/// experiment per reduction shape (one-column grid, GM(H,VH) as `None`
/// or with a GM(all) fallback, the shared sweep, the headline, the
/// two-column ablations and the probing table), diffed at tolerance 0.
#[test]
fn comparison_drivers_match_the_pinned_quick_tree() {
    let baseline =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../stackbench/expected/quick");
    let mut cmd = reproduce();
    cmd.args(["--quick", "--jobs", "2", "--tol", "0", "--baseline"])
        .arg(&baseline);
    for name in [
        "table2b",
        "figure4",
        "figure6b",
        "figure9-quad",
        "headline",
        "ablation-cwf",
        "ablation-probing",
    ] {
        cmd.args(["--only", name]);
    }
    let out = cmd.output().expect("run reproduce --baseline");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("7 experiment(s) compared, 0 regression metric(s)"),
        "{stdout}"
    );
}
