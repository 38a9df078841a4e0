//! On-disk observability outputs of the `reproduce` binary.
//!
//! A reproduction run invoked with `--out <dir>` serializes one JSON
//! metric tree per experiment plus a `manifest.json` recording the run
//! window and the experiment list. A later run invoked with
//! `--baseline <dir>` loads those files back and diffs its own metrics
//! against them with a per-metric relative tolerance, so a saved
//! directory doubles as a regression baseline (see `docs/METRICS.md`
//! for the schema and the worked example in `EXPERIMENTS.md`).
//!
//! ```
//! use stacksim_bench::obs::{self, Manifest};
//! use stacksim_bench::full_run;
//! use stacksim_stats::MetricsSink;
//!
//! let mut sink = MetricsSink::new("headline");
//! sink.gauge("total_over_2d", 4.46);
//! let results = vec![("headline".to_string(), sink)];
//!
//! let dir = std::env::temp_dir().join("stacksim-obs-doctest");
//! obs::write_outputs(&dir, &full_run(), &results).unwrap();
//! let report = obs::diff_against_baseline(&dir, &full_run(), &results, 1e-9).unwrap();
//! assert!(report.is_clean());
//!
//! let (manifest, loaded) = obs::load_outputs(&dir).unwrap();
//! assert_eq!(manifest.schema_version, obs::SCHEMA_VERSION);
//! assert_eq!(loaded.len(), 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use stacksim::runner::RunConfig;
use stacksim_stats::{Json, MetricDiff, MetricsSink};

/// Version stamped into every manifest; bump when the JSON layout of the
/// per-experiment files or the manifest itself changes shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Default relative tolerance for [`diff_against_baseline`]. The simulator
/// is deterministic, so matching windows should agree bit-for-bit; the
/// tolerance only absorbs float formatting round-trips.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// An error from writing or reading an output directory.
#[derive(Debug)]
pub enum ObsError {
    /// Filesystem failure, with the path involved.
    Io(PathBuf, io::Error),
    /// A file existed but did not parse as the expected schema.
    Malformed(PathBuf, String),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            ObsError::Malformed(path, why) => write!(f, "{}: {why}", path.display()),
        }
    }
}

impl std::error::Error for ObsError {}

/// The run-level metadata saved alongside the per-experiment metric files.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Layout version of the directory ([`SCHEMA_VERSION`] when written by
    /// this build).
    pub schema_version: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Warmup window, cycles.
    pub warmup_cycles: u64,
    /// Measured window, cycles.
    pub measure_cycles: u64,
    /// Experiment names, in the order they ran; each has a matching
    /// `<name>.json` next to the manifest.
    pub experiments: Vec<String>,
}

impl Manifest {
    /// Builds the manifest for one run.
    pub fn new(run: &RunConfig, experiments: Vec<String>) -> Self {
        Manifest {
            schema_version: SCHEMA_VERSION,
            seed: run.seed,
            warmup_cycles: run.warmup_cycles,
            measure_cycles: run.measure_cycles,
            experiments,
        }
    }

    /// Serializes the manifest.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("warmup_cycles".into(), Json::Num(self.warmup_cycles as f64)),
            (
                "measure_cycles".into(),
                Json::Num(self.measure_cycles as f64),
            ),
            (
                "experiments".into(),
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a manifest written by [`Manifest::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Manifest, String> {
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("manifest field '{key}' missing or not a number"))
        };
        let experiments = v
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or("manifest field 'experiments' missing or not an array")?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "manifest 'experiments' entry is not a string".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?;
        Ok(Manifest {
            schema_version: num("schema_version")?,
            seed: num("seed")?,
            warmup_cycles: num("warmup_cycles")?,
            measure_cycles: num("measure_cycles")?,
            experiments,
        })
    }
}

/// The outcome of diffing one run against a saved baseline directory.
#[derive(Clone, Debug, Default)]
pub struct BaselineReport {
    /// Experiments compared (present on both sides).
    pub compared: Vec<String>,
    /// Experiments in the baseline that the current run did not produce
    /// (expected under `--only`; informational, not a regression).
    pub baseline_only: Vec<String>,
    /// Experiments the current run produced that the baseline lacks
    /// (informational, not a regression).
    pub current_only: Vec<String>,
    /// Per-experiment metric divergences beyond tolerance. Any entry here
    /// is a regression.
    pub regressions: Vec<(String, Vec<MetricDiff>)>,
}

impl BaselineReport {
    /// Whether every compared experiment matched within tolerance.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Total diverging metrics across all experiments.
    pub fn regression_count(&self) -> usize {
        self.regressions.iter().map(|(_, d)| d.len()).sum()
    }
}

impl fmt::Display for BaselineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "baseline comparison: {} experiment(s) compared, {} regression metric(s)",
            self.compared.len(),
            self.regression_count()
        )?;
        for name in &self.baseline_only {
            writeln!(f, "  [skip] {name}: in baseline only (not run this time)")?;
        }
        for name in &self.current_only {
            writeln!(f, "  [new]  {name}: not in baseline")?;
        }
        for (name, diffs) in &self.regressions {
            for d in diffs {
                writeln!(f, "  [FAIL] {name}: {d}")?;
            }
        }
        Ok(())
    }
}

/// File name of the per-experiment metric tree.
fn metric_file(dir: &Path, experiment: &str) -> PathBuf {
    dir.join(format!("{experiment}.json"))
}

/// Writes one JSON file per experiment plus `manifest.json` into `dir`
/// (created if absent), and returns the manifest path.
///
/// # Errors
///
/// Returns [`ObsError::Io`] if the directory or any file cannot be written.
pub fn write_outputs(
    dir: &Path,
    run: &RunConfig,
    results: &[(String, MetricsSink)],
) -> Result<PathBuf, ObsError> {
    fs::create_dir_all(dir).map_err(|e| ObsError::Io(dir.to_path_buf(), e))?;
    for (name, sink) in results {
        let path = metric_file(dir, name);
        fs::write(&path, sink.to_json().pretty()).map_err(|e| ObsError::Io(path.clone(), e))?;
    }
    let names = results.iter().map(|(n, _)| n.clone()).collect();
    let manifest = Manifest::new(run, names);
    let path = dir.join("manifest.json");
    fs::write(&path, manifest.to_json().pretty()).map_err(|e| ObsError::Io(path.clone(), e))?;
    Ok(path)
}

/// Loads a directory written by [`write_outputs`]: the manifest plus every
/// experiment metric tree it lists, in manifest order.
///
/// # Errors
///
/// Returns [`ObsError`] if the manifest or any listed file is missing or
/// does not parse.
pub fn load_outputs(dir: &Path) -> Result<(Manifest, Vec<(String, MetricsSink)>), ObsError> {
    let manifest_path = dir.join("manifest.json");
    let text =
        fs::read_to_string(&manifest_path).map_err(|e| ObsError::Io(manifest_path.clone(), e))?;
    let json = Json::parse(&text)
        .map_err(|e| ObsError::Malformed(manifest_path.clone(), e.to_string()))?;
    let manifest =
        Manifest::from_json(&json).map_err(|e| ObsError::Malformed(manifest_path.clone(), e))?;
    let mut results = Vec::with_capacity(manifest.experiments.len());
    for name in &manifest.experiments {
        let path = metric_file(dir, name);
        let text = fs::read_to_string(&path).map_err(|e| ObsError::Io(path.clone(), e))?;
        let json =
            Json::parse(&text).map_err(|e| ObsError::Malformed(path.clone(), e.to_string()))?;
        let sink =
            MetricsSink::from_json(json).map_err(|e| ObsError::Malformed(path.clone(), e))?;
        results.push((name.clone(), sink));
    }
    Ok((manifest, results))
}

/// Diffs the current run's metrics against the baseline saved in `dir`.
///
/// Only experiments present on both sides are compared (so a `--only`
/// subset can be checked against a full baseline); one-sided experiments
/// are reported informationally. A mismatched run window is a regression
/// in itself — the numbers would differ for the wrong reason.
///
/// # Errors
///
/// Returns [`ObsError`] if the baseline directory cannot be loaded.
pub fn diff_against_baseline(
    dir: &Path,
    run: &RunConfig,
    current: &[(String, MetricsSink)],
    rel_tol: f64,
) -> Result<BaselineReport, ObsError> {
    let (manifest, baseline) = load_outputs(dir)?;
    let mut report = BaselineReport::default();
    if (
        manifest.seed,
        manifest.warmup_cycles,
        manifest.measure_cycles,
    ) != (run.seed, run.warmup_cycles, run.measure_cycles)
    {
        report.regressions.push((
            "manifest".into(),
            vec![
                MetricDiff {
                    path: "seed".into(),
                    baseline: Some(manifest.seed as f64),
                    current: Some(run.seed as f64),
                },
                MetricDiff {
                    path: "warmup_cycles".into(),
                    baseline: Some(manifest.warmup_cycles as f64),
                    current: Some(run.warmup_cycles as f64),
                },
                MetricDiff {
                    path: "measure_cycles".into(),
                    baseline: Some(manifest.measure_cycles as f64),
                    current: Some(run.measure_cycles as f64),
                },
            ],
        ));
    }
    for (name, sink) in current {
        match baseline.iter().find(|(b, _)| b == name) {
            Some((_, base)) => {
                let diffs = sink.diff(base, rel_tol);
                report.compared.push(name.clone());
                if !diffs.is_empty() {
                    report.regressions.push((name.clone(), diffs));
                }
            }
            None => report.current_only.push(name.clone()),
        }
    }
    for (name, _) in &baseline {
        if !current.iter().any(|(c, _)| c == name) {
            report.baseline_only.push(name.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_run;

    fn sample() -> Vec<(String, MetricsSink)> {
        let mut a = MetricsSink::new("figure4");
        a.gauge("VH1.speedup_fast", 2.5);
        a.gauge("gm_all.fast", 2.25);
        let mut b = MetricsSink::new("headline");
        b.gauge("total_over_2d", 4.46);
        vec![("figure4".into(), a), ("headline".into(), b)]
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stacksim-obs-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest::new(&full_run(), vec!["figure4".into(), "headline".into()]);
        let text = m.to_json().pretty();
        let back = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn manifest_rejects_missing_fields() {
        let err = Manifest::from_json(&Json::parse("{\"seed\": 1}").unwrap()).unwrap_err();
        assert!(err.contains("experiments"), "{err}");
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tmp("roundtrip");
        let results = sample();
        let manifest_path = write_outputs(&dir, &full_run(), &results).unwrap();
        assert!(manifest_path.ends_with("manifest.json"));
        let (manifest, loaded) = load_outputs(&dir).unwrap();
        assert_eq!(manifest.experiments, vec!["figure4", "headline"]);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].1.get("VH1.speedup_fast"), Some(2.5));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_runs_diff_clean() {
        let dir = tmp("clean");
        let results = sample();
        write_outputs(&dir, &full_run(), &results).unwrap();
        let report = diff_against_baseline(&dir, &full_run(), &results, DEFAULT_TOLERANCE).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.compared, vec!["figure4", "headline"]);
        assert!(report.baseline_only.is_empty() && report.current_only.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perturbed_metric_is_a_regression() {
        let dir = tmp("perturbed");
        write_outputs(&dir, &full_run(), &sample()).unwrap();
        let mut perturbed = sample();
        perturbed[1].1 = MetricsSink::new("headline");
        perturbed[1].1.gauge("total_over_2d", 3.9);
        let report =
            diff_against_baseline(&dir, &full_run(), &perturbed, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.regression_count(), 1);
        let (name, diffs) = &report.regressions[0];
        assert_eq!(name, "headline");
        assert_eq!(diffs[0].path, "total_over_2d");
        assert!(report.to_string().contains("[FAIL] headline"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_subset_skips_missing_experiments() {
        let dir = tmp("subset");
        write_outputs(&dir, &full_run(), &sample()).unwrap();
        let subset = vec![sample().remove(1)];
        let report = diff_against_baseline(&dir, &full_run(), &subset, DEFAULT_TOLERANCE).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.compared, vec!["headline"]);
        assert_eq!(report.baseline_only, vec!["figure4"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_window_is_a_regression() {
        let dir = tmp("window");
        let results = sample();
        write_outputs(&dir, &full_run(), &results).unwrap();
        let mut other = full_run();
        other.seed ^= 1;
        let report = diff_against_baseline(&dir, &other, &results, DEFAULT_TOLERANCE).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.regressions[0].0, "manifest");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_baseline_dir_is_an_error() {
        let err = load_outputs(Path::new("/nonexistent/stacksim-baseline")).unwrap_err();
        assert!(matches!(err, ObsError::Io(_, _)));
        assert!(err.to_string().contains("manifest.json"));
    }
}
