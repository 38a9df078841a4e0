//! Result export and ad-hoc configuration comparison.
//!
//! Every experiment driver renders a [`Table`]; this module turns tables
//! into CSV for plotting, and provides [`compare_configs`] for quick
//! user-defined studies outside the paper's fixed figure set.

use std::io::{self, Write};

use stacksim_stats::{harmonic_mean, Table};
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{run_mix, RunConfig};

/// Writes a [`Table`] as RFC-4180-style CSV (header row first; cells with
/// commas, quotes or newlines are quoted).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use stacksim::report::table_to_csv;
/// use stacksim_stats::Table;
///
/// let mut t = Table::new(vec!["mix".into(), "speedup".into()]);
/// t.row(vec!["H1".into(), "2.17".into()]);
/// let mut csv = Vec::new();
/// table_to_csv(&t, &mut csv)?;
/// assert_eq!(String::from_utf8(csv).unwrap(), "mix,speedup\nH1,2.17\n");
/// # Ok::<(), std::io::Error>(())
/// ```
#[must_use = "the Err reports a failed write; dropping it hides truncated output"]
pub fn table_to_csv<W: Write>(table: &Table, mut writer: W) -> io::Result<()> {
    let write_row = |writer: &mut W, cells: &[String]| -> io::Result<()> {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                write!(writer, ",")?;
            }
            if cell.contains([',', '"', '\n']) {
                write!(writer, "\"{}\"", cell.replace('"', "\"\""))?;
            } else {
                write!(writer, "{cell}")?;
            }
        }
        writeln!(writer)
    };
    write_row(&mut writer, table.headers())?;
    for row in table.rows() {
        write_row(&mut writer, row)?;
    }
    Ok(())
}

/// HMIPC of several labelled configurations across several mixes.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Configuration labels, in column order.
    pub labels: Vec<String>,
    /// `(mix, hmipc-per-configuration)` rows.
    pub rows: Vec<(&'static Mix, Vec<f64>)>,
}

impl Comparison {
    /// Renders absolute HMIPC values.
    pub fn table(&self) -> Table {
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.labels.iter().cloned());
        let mut t = Table::new(headers);
        t.title("HMIPC by configuration");
        t.numeric();
        for (mix, values) in &self.rows {
            let mut cells = vec![mix.name.to_string()];
            cells.extend(values.iter().map(|v| format!("{v:.4}")));
            t.row(cells);
        }
        t
    }

    /// Renders speedups of every configuration over column
    /// `baseline_index`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline_index` is out of range.
    pub fn speedup_table(&self, baseline_index: usize) -> Table {
        assert!(
            baseline_index < self.labels.len(),
            "baseline index out of range"
        );
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.labels.iter().cloned());
        let mut t = Table::new(headers);
        t.title(format!("Speedup over {}", self.labels[baseline_index]));
        t.numeric();
        for (mix, values) in &self.rows {
            let base = values[baseline_index];
            let mut cells = vec![mix.name.to_string()];
            cells.extend(values.iter().map(|v| format!("{:.3}", v / base)));
            t.row(cells);
        }
        t
    }

    /// Harmonic-mean HMIPC per configuration across the compared mixes (a
    /// throughput-of-throughputs summary for quick ranking).
    pub fn summary(&self) -> Vec<(String, f64)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let vals: Vec<f64> = self.rows.iter().map(|(_, v)| v[i]).collect();
                (label.clone(), harmonic_mean(&vals).unwrap_or(0.0))
            })
            .collect()
    }
}

/// Runs every `(label, configuration)` against every mix and collects
/// HMIPC — the building block for user-defined design studies.
///
/// # Errors
///
/// Returns [`ConfigError`] if any configuration fails validation.
#[must_use = "the comparison or the reason a configuration is invalid"]
pub fn compare_configs(
    configs: &[(&str, SystemConfig)],
    mixes: &[&'static Mix],
    run: &RunConfig,
) -> Result<Comparison, ConfigError> {
    let mut rows = Vec::with_capacity(mixes.len());
    for &mix in mixes {
        let mut values = Vec::with_capacity(configs.len());
        for (_, cfg) in configs {
            values.push(run_mix(cfg, mix, run)?.hmipc);
        }
        rows.push((mix, values));
    }
    Ok(Comparison {
        labels: configs.iter().map(|(l, _)| l.to_string()).collect(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Machines;

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let mut out = Vec::new();
        table_to_csv(&t, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
        );
    }

    #[test]
    fn comparison_end_to_end() {
        let run = RunConfig {
            warmup_cycles: 5_000,
            measure_cycles: 25_000,
            seed: 4,
            ..RunConfig::default()
        };
        let mixes = [Mix::by_name("HM3").unwrap()];
        let m = Machines::builtin();
        let cmp = compare_configs(&[("2d", m.m2d), ("quad", m.quad_mc)], &mixes, &run).unwrap();
        assert_eq!(cmp.labels, ["2d", "quad"]);
        assert_eq!(cmp.rows.len(), 1);
        let (_, values) = &cmp.rows[0];
        assert!(values[1] > values[0], "quad {values:?} must beat 2d");
        // Tables render and export.
        let t = cmp.speedup_table(0);
        assert_eq!(t.cell(0, 1), Some("1.000"));
        let mut csv = Vec::new();
        table_to_csv(&cmp.table(), &mut csv).unwrap();
        assert!(String::from_utf8(csv).unwrap().starts_with("mix,2d,quad"));
        let summary = cmp.summary();
        assert_eq!(summary.len(), 2);
        assert!(summary[1].1 > summary[0].1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn speedup_baseline_checked() {
        let cmp = Comparison {
            labels: vec!["a".into()],
            rows: vec![],
        };
        let _ = cmp.speedup_table(3);
    }
}
