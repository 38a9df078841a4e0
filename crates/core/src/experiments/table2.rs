//! Table 2: (a) stand-alone MPKI characterization at 6 MB; (b) the mixes
//! and their baseline HMIPC on the 2D machine.

use stacksim_cache::CacheConfig;
use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::{Benchmark, Mix, SyntheticWorkload, TraceGenerator};

use crate::runner::{parallel_map, RunConfig, Session};
use crate::system::System;

use super::Grid;

/// One benchmark's characterization row.
#[derive(Clone, Debug)]
pub struct Table2aRow {
    /// The benchmark.
    pub benchmark: &'static Benchmark,
    /// MPKI measured by this simulator (single core, 6 MB L2, prefetchers
    /// off, matching the paper's characterization setup).
    pub measured_mpki: f64,
}

/// Runs the Table 2(a) characterization: each benchmark alone on one core
/// with a 6 MB L2 and prefetchers disabled.
///
/// # Errors
///
/// Returns [`ConfigError`] if the characterization configuration fails
/// validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn table2a(
    session: &Session,
    run: &RunConfig,
    benchmarks: &[&'static Benchmark],
) -> Result<Vec<Table2aRow>, ConfigError> {
    let mut cfg = session.machines().m2d.clone();
    cfg.cores = 1;
    cfg.core = cfg.core.without_prefetchers();
    cfg.l2 = CacheConfig::dl2_6mb();
    cfg.l2_prefetch = false;
    // Each benchmark's characterization run is independent — fan them out.
    parallel_map(session.jobs(), benchmarks, |&benchmark| {
        let generator: Vec<Box<dyn TraceGenerator>> =
            vec![Box::new(SyntheticWorkload::new(benchmark, run.seed, 0))];
        let mut system = System::with_generators(&cfg, generator)?;
        system.run_cycles(run.warmup_cycles);
        let misses0 = system.metrics().get("l2.misses").unwrap_or(0.0);
        let committed0 = system.core_committed(0);
        system.run_cycles(run.measure_cycles);
        let misses = system.metrics().get("l2.misses").unwrap_or(0.0) - misses0;
        let committed = (system.core_committed(0) - committed0).max(1);
        session.count_cycles(&system);
        Ok(Table2aRow {
            benchmark,
            measured_mpki: misses / committed as f64 * 1000.0,
        })
    })
    .into_iter()
    .collect()
}

/// Renders Table 2(a) rows.
pub fn table2a_table(rows: &[Table2aRow]) -> Table {
    let mut t = Table::new(vec![
        "benchmark".into(),
        "suite".into(),
        "paper MPKI".into(),
        "measured MPKI".into(),
    ]);
    t.title("Table 2(a): stand-alone DL2 MPKI at 6 MB");
    t.numeric();
    for row in rows {
        t.row(vec![
            row.benchmark.name.into(),
            row.benchmark.suite.to_string(),
            format!("{:.1}", row.benchmark.mpki_6mb),
            format!("{:.1}", row.measured_mpki),
        ]);
    }
    t
}

/// One mix row of Table 2(b).
#[derive(Clone, Debug)]
pub struct Table2bRow {
    /// The mix.
    pub mix: &'static Mix,
    /// HMIPC measured on the baseline 2D machine.
    pub measured_hmipc: f64,
}

/// Runs Table 2(b): every requested mix on the 2D baseline.
///
/// # Errors
///
/// Returns [`ConfigError`] if the baseline configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn table2b(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Vec<Table2bRow>, ConfigError> {
    let grid = Grid::run(session, &[session.machines().m2d.clone()], run, mixes)?;
    Ok(mixes
        .iter()
        .enumerate()
        .map(|(i, &mix)| Table2bRow {
            mix,
            measured_hmipc: grid.at(i, 0).hmipc,
        })
        .collect())
}

/// Renders Table 2(b) rows.
pub fn table2b_table(rows: &[Table2bRow]) -> Table {
    let mut t = Table::new(vec![
        "mix".into(),
        "class".into(),
        "programs".into(),
        "paper HMIPC".into(),
        "measured HMIPC".into(),
    ]);
    t.title("Table 2(b): workload mixes on the 2D baseline");
    for row in rows {
        t.row(vec![
            row.mix.name.into(),
            row.mix.class.to_string(),
            row.mix.programs.join(", "),
            format!("{:.3}", row.mix.paper_hmipc),
            format!("{:.3}", row.measured_hmipc),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;

    #[test]
    fn mpki_ordering_matches_the_paper() {
        // Spot-check the extremes of the published table: the synthetic
        // models must keep the ranking and rough magnitude.
        let names = ["S.copy", "libquantum", "mcf", "namd"];
        let benchmarks: Vec<&'static Benchmark> = names
            .iter()
            .map(|n| Benchmark::by_name(n).unwrap())
            .collect();
        let rows = table2a(&session(), &RunConfig::quick(), &benchmarks).unwrap();
        assert!(rows[0].measured_mpki > rows[1].measured_mpki);
        assert!(rows[1].measured_mpki > rows[2].measured_mpki);
        assert!(rows[2].measured_mpki > rows[3].measured_mpki);
        // Magnitudes within a loose band of the published values.
        for row in &rows {
            let expect = row.benchmark.mpki_6mb;
            assert!(
                row.measured_mpki > expect * 0.5 && row.measured_mpki < expect * 2.0 + 2.0,
                "{}: measured {:.1} vs paper {:.1}",
                row.benchmark.name,
                row.measured_mpki,
                expect
            );
        }
    }

    #[test]
    fn hmipc_classes_are_ordered() {
        let mixes = [Mix::by_name("VH1").unwrap(), Mix::by_name("M3").unwrap()];
        let rows = table2b(&session(), &RunConfig::quick(), &mixes).unwrap();
        assert!(
            rows[0].measured_hmipc < rows[1].measured_hmipc,
            "VH1 ({:.3}) must be slower than M3 ({:.3})",
            rows[0].measured_hmipc,
            rows[1].measured_hmipc
        );
        let t = table2b_table(&rows).to_string();
        assert!(t.contains("VH1") && t.contains("paper HMIPC"));
    }

    #[test]
    fn table2a_renders() {
        let benchmarks = [Benchmark::by_name("namd").unwrap()];
        let rows = table2a(&session(), &RunConfig::quick(), &benchmarks).unwrap();
        let t = table2a_table(&rows).to_string();
        assert!(t.contains("namd") && t.contains("F'06"));
    }
}
