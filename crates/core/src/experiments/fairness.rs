//! Multiprogram throughput and fairness metrics.
//!
//! The paper reports HMIPC (harmonic-mean IPC). Two complementary
//! standard metrics complete the multiprogrammed picture:
//!
//! * **weighted speedup** `Σᵢ IPCᵢ(shared) / IPCᵢ(alone)` — system
//!   throughput in units of "programs' worth of progress";
//! * **fairness** `minᵢ(slowdownᵢ) / maxᵢ(slowdownᵢ)` — 1.0 when every
//!   program suffers equally from sharing, → 0 when one is starved.
//!
//! `IPC(alone)` is measured on the *same* machine with the program on core
//! 0 and [`IdleProgram`](stacksim_workload::IdleProgram)s occupying the
//! other cores, so shared-resource plumbing is identical.

use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::{Benchmark, IdleProgram, Mix, SyntheticWorkload, TraceGenerator};

use crate::config::SystemConfig;
use crate::runner::{parallel_map, RunConfig, Session};
use crate::system::System;

/// Metrics for one mix on one configuration.
#[derive(Clone, Debug)]
pub struct FairnessRow {
    /// The workload mix.
    pub mix: &'static Mix,
    /// Harmonic-mean IPC (the paper's metric).
    pub hmipc: f64,
    /// Weighted speedup (≤ number of programs; higher is better).
    pub weighted_speedup: f64,
    /// min/max slowdown ratio in (0, 1]; higher is fairer.
    pub fairness: f64,
    /// Per-program slowdowns `IPC(alone) / IPC(shared)` (≥ ~1).
    pub slowdowns: Vec<f64>,
}

/// Measures one program's IPC alone on the machine (idle co-runners).
fn alone_ipc(
    session: &Session,
    cfg: &SystemConfig,
    spec: &'static Benchmark,
    run: &RunConfig,
) -> Result<f64, ConfigError> {
    let mut generators: Vec<Box<dyn TraceGenerator>> =
        vec![Box::new(SyntheticWorkload::new(spec, run.seed, 0))];
    for _ in 1..cfg.cores {
        generators.push(Box::new(IdleProgram::new()));
    }
    let mut system = System::with_generators(cfg, generators)?;
    system.run_cycles(run.warmup_cycles);
    let before = system.core_committed(0);
    system.run_cycles(run.measure_cycles);
    session.count_cycles(&system);
    Ok((system.core_committed(0) - before).max(1) as f64 / run.measure_cycles as f64)
}

/// Computes weighted speedup and fairness for each mix on `cfg`.
///
/// # Errors
///
/// Returns [`ConfigError`] if the configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn fairness(
    session: &Session,
    cfg: &SystemConfig,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Vec<FairnessRow>, ConfigError> {
    // Each mix needs one shared run plus one alone run per program slot,
    // all independent — fan the mixes across the worker pool.
    parallel_map(
        session.jobs(),
        mixes,
        |&mix| -> Result<FairnessRow, ConfigError> {
            // Shared run.
            let mut system = System::for_mix(cfg, mix, run.seed)?;
            system.run_cycles(run.warmup_cycles);
            let before: Vec<u64> = (0..cfg.cores).map(|i| system.core_committed(i)).collect();
            system.run_cycles(run.measure_cycles);
            session.count_cycles(&system);
            let shared_ipc: Vec<f64> = (0..cfg.cores)
                .map(|i| {
                    (system.core_committed(i) - before[i]).max(1) as f64 / run.measure_cycles as f64
                })
                .collect();
            // Alone runs, one per program slot.
            let mut weighted_speedup = 0.0;
            let mut slowdowns = Vec::with_capacity(cfg.cores);
            for (i, spec) in mix.benchmarks().iter().enumerate() {
                let alone = alone_ipc(session, cfg, spec, run)?;
                weighted_speedup += shared_ipc[i] / alone;
                slowdowns.push(alone / shared_ipc[i]);
            }
            let min = slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = slowdowns.iter().cloned().fold(0.0, f64::max);
            let inv: f64 = shared_ipc.iter().map(|i| 1.0 / i).sum();
            Ok(FairnessRow {
                mix,
                hmipc: shared_ipc.len() as f64 / inv,
                weighted_speedup,
                fairness: min / max,
                slowdowns,
            })
        },
    )
    .into_iter()
    .collect()
}

/// Renders fairness rows.
pub fn fairness_table(rows: &[FairnessRow]) -> Table {
    let mut t = Table::new(vec![
        "mix".into(),
        "HMIPC".into(),
        "weighted speedup".into(),
        "fairness".into(),
    ]);
    t.title("Multiprogram throughput and fairness");
    t.numeric();
    for r in rows {
        t.row(vec![
            r.mix.name.into(),
            format!("{:.3}", r.hmipc),
            format!("{:.2}", r.weighted_speedup),
            format!("{:.2}", r.fairness),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::experiments::session;

    #[test]
    fn metrics_are_well_formed() {
        let run = RunConfig {
            warmup_cycles: 8_000,
            measure_cycles: 40_000,
            seed: 6,
            ..RunConfig::default()
        };
        let mixes = [Mix::by_name("HM3").unwrap()];
        let session = session();
        let rows = fairness(&session, &configs::cfg_3d_fast(), &run, &mixes).unwrap();
        let r = &rows[0];
        assert_eq!(r.slowdowns.len(), 4);
        // Weighted speedup is bounded by the program count and positive.
        assert!(
            r.weighted_speedup > 0.5 && r.weighted_speedup <= 4.2,
            "{}",
            r.weighted_speedup
        );
        // Fairness is a ratio in (0, 1].
        assert!(r.fairness > 0.0 && r.fairness <= 1.0, "{}", r.fairness);
        // Sharing cannot speed a program up by much (tiny timing wiggle ok).
        for s in &r.slowdowns {
            assert!(*s > 0.8, "slowdown {s}");
        }
        assert!(fairness_table(&rows).to_string().contains("HM3"));
    }

    #[test]
    fn contended_machines_are_less_fair_or_slower() {
        // A mix on 2D (heavily contended) versus quad-MC 3D: weighted
        // speedup must improve with the better memory system.
        let run = RunConfig {
            warmup_cycles: 8_000,
            measure_cycles: 40_000,
            seed: 6,
            ..RunConfig::default()
        };
        let mixes = [Mix::by_name("VH3").unwrap()];
        let session = session();
        let slow = fairness(&session, &configs::cfg_2d(), &run, &mixes).unwrap();
        let fast = fairness(&session, &configs::cfg_quad_mc(), &run, &mixes).unwrap();
        assert!(
            fast[0].weighted_speedup > slow[0].weighted_speedup,
            "quad {:.2} must beat 2d {:.2}",
            fast[0].weighted_speedup,
            slow[0].weighted_speedup
        );
    }
}
