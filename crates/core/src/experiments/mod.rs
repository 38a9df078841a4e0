//! Experiment drivers, one per table/figure of the paper's evaluation.
//!
//! Every driver takes a [`Session`] — the machine set, worker count and
//! run memo shared by the whole evaluation — and a [`RunConfig`] so
//! callers choose fidelity (tests run short windows; `reproduce` runs
//! longer ones), returns structured rows, and renders the same table the
//! paper prints via [`Table`].
//!
//! The drivers that compare machines run them through one `Grid` and
//! summarise per-mix speedups with one reduction, `gms`.

use std::sync::Arc;

use stacksim_mshr::TunerConfig;
use stacksim_stats::{geometric_mean, Table};
use stacksim_types::ConfigError;
use stacksim_workload::{Mix, MixClass};

use crate::config::SystemConfig;
use crate::runner::{RunConfig, RunPoint, RunResult, Session};

mod ablation;
mod fairness;
mod figure4;
mod figure6;
mod figure7;
mod figure9;
mod headline;
mod table2;
mod thermal;

pub use ablation::{
    ablation_cwf, ablation_energy, ablation_interleave, ablation_page_policy, ablation_probing,
    ablation_scheduler, ablation_smart_refresh, energy_table, probing_table, EnergyRow, ProbingRow,
};
pub use fairness::{fairness, fairness_table, FairnessRow};
pub use figure4::{figure4, Figure4Result, Figure4Row};
pub use figure6::{figure6a, figure6b, Figure6aResult, Figure6bResult, GridCell, RbCell};
pub use figure7::{figure7, MshrVariant};
pub use figure9::{figure9, Figure9Result, MhaVariant};
pub use headline::{headline, HeadlineResult};
pub use table2::{table2a, table2a_table, table2b, table2b_table, Table2aRow, Table2bRow};
pub use thermal::{thermal_check, ThermalCheck};

/// A fresh session over the built-in machines, for the drivers' unit tests.
#[cfg(test)]
fn session() -> Session {
    Session::new(crate::scenario::Machines::builtin())
}

/// Every mix run on every machine of a comparison: one row per mix, in
/// the order given, each holding one result per machine column.
struct Grid {
    rows: Vec<(&'static Mix, Vec<Arc<RunResult>>)>,
}

impl Grid {
    /// Runs `mixes` × `cfgs` as one memoized matrix, mix-major, so the
    /// whole comparison fans out across the worker pool at once.
    fn run(
        session: &Session,
        cfgs: &[SystemConfig],
        run: &RunConfig,
        mixes: &[&'static Mix],
    ) -> Result<Grid, ConfigError> {
        let points: Vec<RunPoint> = mixes
            .iter()
            .flat_map(|&mix| cfgs.iter().map(move |cfg| (cfg.clone(), mix, *run)))
            .collect();
        let mut results = session.run_matrix(&points)?.into_iter();
        let rows = mixes
            .iter()
            .map(|&mix| (mix, results.by_ref().take(cfgs.len()).collect()))
            .collect();
        Ok(Grid { rows })
    }

    /// The result of the `mix`-th mix on machine column `col`.
    fn at(&self, mix: usize, col: usize) -> &RunResult {
        &self.rows[mix].1[col]
    }

    /// Per-mix HMIPC speedups of machine column `col` over column `base`.
    fn speedups(&self, col: usize, base: usize) -> Result<Vec<(&'static Mix, f64)>, ConfigError> {
        self.rows
            .iter()
            .map(|(mix, results)| Ok((*mix, results[col].speedup_over(&results[base])?)))
            .collect()
    }
}

/// The paper's two summaries of per-mix speedups: GM(H,VH), the geometric
/// mean over the memory-intensive (H and VH) mixes, `None` when none ran,
/// and GM(all), the parenthesized number over every mix.
fn gms(rows: &[(&'static Mix, f64)]) -> (Option<f64>, f64) {
    let all: Vec<f64> = rows.iter().map(|&(_, v)| v).collect();
    let gm_all = geometric_mean(&all).expect("speedups present and positive"); // simlint::allow(P002, reason = "callers pass one positive HMIPC ratio per mix of a non-empty mix set")
    let hvh: Vec<f64> = rows
        .iter()
        .filter(|(m, _)| matches!(m.class, MixClass::High | MixClass::VeryHigh))
        .map(|&(_, v)| v)
        .collect();
    // Every value is positive once GM(all) exists, so this is `None`
    // only when no H or VH mix ran.
    (geometric_mean(&hvh).ok(), gm_all)
}

/// Dynamic-tuner parameters proportionate to simulated windows (shorter
/// than the silicon-scale defaults), shared by Figures 7 and 9 (and so by
/// the headline, whose full proposal is Figure 9's V+D).
fn sim_tuner() -> TunerConfig {
    TunerConfig {
        sample_cycles: 2_000,
        apply_cycles: 30_000,
        divisors: vec![1, 2, 4],
    }
}

/// Table label of a base machine ("2 MCs, 8 Ranks, 4 Row Buffers").
fn base_label(base: &SystemConfig) -> String {
    format!(
        "{} MCs, {} Ranks, {} Row Buffers",
        base.memory.mcs, base.memory.ranks, base.memory.row_buffer_entries
    )
}

/// A variant sweep over one base machine, as Figures 7 and 9 report it:
/// each variant's HMIPC improvement over the base, in percent.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Table title.
    pub title: String,
    /// Variant labels, in column order.
    pub labels: Vec<String>,
    /// Per-mix improvements (%), aligned with [`labels`](Self::labels).
    pub rows: Vec<(&'static Mix, Vec<f64>)>,
    /// GM(H,VH) improvement (%) per variant, when H/VH mixes were run.
    pub gm_hvh_pct: Option<Vec<f64>>,
    /// GM(all) improvement (%) per variant.
    pub gm_all_pct: Vec<f64>,
}

impl Sweep {
    /// Reduces a grid whose column 0 is the base machine and whose column
    /// `i + 1` is the variant labelled `labels[i]`.
    fn over(grid: &Grid, title: String, labels: Vec<String>) -> Result<Sweep, ConfigError> {
        let pct = |s: f64| (s - 1.0) * 100.0;
        let cols: Vec<Vec<(&'static Mix, f64)>> = (1..=labels.len())
            .map(|col| {
                let speedups = grid.speedups(col, 0)?;
                Ok(speedups.into_iter().map(|(m, s)| (m, pct(s))).collect())
            })
            .collect::<Result<_, ConfigError>>()?;
        let rows = grid
            .rows
            .iter()
            .enumerate()
            .map(|(i, (mix, _))| (*mix, cols.iter().map(|col| col[i].1).collect()))
            .collect();
        // The GMs are taken over the improvements read back as ratios,
        // `1 + pct / 100`, not over the raw speedups: the two differ in the
        // last bits, and the pinned result trees hold this form.
        let summaries: Vec<(Option<f64>, f64)> = cols
            .iter()
            .map(|col| {
                let ratios: Vec<(&'static Mix, f64)> =
                    col.iter().map(|&(m, p)| (m, 1.0 + p / 100.0)).collect();
                gms(&ratios)
            })
            .collect();
        Ok(Sweep {
            title,
            labels,
            rows,
            gm_hvh_pct: summaries.iter().map(|g| g.0.map(pct)).collect(),
            gm_all_pct: summaries.iter().map(|g| pct(g.1)).collect(),
        })
    }

    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.labels.iter().cloned());
        let mut t = Table::new(headers);
        t.title(self.title.clone());
        t.numeric();
        let mut row = |name: &str, pcts: &[f64]| {
            let mut cells = vec![name.to_string()];
            cells.extend(pcts.iter().map(|v| format!("{v:+.1}%")));
            t.row(cells);
        };
        for (mix, pcts) in &self.rows {
            row(mix.name, pcts);
        }
        if let Some(gm) = &self.gm_hvh_pct {
            row("GM(H,VH)", gm);
        }
        row("GM(all)", &self.gm_all_pct);
        t
    }
}
