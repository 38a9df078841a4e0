//! Experiment drivers, one per table/figure of the paper's evaluation.
//!
//! Every driver takes a [`Session`](crate::runner::Session) — the machine
//! set, worker count and run memo shared by the whole evaluation — and a
//! [`RunConfig`](crate::runner::RunConfig) so callers choose fidelity
//! (tests run short windows; `reproduce` runs longer ones), returns
//! structured rows, and renders the same table the paper prints via
//! [`Table`](stacksim_stats::Table).

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
pub use figure7::{figure7, Figure7Result, Figure7Row, MshrVariant};
pub use figure9::{figure9, Figure9Result, Figure9Row, MhaVariant};
pub use headline::{headline, HeadlineResult};
pub use table2::{table2a, table2a_table, table2b, table2b_table, Table2aRow, Table2bRow};
pub use thermal::{thermal_check, ThermalCheck};

use stacksim_stats::geometric_mean;
use stacksim_workload::{Mix, MixClass};

/// A fresh session over the built-in machines, for the drivers' unit tests.
#[cfg(test)]
fn session() -> crate::runner::Session {
    crate::runner::Session::new(crate::scenario::Machines::builtin())
}

/// Geometric mean over the rows whose mix is memory-intensive (H and VH) —
/// the paper's primary summary statistic.
pub(crate) fn gm_memory_intensive(rows: &[(&'static Mix, f64)]) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|(m, _)| matches!(m.class, MixClass::High | MixClass::VeryHigh))
        .map(|&(_, v)| v)
        .collect();
    geometric_mean(&vals).expect("H/VH rows present") // simlint::allow(P002, reason = "the paper's mix table always contains High and VeryHigh rows")
}

/// Geometric mean over all rows (the parenthesized numbers in the paper).
pub(crate) fn gm_all(rows: &[(&'static Mix, f64)]) -> f64 {
    let vals: Vec<f64> = rows.iter().map(|&(_, v)| v).collect();
    geometric_mean(&vals).expect("rows present") // simlint::allow(P002, reason = "callers pass the full non-empty row set")
}
