//! Figure 7: the performance impact of scaling the L2 MSHR capacity
//! (×2 / ×4 / ×8 / dynamic) on the two highlighted 3D configurations.

use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{RunConfig, Session};

use super::{base_label, sim_tuner, Grid, Sweep};

/// One MSHR sizing variant of the sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrVariant {
    /// Aggregate capacity multiplied by the factor (1 = baseline sizing).
    Scale(usize),
    /// ×8 capacity with the §5.1 dynamic capacity tuner.
    Dynamic,
}

impl MshrVariant {
    /// Label used in tables ("2xMSHR", "Dynamic", …).
    pub fn label(&self) -> String {
        match self {
            MshrVariant::Scale(1) => "baseline".into(),
            MshrVariant::Scale(n) => format!("{n}xMSHR"),
            MshrVariant::Dynamic => "Dynamic".into(),
        }
    }

    /// Applies this variant to a configuration.
    pub fn apply(&self, cfg: &SystemConfig) -> SystemConfig {
        match self {
            MshrVariant::Scale(n) => cfg.with_mshr_scale(*n),
            MshrVariant::Dynamic => cfg.with_mshr_scale(8).with_dynamic_mshr(sim_tuner()),
        }
    }
}

/// Runs the Figure 7 sweep on `base` (the session's
/// [`dual_mc`](crate::scenario::Machines::dual_mc) machine for (a) and
/// [`quad_mc`](crate::scenario::Machines::quad_mc) for (b)).
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn figure7(
    session: &Session,
    base: &SystemConfig,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Sweep, ConfigError> {
    let variants = [
        MshrVariant::Scale(2),
        MshrVariant::Scale(4),
        MshrVariant::Scale(8),
        MshrVariant::Dynamic,
    ];
    // The baseline in front, then one configuration column per variant.
    let mut cfgs = vec![base.clone()];
    cfgs.extend(variants.iter().map(|v| v.apply(base)));
    let grid = Grid::run(session, &cfgs, run, mixes)?;
    Sweep::over(
        &grid,
        format!(
            "Figure 7: L2 MSHR scaling on {} (% improvement)",
            base_label(base)
        ),
        variants.iter().map(MshrVariant::label).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;
    use crate::scenario::Machines;

    #[test]
    fn bigger_mshrs_help_stream_mixes() {
        let base = Machines::builtin().quad_mc;
        let mixes = [Mix::by_name("VH3").unwrap()];
        let run = RunConfig {
            warmup_cycles: 10_000,
            measure_cycles: 100_000,
            seed: 0xC0FFEE,
            ..RunConfig::default()
        };
        let r = figure7(&session(), &base, &run, &mixes).unwrap();
        let (_, row) = &r.rows[0];
        // 4x capacity must clearly beat the 8-entry baseline on streams.
        let x4 = row[1];
        assert!(x4 > 2.0, "4xMSHR improvement {x4:.1}% too small");
        assert_eq!(r.labels.len(), 4);
        assert!(r.table().to_string().contains("4xMSHR"));
    }

    #[test]
    fn dynamic_stays_close_to_best_static() {
        let base = Machines::builtin().dual_mc;
        let mixes = [Mix::by_name("VH2").unwrap()];
        let r = figure7(&session(), &base, &RunConfig::quick(), &mixes).unwrap();
        let (_, row) = &r.rows[0];
        let best_static = row[..3].iter().cloned().fold(f64::MIN, f64::max);
        let dynamic = row[3];
        assert!(
            dynamic > best_static - 15.0,
            "dynamic {dynamic:.1}% too far from best static {best_static:.1}%"
        );
    }
}
