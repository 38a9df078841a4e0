//! Figure 9: the scalable L2 MHA — the ideal 8× CAM versus the VBF-based
//! direct-mapped MSHR, with and without dynamic capacity tuning, over the
//! default-sized baseline.

use stacksim_mshr::MshrKind;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{RunConfig, Session};

use super::{base_label, sim_tuner, Grid, Sweep};

/// The MHA variants of Figure 9, all built on 8× aggregate MSHR capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MhaVariant {
    /// The ideal (impractical) single-cycle fully-associative CAM at 8×.
    IdealCam,
    /// The practical VBF direct-mapped MSHR at 8×.
    Vbf,
    /// The ideal CAM at 8× with dynamic capacity tuning.
    Dynamic,
    /// VBF + dynamic tuning — the paper's proposed design (V+D).
    VbfDynamic,
}

impl MhaVariant {
    /// Table label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            MhaVariant::IdealCam => "8xMSHR",
            MhaVariant::Vbf => "VBF",
            MhaVariant::Dynamic => "Dynamic",
            MhaVariant::VbfDynamic => "V+D",
        }
    }

    /// Applies this variant to a base configuration.
    pub fn apply(&self, base: &SystemConfig) -> SystemConfig {
        let scaled = base.with_mshr_scale(8);
        match self {
            MhaVariant::IdealCam => scaled,
            MhaVariant::Vbf => scaled.with_mshr_kind(MshrKind::Vbf),
            MhaVariant::Dynamic => scaled.with_dynamic_mshr(sim_tuner()),
            MhaVariant::VbfDynamic => scaled
                .with_mshr_kind(MshrKind::Vbf)
                .with_dynamic_mshr(sim_tuner()),
        }
    }
}

/// The Figure 9 result for one base configuration.
#[derive(Clone, Debug)]
pub struct Figure9Result {
    /// The improvement sweep; its title carries the probe statistic.
    pub sweep: Sweep,
    /// Mean MSHR probes per access observed under the VBF variant
    /// (the paper reports 2.31 dual-MC / 2.21 quad-MC).
    pub vbf_probes_per_access: f64,
}

/// Runs the Figure 9 experiment on `base` (the session's
/// [`dual_mc`](crate::scenario::Machines::dual_mc) machine for (a) and
/// [`quad_mc`](crate::scenario::Machines::quad_mc) for (b)).
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn figure9(
    session: &Session,
    base: &SystemConfig,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Figure9Result, ConfigError> {
    let variants = [
        MhaVariant::IdealCam,
        MhaVariant::Vbf,
        MhaVariant::Dynamic,
        MhaVariant::VbfDynamic,
    ];
    // The baseline in front, then one configuration column per variant:
    // the VBF is column 2.
    let mut cfgs = vec![base.clone()];
    cfgs.extend(variants.iter().map(|v| v.apply(base)));
    let grid = Grid::run(session, &cfgs, run, mixes)?;
    let mut probe_sum = 0.0;
    let mut probe_count = 0usize;
    for i in 0..mixes.len() {
        if let Some(p) = grid.at(i, 2).stats.get("mshr_probes_per_access") {
            probe_sum += p;
            probe_count += 1;
        }
    }
    let vbf_probes_per_access = if probe_count > 0 {
        probe_sum / probe_count as f64
    } else {
        0.0
    };
    let title = format!(
        "Figure 9: scalable L2 MHA on {} (% improvement; VBF probes/access {:.2})",
        base_label(base),
        vbf_probes_per_access
    );
    let labels = variants.iter().map(|v| v.label().to_string()).collect();
    Ok(Figure9Result {
        sweep: Sweep::over(&grid, title, labels)?,
        vbf_probes_per_access,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;
    use crate::scenario::Machines;

    #[test]
    fn vbf_tracks_the_ideal_cam() {
        let base = Machines::builtin().quad_mc;
        let mixes = [Mix::by_name("VH1").unwrap()];
        let r = figure9(&session(), &base, &RunConfig::quick(), &mixes).unwrap();
        let (_, row) = &r.sweep.rows[0];
        let ideal = row[0];
        let vbf = row[1];
        // The paper's §5.2 finding: the VBF performs about the same as the
        // ideal fully-associative MSHR.
        assert!(
            (ideal - vbf).abs() < 10.0,
            "VBF {vbf:.1}% should track ideal {ideal:.1}%"
        );
        // And its filter keeps probes low.
        assert!(
            r.vbf_probes_per_access > 0.9 && r.vbf_probes_per_access < 4.0,
            "probes/access {:.2}",
            r.vbf_probes_per_access
        );
    }

    #[test]
    fn table_mentions_probe_statistic() {
        let base = Machines::builtin().dual_mc;
        let mixes = [Mix::by_name("VH2").unwrap()];
        let r = figure9(&session(), &base, &RunConfig::quick(), &mixes).unwrap();
        let s = r.sweep.table().to_string();
        assert!(s.contains("probes/access"));
        assert!(s.contains("V+D"));
    }
}
