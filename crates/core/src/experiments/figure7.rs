//! Figure 7: the performance impact of scaling the L2 MSHR capacity
//! (×2 / ×4 / ×8 / dynamic) on the two highlighted 3D configurations.

use stacksim_mshr::TunerConfig;
use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{RunConfig, RunPoint, Session};

use super::{gm_all, gm_memory_intensive};
#[cfg(test)]
use crate::configs;

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
            MshrVariant::Dynamic => cfg
                .with_mshr_scale(8)
                .with_dynamic_mshr(TunerConfig::default_for_sim()),
        }
    }
}

/// Tuner parameters proportionate to simulated windows (shorter than the
/// silicon-scale defaults).
trait SimTuner {
    fn default_for_sim() -> TunerConfig;
}

impl SimTuner for TunerConfig {
    fn default_for_sim() -> TunerConfig {
        TunerConfig {
            sample_cycles: 2_000,
            apply_cycles: 30_000,
            divisors: vec![1, 2, 4],
        }
    }
}

/// One mix's improvements under each variant, in percent over the baseline
/// MSHR sizing.
#[derive(Clone, Debug)]
pub struct Figure7Row {
    /// The workload mix.
    pub mix: &'static Mix,
    /// Improvement (%) per variant, aligned with
    /// [`Figure7Result::variants`].
    pub improvement_pct: Vec<f64>,
}

/// The Figure 7 result for one base configuration.
#[derive(Clone, Debug)]
pub struct Figure7Result {
    /// Base configuration label ("2 MCs, 8 Ranks, 4 Row Buffers").
    pub base_label: String,
    /// The variants measured, in column order.
    pub variants: Vec<MshrVariant>,
    /// Per-mix rows.
    pub rows: Vec<Figure7Row>,
    /// GM(H,VH) improvement (%) per variant, when H/VH mixes were run.
    pub gm_hvh_pct: Option<Vec<f64>>,
    /// GM(all) improvement (%) per variant.
    pub gm_all_pct: Vec<f64>,
}

impl Figure7Result {
    /// Renders the figure as a table.
    pub fn table(&self) -> Table {
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.variants.iter().map(MshrVariant::label));
        let mut t = Table::new(headers);
        t.title(format!(
            "Figure 7: L2 MSHR scaling on {} (% improvement)",
            self.base_label
        ));
        t.numeric();
        for row in &self.rows {
            let mut cells = vec![row.mix.name.to_string()];
            cells.extend(row.improvement_pct.iter().map(|v| format!("{v:+.1}%")));
            t.row(cells);
        }
        if let Some(gm) = &self.gm_hvh_pct {
            let mut cells = vec!["GM(H,VH)".to_string()];
            cells.extend(gm.iter().map(|v| format!("{v:+.1}%")));
            t.row(cells);
        }
        let mut cells = vec!["GM(all)".to_string()];
        cells.extend(self.gm_all_pct.iter().map(|v| format!("{v:+.1}%")));
        t.row(cells);
        t
    }
}

/// Runs the Figure 7 sweep on `base` (use [`crate::configs::cfg_dual_mc`]
/// for (a) and [`crate::configs::cfg_quad_mc`] for (b)).
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
) -> Result<Figure7Result, ConfigError> {
    let variants = vec![
        MshrVariant::Scale(2),
        MshrVariant::Scale(4),
        MshrVariant::Scale(8),
        MshrVariant::Dynamic,
    ];
    // One configuration column per variant, plus the baseline in front; the
    // whole mix x column grid fans out as a single matrix.
    let mut cfgs = vec![base.clone()];
    cfgs.extend(variants.iter().map(|v| v.apply(base)));
    let points: Vec<RunPoint> = mixes
        .iter()
        .flat_map(|&mix| cfgs.iter().map(move |cfg| (cfg.clone(), mix, *run)))
        .collect();
    let results = session.run_matrix(&points)?;
    let mut rows = Vec::with_capacity(mixes.len());
    for (i, &mix) in mixes.iter().enumerate() {
        let group = &results[cfgs.len() * i..cfgs.len() * (i + 1)];
        let baseline = &group[0];
        let improvements = group[1..]
            .iter()
            .map(|r| Ok((r.speedup_over(baseline)? - 1.0) * 100.0))
            .collect::<Result<_, ConfigError>>()?;
        rows.push(Figure7Row {
            mix,
            improvement_pct: improvements,
        });
    }
    let per_variant = |i: usize| -> Vec<(&'static Mix, f64)> {
        rows.iter()
            .map(|r| (r.mix, 1.0 + r.improvement_pct[i] / 100.0))
            .collect()
    };
    let has_hvh = mixes.iter().any(|m| {
        matches!(
            m.class,
            stacksim_workload::MixClass::High | stacksim_workload::MixClass::VeryHigh
        )
    });
    let gm_hvh_pct = has_hvh.then(|| {
        (0..variants.len())
            .map(|i| (gm_memory_intensive(&per_variant(i)) - 1.0) * 100.0)
            .collect()
    });
    let gm_all_pct = (0..variants.len())
        .map(|i| (gm_all(&per_variant(i)) - 1.0) * 100.0)
        .collect();
    Ok(Figure7Result {
        base_label: format!(
            "{} MCs, {} Ranks, {} Row Buffers",
            base.memory.mcs, base.memory.ranks, base.memory.row_buffer_entries
        ),
        variants,
        rows,
        gm_hvh_pct,
        gm_all_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;

    #[test]
    fn bigger_mshrs_help_stream_mixes() {
        let base = configs::cfg_quad_mc();
        let mixes = [Mix::by_name("VH3").unwrap()];
        let run = RunConfig {
            warmup_cycles: 10_000,
            measure_cycles: 100_000,
            seed: 0xC0FFEE,
            ..RunConfig::default()
        };
        let r = figure7(&session(), &base, &run, &mixes).unwrap();
        let row = &r.rows[0];
        // 4x capacity must clearly beat the 8-entry baseline on streams.
        let x4 = row.improvement_pct[1];
        assert!(x4 > 2.0, "4xMSHR improvement {x4:.1}% too small");
        assert_eq!(r.variants.len(), 4);
        assert!(r.table().to_string().contains("4xMSHR"));
    }

    #[test]
    fn dynamic_stays_close_to_best_static() {
        let base = configs::cfg_dual_mc();
        let mixes = [Mix::by_name("VH2").unwrap()];
        let r = figure7(&session(), &base, &RunConfig::quick(), &mixes).unwrap();
        let row = &r.rows[0];
        let best_static = row.improvement_pct[..3]
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let dynamic = row.improvement_pct[3];
        assert!(
            dynamic > best_static - 15.0,
            "dynamic {dynamic:.1}% too far from best static {best_static:.1}%"
        );
    }
}
