//! Figure 9: the scalable L2 MHA — the ideal 8× CAM versus the VBF-based
//! direct-mapped MSHR, with and without dynamic capacity tuning, over the
//! default-sized baseline.

use stacksim_mshr::{MshrKind, TunerConfig};
use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{RunConfig, RunPoint, Session};

use super::{gm_all, gm_memory_intensive};

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
        let tuner = TunerConfig {
            sample_cycles: 2_000,
            apply_cycles: 30_000,
            divisors: vec![1, 2, 4],
        };
        let scaled = base.with_mshr_scale(8);
        match self {
            MhaVariant::IdealCam => scaled,
            MhaVariant::Vbf => scaled.with_mshr_kind(MshrKind::Vbf),
            MhaVariant::Dynamic => scaled.with_dynamic_mshr(tuner),
            MhaVariant::VbfDynamic => scaled
                .with_mshr_kind(MshrKind::Vbf)
                .with_dynamic_mshr(tuner),
        }
    }
}

/// One mix's improvements under each variant.
#[derive(Clone, Debug)]
pub struct Figure9Row {
    /// The workload mix.
    pub mix: &'static Mix,
    /// Improvement (%) over the default-MSHR baseline, aligned with
    /// [`Figure9Result::variants`].
    pub improvement_pct: Vec<f64>,
}

/// The Figure 9 result for one base configuration.
#[derive(Clone, Debug)]
pub struct Figure9Result {
    /// Base configuration label.
    pub base_label: String,
    /// Variants measured, in column order.
    pub variants: Vec<MhaVariant>,
    /// Per-mix rows.
    pub rows: Vec<Figure9Row>,
    /// GM(H,VH) improvement (%) per variant, when H/VH mixes were run.
    pub gm_hvh_pct: Option<Vec<f64>>,
    /// GM(all) improvement (%) per variant.
    pub gm_all_pct: Vec<f64>,
    /// Mean MSHR probes per access observed under the VBF variant
    /// (the paper reports 2.31 dual-MC / 2.21 quad-MC).
    pub vbf_probes_per_access: f64,
}

impl Figure9Result {
    /// Renders the figure as a table.
    pub fn table(&self) -> Table {
        let mut headers = vec!["mix".to_string()];
        headers.extend(self.variants.iter().map(|v| v.label().to_string()));
        let mut t = Table::new(headers);
        t.title(format!(
            "Figure 9: scalable L2 MHA on {} (% improvement; VBF probes/access {:.2})",
            self.base_label, self.vbf_probes_per_access
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

/// Runs the Figure 9 experiment on `base` (use [`crate::configs::cfg_dual_mc`]
/// for (a) and [`crate::configs::cfg_quad_mc`] for (b)).
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
    let variants = vec![
        MhaVariant::IdealCam,
        MhaVariant::Vbf,
        MhaVariant::Dynamic,
        MhaVariant::VbfDynamic,
    ];
    // Baseline first, then one column per variant; the full mix x column
    // grid runs as a single matrix.
    let mut cfgs = vec![base.clone()];
    cfgs.extend(variants.iter().map(|v| v.apply(base)));
    let points: Vec<RunPoint> = mixes
        .iter()
        .flat_map(|&mix| cfgs.iter().map(move |cfg| (cfg.clone(), mix, *run)))
        .collect();
    let results = session.run_matrix(&points)?;
    let mut rows = Vec::with_capacity(mixes.len());
    let mut vbf_probe_sum = 0.0;
    let mut vbf_probe_count = 0usize;
    for (i, &mix) in mixes.iter().enumerate() {
        let group = &results[cfgs.len() * i..cfgs.len() * (i + 1)];
        let baseline = &group[0];
        let mut improvements = Vec::with_capacity(variants.len());
        for (v, r) in variants.iter().zip(&group[1..]) {
            if *v == MhaVariant::Vbf {
                if let Some(p) = r.stats.get("mshr_probes_per_access") {
                    vbf_probe_sum += p;
                    vbf_probe_count += 1;
                }
            }
            improvements.push((r.speedup_over(baseline)? - 1.0) * 100.0);
        }
        rows.push(Figure9Row {
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
    Ok(Figure9Result {
        base_label: format!(
            "{} MCs, {} Ranks, {} Row Buffers",
            base.memory.mcs, base.memory.ranks, base.memory.row_buffer_entries
        ),
        variants,
        rows,
        gm_hvh_pct,
        gm_all_pct,
        vbf_probes_per_access: if vbf_probe_count > 0 {
            vbf_probe_sum / vbf_probe_count as f64
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::experiments::session;

    #[test]
    fn vbf_tracks_the_ideal_cam() {
        let base = configs::cfg_quad_mc();
        let mixes = [Mix::by_name("VH1").unwrap()];
        let r = figure9(&session(), &base, &RunConfig::quick(), &mixes).unwrap();
        let row = &r.rows[0];
        let ideal = row.improvement_pct[0];
        let vbf = row.improvement_pct[1];
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
        let base = configs::cfg_dual_mc();
        let mixes = [Mix::by_name("VH2").unwrap()];
        let r = figure9(&session(), &base, &RunConfig::quick(), &mixes).unwrap();
        let s = r.table().to_string();
        assert!(s.contains("probes/access"));
        assert!(s.contains("V+D"));
    }
}
