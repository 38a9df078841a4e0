//! The paper's headline numbers (§4.2 and §5.2): cumulative speedups of
//! the aggressive 3D organization plus the scalable MHA over 3D-fast and
//! over the conventional 2D machine.

use stacksim_mshr::{MshrKind, TunerConfig};
use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{RunConfig, RunPoint, Session};

use super::gm_memory_intensive;

/// The cumulative-speedup summary.
#[derive(Clone, Debug)]
pub struct HeadlineResult {
    /// GM(H,VH) speedup of 3D-fast over 2D (the paper reports 2.17×).
    pub fast_over_2d: f64,
    /// GM(H,VH) speedup of the aggressive organization (4 row buffers)
    /// over 3D-fast (the paper reports 1.75×).
    pub aggressive_over_fast: f64,
    /// GM(H,VH) speedup of aggressive + scalable MHA (VBF + dynamic, 8×)
    /// over the aggressive organization (the paper reports +17.8 % for the
    /// quad-MC configuration).
    pub mha_over_aggressive: f64,
    /// GM(H,VH) speedup of the full proposal over 2D (the paper reports
    /// 4.46× quad-MC).
    pub total_over_2d: f64,
}

impl HeadlineResult {
    /// Renders the summary.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["comparison".into(), "paper".into(), "measured".into()]);
        t.title("Headline cumulative speedups, GM(H,VH)");
        t.numeric();
        t.row(vec![
            "3D-fast / 2D".into(),
            "2.17x".into(),
            format!("{:.2}x", self.fast_over_2d),
        ]);
        t.row(vec![
            "aggressive / 3D-fast".into(),
            "1.75x".into(),
            format!("{:.2}x", self.aggressive_over_fast),
        ]);
        t.row(vec![
            "+scalable MHA".into(),
            "+17.8%".into(),
            format!("{:+.1}%", (self.mha_over_aggressive - 1.0) * 100.0),
        ]);
        t.row(vec![
            "total / 2D".into(),
            "4.46x".into(),
            format!("{:.2}x", self.total_over_2d),
        ]);
        t
    }
}

/// Computes the headline numbers on the quad-MC configuration.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn headline(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<HeadlineResult, ConfigError> {
    let machines = session.machines();
    let cfg_2d = machines.m2d.clone();
    let cfg_fast = machines.m3d_fast.clone();
    let cfg_aggr = machines.quad_mc.clone();
    let cfg_mha: SystemConfig = cfg_aggr
        .with_mshr_scale(8)
        .with_mshr_kind(MshrKind::Vbf)
        .with_dynamic_mshr(TunerConfig {
            sample_cycles: 2_000,
            apply_cycles: 30_000,
            divisors: vec![1, 2, 4],
        });

    let cfgs = [cfg_2d, cfg_fast, cfg_aggr, cfg_mha];
    let points: Vec<RunPoint> = mixes
        .iter()
        .flat_map(|&mix| cfgs.iter().map(move |cfg| (cfg.clone(), mix, *run)))
        .collect();
    let results = session.run_matrix(&points)?;
    let mut fast_over_2d = Vec::new();
    let mut aggr_over_fast = Vec::new();
    let mut mha_over_aggr = Vec::new();
    let mut total_over_2d = Vec::new();
    for (i, &mix) in mixes.iter().enumerate() {
        let [r2d, rfast, raggr, rmha] = &results[cfgs.len() * i..cfgs.len() * (i + 1)] else {
            unreachable!("run_matrix preserves point count") // simlint::allow(P003, reason = "run_matrix returns exactly one result per input point")
        };
        fast_over_2d.push((mix, rfast.speedup_over(r2d)?));
        aggr_over_fast.push((mix, raggr.speedup_over(rfast)?));
        mha_over_aggr.push((mix, rmha.speedup_over(raggr)?));
        total_over_2d.push((mix, rmha.speedup_over(r2d)?));
    }
    Ok(HeadlineResult {
        fast_over_2d: gm_memory_intensive(&fast_over_2d),
        aggressive_over_fast: gm_memory_intensive(&aggr_over_fast),
        mha_over_aggressive: gm_memory_intensive(&mha_over_aggr),
        total_over_2d: gm_memory_intensive(&total_over_2d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;

    #[test]
    fn cumulative_ordering_holds() {
        let mixes = [Mix::by_name("VH1").unwrap(), Mix::by_name("H1").unwrap()];
        let r = headline(&session(), &RunConfig::quick(), &mixes).unwrap();
        assert!(r.fast_over_2d > 1.1, "3D-fast/2D {:.2}", r.fast_over_2d);
        assert!(
            r.aggressive_over_fast > 1.0,
            "aggr/fast {:.2}",
            r.aggressive_over_fast
        );
        assert!(
            r.total_over_2d > r.fast_over_2d,
            "total {:.2} must exceed fast {:.2}",
            r.total_over_2d,
            r.fast_over_2d
        );
        assert!(r.table().to_string().contains("4.46x"));
    }
}
