//! The paper's headline numbers (§4.2 and §5.2): cumulative speedups of
//! the aggressive 3D organization plus the scalable MHA over 3D-fast and
//! over the conventional 2D machine.

use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::runner::{RunConfig, Session};

use super::{gms, Grid, MhaVariant};

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
///
/// # Panics
///
/// Panics if `mixes` holds no H or VH mix.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn headline(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<HeadlineResult, ConfigError> {
    let machines = session.machines();
    let cfgs = [
        machines.m2d.clone(),
        machines.m3d_fast.clone(),
        machines.quad_mc.clone(),
        MhaVariant::VbfDynamic.apply(&machines.quad_mc),
    ];
    let grid = Grid::run(session, &cfgs, run, mixes)?;
    let gm_hvh = |col: usize, base: usize| -> Result<f64, ConfigError> {
        let (hvh, _) = gms(&grid.speedups(col, base)?);
        Ok(hvh.expect("H/VH mixes present")) // simlint::allow(P002, reason = "the headline is defined over the H and VH mixes, which callers pass")
    };
    Ok(HeadlineResult {
        fast_over_2d: gm_hvh(1, 0)?,
        aggressive_over_fast: gm_hvh(2, 1)?,
        mha_over_aggressive: gm_hvh(3, 2)?,
        total_over_2d: gm_hvh(3, 0)?,
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
