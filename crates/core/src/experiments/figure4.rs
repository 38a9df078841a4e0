//! Figure 4: speedups of the simple 3D-stacked organizations over off-chip
//! 2D memory.

use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::runner::{RunConfig, Session};

use super::{gms, Grid};

/// Per-mix speedups of the three stacked organizations over 2D.
#[derive(Clone, Debug)]
pub struct Figure4Row {
    /// The workload mix.
    pub mix: &'static Mix,
    /// Baseline HMIPC (2D) — the reference everything divides by.
    pub hmipc_2d: f64,
    /// 3D (on-stack commodity DRAM) speedup.
    pub speedup_3d: f64,
    /// 3D-wide (64-byte bus) speedup.
    pub speedup_wide: f64,
    /// 3D-fast (true-3D arrays) speedup.
    pub speedup_fast: f64,
}

/// The full figure.
#[derive(Clone, Debug)]
pub struct Figure4Result {
    /// One row per mix, in the paper's order.
    pub rows: Vec<Figure4Row>,
    /// GM(H,VH) of `[3D, 3D-wide, 3D-fast]`, when H/VH mixes were run.
    pub gm_hvh: Option<[f64; 3]>,
    /// GM(all) of `[3D, 3D-wide, 3D-fast]`.
    pub gm_all: [f64; 3],
}

impl Figure4Result {
    /// Renders the figure as the paper's bar-chart data.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "mix".into(),
            "2D".into(),
            "3D".into(),
            "+wide bus".into(),
            "+true 3D".into(),
        ]);
        t.title("Figure 4: speedup over off-chip (2D) memory");
        t.numeric();
        for row in &self.rows {
            t.row(vec![
                row.mix.name.into(),
                "1.000".into(),
                format!("{:.3}", row.speedup_3d),
                format!("{:.3}", row.speedup_wide),
                format!("{:.3}", row.speedup_fast),
            ]);
        }
        if let Some(gm) = self.gm_hvh {
            t.row(vec![
                "GM(H,VH)".into(),
                "1.000".into(),
                format!("{:.3}", gm[0]),
                format!("{:.3}", gm[1]),
                format!("{:.3}", gm[2]),
            ]);
        }
        t.row(vec![
            "GM(all)".into(),
            "1.000".into(),
            format!("{:.3}", self.gm_all[0]),
            format!("{:.3}", self.gm_all[1]),
            format!("{:.3}", self.gm_all[2]),
        ]);
        t
    }
}

/// Runs the Figure 4 experiment over `mixes` (pass [`Mix::all`] for the
/// full figure) on the four progression machines of the session.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn figure4(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Figure4Result, ConfigError> {
    let machines = session.machines();
    let cfgs = [
        machines.m2d.clone(),
        machines.m3d.clone(),
        machines.m3d_wide.clone(),
        machines.m3d_fast.clone(),
    ];
    let grid = Grid::run(session, &cfgs, run, mixes)?;
    let [d3, wide, fast] = [
        grid.speedups(1, 0)?,
        grid.speedups(2, 0)?,
        grid.speedups(3, 0)?,
    ];
    let rows = mixes
        .iter()
        .enumerate()
        .map(|(i, &mix)| Figure4Row {
            mix,
            hmipc_2d: grid.at(i, 0).hmipc,
            speedup_3d: d3[i].1,
            speedup_wide: wide[i].1,
            speedup_fast: fast[i].1,
        })
        .collect();
    let [g3d, gwide, gfast] = [gms(&d3), gms(&wide), gms(&fast)];
    Ok(Figure4Result {
        rows,
        gm_hvh: g3d.0.zip(gwide.0).zip(gfast.0).map(|((a, b), c)| [a, b, c]),
        gm_all: [g3d.1, gwide.1, gfast.1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;

    #[test]
    fn stacking_progression_holds_on_stream_mix() {
        let mixes = [Mix::by_name("VH1").unwrap()];
        let r = figure4(&session(), &RunConfig::quick(), &mixes).unwrap();
        let row = &r.rows[0];
        // The paper's headline shape: each step helps, in order.
        assert!(row.speedup_3d > 1.05, "3D {:.3}", row.speedup_3d);
        assert!(
            row.speedup_wide > row.speedup_3d,
            "wide {:.3}",
            row.speedup_wide
        );
        assert!(
            row.speedup_fast > row.speedup_wide,
            "fast {:.3}",
            row.speedup_fast
        );
        assert!((r.gm_hvh.unwrap()[2] - row.speedup_fast).abs() < 1e-9);
    }

    #[test]
    fn moderate_mix_benefits_less() {
        let mixes = [Mix::by_name("VH1").unwrap(), Mix::by_name("M3").unwrap()];
        let r = figure4(&session(), &RunConfig::quick(), &mixes).unwrap();
        let vh = &r.rows[0];
        let m = &r.rows[1];
        assert!(
            vh.speedup_fast > m.speedup_fast,
            "memory-bound {} must gain more than moderate {}",
            vh.speedup_fast,
            m.speedup_fast
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let mixes = [Mix::by_name("VH1").unwrap()];
        let r = figure4(&session(), &RunConfig::quick(), &mixes).unwrap();
        let t = r.table();
        let s = t.to_string();
        assert!(s.contains("VH1") && s.contains("GM(all)"));
    }
}
