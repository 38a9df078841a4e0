//! Figure 6: (a) memory controllers × ranks, plus extra-L2 alternatives;
//! (b) row-buffer cache entries. All speedups are over the 3D-fast
//! baseline.

use stacksim_stats::Table;
use stacksim_types::ConfigError;
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{RunConfig, Session};

use super::{gms, Grid};

/// One (MC count, rank count) grid cell of Figure 6(a).
#[derive(Clone, Copy, Debug)]
pub struct GridCell {
    /// Memory controllers.
    pub mcs: u16,
    /// Global ranks.
    pub ranks: u16,
    /// GM(H,VH) speedup over 3D-fast.
    pub speedup_hvh: f64,
    /// GM(all) speedup over 3D-fast.
    pub speedup_all: f64,
}

/// The Figure 6(a) result: the MC × rank grid and the spend-the-transistors-
/// on-L2-instead alternatives.
#[derive(Clone, Debug)]
pub struct Figure6aResult {
    /// Grid cells for MCs ∈ {1, 2, 4} × ranks ∈ {8, 16}.
    pub grid: Vec<GridCell>,
    /// Speedups for +512 KB and +1 MB of extra L2 on the unmodified
    /// baseline, `(extra_bytes, gm_hvh, gm_all)`.
    pub extra_l2: Vec<(u64, f64, f64)>,
}

impl Figure6aResult {
    /// The speedup of a specific grid cell, if present.
    pub fn cell(&self, mcs: u16, ranks: u16) -> Option<&GridCell> {
        self.grid.iter().find(|c| c.mcs == mcs && c.ranks == ranks)
    }

    /// Renders the grid as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec!["config".into(), "GM(H,VH)".into(), "GM(all)".into()]);
        t.title("Figure 6(a): speedup over 3D-fast, varying MCs and ranks");
        t.numeric();
        for c in &self.grid {
            t.row(vec![
                format!("{} MC, {} ranks", c.mcs, c.ranks),
                format!("{:.3}", c.speedup_hvh),
                format!("{:.3}", c.speedup_all),
            ]);
        }
        for &(bytes, hvh, all) in &self.extra_l2 {
            t.row(vec![
                format!("+{} KB L2", bytes >> 10),
                format!("{hvh:.3}"),
                format!("{all:.3}"),
            ]);
        }
        t
    }
}

/// One row-buffer sweep point of Figure 6(b).
#[derive(Clone, Copy, Debug)]
pub struct RbCell {
    /// Memory controllers of the underlying configuration.
    pub mcs: u16,
    /// Ranks of the underlying configuration.
    pub ranks: u16,
    /// Row-buffer entries per bank.
    pub row_buffers: usize,
    /// GM(H,VH) speedup over 3D-fast.
    pub speedup_hvh: f64,
    /// GM(all) speedup over 3D-fast.
    pub speedup_all: f64,
}

/// The Figure 6(b) result: row-buffer entries 1→4 on the two highlighted
/// configurations.
#[derive(Clone, Debug)]
pub struct Figure6bResult {
    /// All sweep points.
    pub cells: Vec<RbCell>,
}

impl Figure6bResult {
    /// A specific sweep point, if present.
    pub fn cell(&self, mcs: u16, row_buffers: usize) -> Option<&RbCell> {
        self.cells
            .iter()
            .find(|c| c.mcs == mcs && c.row_buffers == row_buffers)
    }

    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "config".into(),
            "row buffers".into(),
            "GM(H,VH)".into(),
            "GM(all)".into(),
        ]);
        t.title("Figure 6(b): speedup over 3D-fast, varying row-buffer entries");
        t.numeric();
        for c in &self.cells {
            t.row(vec![
                format!("{} MC, {} ranks", c.mcs, c.ranks),
                c.row_buffers.to_string(),
                format!("{:.3}", c.speedup_hvh),
                format!("{:.3}", c.speedup_all),
            ]);
        }
        t
    }
}

/// Speedup GMs `(GM(H,VH), GM(all))` of each configuration over 3D-fast,
/// all run as one grid. GM(H,VH) falls back to GM(all) when no H or VH
/// mix ran.
fn gms_over_fast(
    session: &Session,
    cfgs: impl IntoIterator<Item = SystemConfig>,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Vec<(f64, f64)>, ConfigError> {
    let mut cols = vec![session.machines().m3d_fast.clone()];
    cols.extend(cfgs);
    let grid = Grid::run(session, &cols, run, mixes)?;
    (1..cols.len())
        .map(|col| {
            let (hvh, all) = gms(&grid.speedups(col, 0)?);
            Ok((hvh.unwrap_or(all), all))
        })
        .collect()
}

/// Runs the Figure 6(a) experiment.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn figure6a(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Figure6aResult, ConfigError> {
    let machines = session.machines();
    let grid_shape: Vec<(u16, u16)> = [8u16, 16]
        .iter()
        .flat_map(|&ranks| [1u16, 2, 4].map(|mcs| (mcs, ranks)))
        .collect();
    let l2_bytes = [512u64 << 10, 1 << 20];
    let cfgs = grid_shape
        .iter()
        .map(|&(mcs, ranks)| machines.aggressive(mcs, ranks, 1))
        .chain(
            l2_bytes
                .iter()
                .map(|&b| machines.m3d_fast.clone().with_extra_l2(b)),
        );
    let gms = gms_over_fast(session, cfgs, run, mixes)?;
    let grid = grid_shape
        .iter()
        .zip(&gms)
        .map(|(&(mcs, ranks), &(hvh, all))| GridCell {
            mcs,
            ranks,
            speedup_hvh: hvh,
            speedup_all: all,
        })
        .collect();
    let extra_l2 = l2_bytes
        .iter()
        .zip(&gms[grid_shape.len()..])
        .map(|(&bytes, &(hvh, all))| (bytes, hvh, all))
        .collect();
    Ok(Figure6aResult { grid, extra_l2 })
}

/// Runs the Figure 6(b) experiment.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn figure6b(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Figure6bResult, ConfigError> {
    let machines = session.machines();
    let shape: Vec<(u16, u16, usize)> = [(2u16, 8u16), (4, 16)]
        .iter()
        .flat_map(|&(mcs, ranks)| (1..=4usize).map(move |rb| (mcs, ranks, rb)))
        .collect();
    let cfgs = shape
        .iter()
        .map(|&(mcs, ranks, rb)| machines.aggressive(mcs, ranks, rb));
    let gms = gms_over_fast(session, cfgs, run, mixes)?;
    let cells = shape
        .iter()
        .zip(&gms)
        .map(|(&(mcs, ranks, row_buffers), &(hvh, all))| RbCell {
            mcs,
            ranks,
            row_buffers,
            speedup_hvh: hvh,
            speedup_all: all,
        })
        .collect();
    Ok(Figure6bResult { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;

    fn quick_mixes() -> Vec<&'static Mix> {
        vec![Mix::by_name("VH1").unwrap(), Mix::by_name("VH2").unwrap()]
    }

    #[test]
    fn more_mcs_help_memory_bound_mixes() {
        let r = figure6a(&session(), &RunConfig::quick(), &quick_mixes()).unwrap();
        let one = r.cell(1, 8).unwrap().speedup_hvh;
        let four = r.cell(4, 8).unwrap().speedup_hvh;
        assert!(
            four > one,
            "4 MCs ({four:.3}) must beat 1 MC ({one:.3}) on stream mixes"
        );
        assert_eq!(r.grid.len(), 6);
        assert_eq!(r.extra_l2.len(), 2);
    }

    #[test]
    fn row_buffers_help_and_saturate() {
        let r = figure6b(&session(), &RunConfig::quick(), &quick_mixes()).unwrap();
        assert_eq!(r.cells.len(), 8);
        let rb1 = r.cell(4, 1).unwrap().speedup_hvh;
        let rb4 = r.cell(4, 4).unwrap().speedup_hvh;
        assert!(
            rb4 >= rb1 * 0.98,
            "row buffers must not hurt: {rb1:.3} -> {rb4:.3}"
        );
        let t = r.table().to_string();
        assert!(t.contains("4 MC, 16 ranks"));
    }
}
