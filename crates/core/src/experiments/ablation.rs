//! Ablation studies for the design choices DESIGN.md calls out: memory
//! scheduling policy, L2 bank interleaving granularity, MSHR probing
//! scheme, and the energy side of the row-buffer cache.

use stacksim_dram::EnergyModel;
use stacksim_memctrl::SchedulerPolicy;
use stacksim_mshr::MshrKind;
use stacksim_stats::Table;
use stacksim_types::{ConfigError, InterleaveGranularity};
use stacksim_workload::Mix;

use crate::config::SystemConfig;
use crate::runner::{parallel_map, RunConfig, Session};
use crate::system::System;

use super::{gms, Grid};

/// GM speedup of `cfg` over `base` across `mixes`, with both columns run
/// as one grid (and the shared quad-MC baseline memoized across the
/// ablations that reuse it).
fn gm_speedup(
    session: &Session,
    cfg: &SystemConfig,
    base: &SystemConfig,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<f64, ConfigError> {
    let grid = Grid::run(session, &[base.clone(), cfg.clone()], run, mixes)?;
    Ok(gms(&grid.speedups(1, 0)?).1)
}

/// FR-FCFS versus FIFO scheduling (the paper assumes Rixner-style
/// row-hit-first scheduling, §2.4). Returns the GM speedup of FR-FCFS over
/// FIFO on the quad-MC machine.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_scheduler(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<f64, ConfigError> {
    let frfcfs = session.machines().quad_mc.clone();
    let mut fifo = frfcfs.clone();
    fifo.memory.policy = SchedulerPolicy::Fifo;
    gm_speedup(session, &frfcfs, &fifo, run, mixes)
}

/// Critical-word-first on versus off, measured on the *narrow-bus* 3D
/// machine where it matters most (§3's debate with Liu et al.: CWF hides
/// most of a narrow bus's latency for a single core, but not its
/// contention). Returns the GM speedup of CWF over full-line delivery.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_cwf(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<f64, ConfigError> {
    let cwf = session.machines().m3d.clone(); // 8-byte on-stack bus
    let mut full_line = cwf.clone();
    full_line.memory.critical_word_first = false;
    gm_speedup(session, &cwf, &full_line, run, mixes)
}

/// Page- versus line-granularity L2 bank interleaving on the quad-MC
/// machine (§4.1's streamlined floorplan). Returns the GM speedup of page
/// interleaving over line interleaving.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_interleave(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<f64, ConfigError> {
    let page = session.machines().quad_mc.clone();
    let mut line = page.clone();
    line.l2_interleave = InterleaveGranularity::Line;
    gm_speedup(session, &page, &line, run, mixes)
}

/// One row of the probing-scheme comparison (paper footnote 2).
#[derive(Clone, Debug)]
pub struct ProbingRow {
    /// MSHR organization.
    pub kind: MshrKind,
    /// GM speedup over the plain direct-mapped linear-probing MSHR.
    pub speedup_vs_linear: f64,
    /// Mean probes per MSHR access.
    pub probes_per_access: f64,
}

/// Compares MSHR organizations at 8× capacity on the quad-MC machine:
/// direct-mapped linear probing (the baseline the VBF accelerates),
/// quadratic probing, the VBF, and the ideal CAM.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_probing(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<Vec<ProbingRow>, ConfigError> {
    let base = session.machines().quad_mc.clone().with_mshr_scale(8);
    let kinds = [
        MshrKind::DirectLinear,
        MshrKind::DirectQuadratic,
        MshrKind::Vbf,
        MshrKind::Cam,
    ];
    // Column 0, the linear-probing machine, is also the baseline.
    let cfgs: Vec<SystemConfig> = kinds.iter().map(|&k| base.with_mshr_kind(k)).collect();
    let grid = Grid::run(session, &cfgs, run, mixes)?;
    kinds
        .iter()
        .enumerate()
        .map(|(col, &kind)| {
            let mut probe_sum = 0.0;
            for i in 0..mixes.len() {
                probe_sum += grid
                    .at(i, col)
                    .stats
                    .get("mshr_probes_per_access")
                    .unwrap_or(1.0);
            }
            Ok(ProbingRow {
                kind,
                speedup_vs_linear: gms(&grid.speedups(col, 0)?).1,
                probes_per_access: probe_sum / mixes.len().max(1) as f64,
            })
        })
        .collect()
}

/// Renders the probing comparison.
pub fn probing_table(rows: &[ProbingRow]) -> Table {
    let mut t = Table::new(vec![
        "organization".into(),
        "speedup vs linear".into(),
        "probes/access".into(),
    ]);
    t.title("Ablation: MSHR probing schemes at 8x capacity (quad-MC)");
    t.numeric();
    for r in rows {
        t.row(vec![
            r.kind.to_string(),
            format!("{:.3}", r.speedup_vs_linear),
            format!("{:.2}", r.probes_per_access),
        ]);
    }
    t
}

/// Open- versus closed-page row management on the quad-MC machine. The
/// paper's whole §4 rests on exploiting open rows (FR-FCFS + row-buffer
/// caches); this quantifies what closing the page after every access would
/// forfeit. Returns the GM speedup of open over closed.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_page_policy(
    session: &Session,
    run: &RunConfig,
    mixes: &[&'static Mix],
) -> Result<f64, ConfigError> {
    let open = session.machines().quad_mc.clone();
    let mut closed = open.clone();
    closed.memory.page_policy = stacksim_dram::PagePolicy::Closed;
    gm_speedup(session, &open, &closed, run, mixes)
}

/// Smart Refresh on versus off, on the quad-MC stacked machine (32 ms
/// refresh — the hotter stack refreshes twice as often, which is exactly
/// where refresh-skipping pays). Returns `(gm_speedup, refreshes_plain,
/// refreshes_smart)` over one memory-intensive mix.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_smart_refresh(
    session: &Session,
    run: &RunConfig,
    mix: &'static Mix,
) -> Result<(f64, f64, f64), ConfigError> {
    let plain = session.machines().quad_mc.clone();
    let mut smart = plain.clone();
    smart.memory.smart_refresh = true;
    // Two independent full-length simulations — run them side by side.
    let cfgs = [plain, smart];
    let measured = parallel_map(
        session.jobs(),
        &cfgs,
        |cfg| -> Result<(f64, f64), ConfigError> {
            let mut sys = System::for_mix(cfg, mix, run.seed)?;
            sys.run_cycles(run.warmup_cycles + run.measure_cycles);
            session.count_cycles(&sys);
            let stats = sys.metrics();
            let refreshes: f64 = (0..cfg.memory.mcs as usize)
                .map(|i| stats.get(&format!("mc{i}.ranks.refreshes")).unwrap_or(0.0))
                .sum();
            Ok((sys.total_committed() as f64, refreshes))
        },
    );
    let mut measured = measured.into_iter();
    let (committed_plain, refreshes_plain) = measured.next().expect("plain run present")?; // simlint::allow(P002, reason = "map_parallel returns one result per input; two runs in, two results out")
    let (committed_smart, refreshes_smart) = measured.next().expect("smart run present")?; // simlint::allow(P002, reason = "map_parallel returns one result per input; two runs in, two results out")
    Ok((
        committed_smart / committed_plain.max(1.0),
        refreshes_plain,
        refreshes_smart,
    ))
}

/// One row of the row-buffer-cache energy study.
#[derive(Clone, Copy, Debug)]
pub struct EnergyRow {
    /// Row-buffer entries per bank.
    pub row_buffers: usize,
    /// DRAM row-buffer hit rate achieved.
    pub row_hit_rate: f64,
    /// DRAM energy per committed kilo-instruction, nanojoules.
    pub nj_per_kilo_instruction: f64,
}

/// §4.2's energy argument: "each row buffer cache hit avoids the power
/// needed to perform a full array access". Sweeps row-buffer entries on the
/// quad-MC machine and reports hit rate and DRAM energy per work done.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails validation.
#[must_use = "holds the experiment's results or the reason it could not run"]
pub fn ablation_energy(
    session: &Session,
    run: &RunConfig,
    mix: &'static Mix,
) -> Result<Vec<EnergyRow>, ConfigError> {
    let model = EnergyModel::DDR2;
    let sweep: Vec<usize> = (1..=4).collect();
    // The four sweep points are independent full-length simulations.
    parallel_map(
        session.jobs(),
        &sweep,
        |&row_buffers| -> Result<EnergyRow, ConfigError> {
            let cfg = session.machines().aggressive(4, 16, row_buffers);
            let mut sys = System::for_mix(&cfg, mix, run.seed)?;
            sys.run_cycles(run.warmup_cycles + run.measure_cycles);
            session.count_cycles(&sys);
            let stats = sys.metrics();
            let energy = sys.dram_energy(&model);
            let committed = sys.total_committed().max(1) as f64;
            let hits: f64 = (0..4)
                .map(|i| stats.get(&format!("mc{i}.ranks.row_hits")).unwrap_or(0.0))
                .sum();
            let misses: f64 = (0..4)
                .map(|i| stats.get(&format!("mc{i}.ranks.row_misses")).unwrap_or(0.0))
                .sum();
            Ok(EnergyRow {
                row_buffers,
                row_hit_rate: hits / (hits + misses).max(1.0),
                nj_per_kilo_instruction: energy.total_nj() / committed * 1000.0,
            })
        },
    )
    .into_iter()
    .collect()
}

/// Renders the energy sweep.
pub fn energy_table(rows: &[EnergyRow]) -> Table {
    let mut t = Table::new(vec![
        "row buffers".into(),
        "row hit rate".into(),
        "nJ / kilo-instruction".into(),
    ]);
    t.title("Ablation: row-buffer cache size vs DRAM energy (quad-MC)");
    t.numeric();
    for r in rows {
        t.row(vec![
            r.row_buffers.to_string(),
            format!("{:.3}", r.row_hit_rate),
            format!("{:.1}", r.nj_per_kilo_instruction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::session;

    fn quick() -> RunConfig {
        RunConfig {
            warmup_cycles: 8_000,
            measure_cycles: 50_000,
            seed: 3,
            ..RunConfig::default()
        }
    }

    #[test]
    fn frfcfs_beats_fifo_on_streams() {
        let mixes = [Mix::by_name("VH2").unwrap()];
        let s = ablation_scheduler(&session(), &quick(), &mixes).unwrap();
        assert!(s > 0.95, "FR-FCFS {s:.3} should not lose badly to FIFO");
    }

    #[test]
    fn critical_word_first_helps_narrow_buses() {
        // M1's moderate bandwidth demand keeps queueing noise below the CWF
        // gain at this short measurement window; the very-high mixes flip
        // sign run-to-run at 50k cycles.
        let mixes = [Mix::by_name("M1").unwrap()];
        let s = ablation_cwf(&session(), &quick(), &mixes).unwrap();
        assert!(s > 1.0, "CWF must help on an 8-byte bus: {s:.3}");
    }

    #[test]
    fn probing_schemes_ordered_by_probes() {
        let mixes = [Mix::by_name("VH1").unwrap()];
        let rows = ablation_probing(&session(), &quick(), &mixes).unwrap();
        let probe_of = |k: MshrKind| rows.iter().find(|r| r.kind == k).unwrap().probes_per_access;
        assert!(probe_of(MshrKind::Cam) <= probe_of(MshrKind::Vbf));
        assert!(probe_of(MshrKind::Vbf) < probe_of(MshrKind::DirectLinear));
        let t = probing_table(&rows).to_string();
        assert!(t.contains("vbf"));
    }

    #[test]
    fn open_page_beats_closed_on_streams() {
        let mixes = [Mix::by_name("VH2").unwrap()];
        let s = ablation_page_policy(&session(), &quick(), &mixes).unwrap();
        assert!(
            s > 1.0,
            "open-page must win on row-friendly streams: {s:.3}"
        );
    }

    #[test]
    fn smart_refresh_reduces_refresh_count_without_hurting() {
        let (speedup, plain, smart) =
            ablation_smart_refresh(&session(), &quick(), Mix::by_name("VH1").unwrap()).unwrap();
        assert!(
            smart < plain,
            "smart {smart} must refresh less than plain {plain}"
        );
        assert!(
            speedup > 0.97,
            "smart refresh must not slow the machine: {speedup:.3}"
        );
    }

    #[test]
    fn bigger_row_buffer_cache_raises_hit_rate() {
        let rows = ablation_energy(&session(), &quick(), Mix::by_name("H2").unwrap()).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(
            rows[3].row_hit_rate >= rows[0].row_hit_rate,
            "rb4 hit rate {:.3} vs rb1 {:.3}",
            rows[3].row_hit_rate,
            rows[0].row_hit_rate
        );
        assert!(energy_table(&rows).to_string().contains("row hit rate"));
    }
}
