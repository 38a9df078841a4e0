//! Quickstart: build the paper's machines, run one memory-intensive mix,
//! and compare the 2D baseline against the proposed 3D organization.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stacksim::runner::{run_mix, RunConfig};
use stacksim::scenario::Machines;
use stacksim::System;
use stacksim_stats::Table;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table 1 at a glance: the baseline machine.
    let machines = Machines::builtin();
    let cfg = &machines.m2d;
    println!("Baseline quad-core (Table 1):");
    println!("  cores                : {}", cfg.cores);
    println!("  core clock           : {:.3} GHz", cfg.core_hz / 1e9);
    println!(
        "  issue width          : {} uops/cycle",
        cfg.core.issue_width
    );
    println!("  reorder window       : {} entries", cfg.core.window);
    println!(
        "  DL1                  : {} KB, {}-way, {} MSHRs",
        cfg.core.dl1.size_bytes >> 10,
        cfg.core.dl1.associativity,
        cfg.core.l1_mshrs
    );
    println!(
        "  L2                   : {} MB, {}-way, {} banks, {} MSHRs",
        cfg.l2.size_bytes >> 20,
        cfg.l2.associativity,
        cfg.l2_banks,
        cfg.mshr.total_entries
    );
    println!(
        "  memory               : {} GB, {} ranks, {} banks/rank, {} MC(s)",
        cfg.memory.total_bytes >> 30,
        cfg.memory.ranks,
        cfg.memory.banks_per_rank,
        cfg.memory.mcs
    );
    println!(
        "  DRAM timing          : tRAS={}ns tRCD/tCAS/tWR/tRP={}ns",
        cfg.memory.timing.t_ras_ns, cfg.memory.timing.t_cas_ns
    );
    println!();

    // Run one high-miss mix on the 2D baseline and on the full 3D proposal.
    let mix = Mix::by_name("H1").ok_or("mix H1 missing")?;
    println!("Running {mix} ...");
    let run = RunConfig::default();
    let base = run_mix(&machines.m2d, mix, &run)?;
    let fast = run_mix(&machines.m3d_fast, mix, &run)?;
    let quad = run_mix(&machines.quad_mc, mix, &run)?;

    let mut t = Table::new(vec![
        "configuration".into(),
        "HMIPC".into(),
        "speedup vs 2D".into(),
    ]);
    t.title(format!("{} on three machines", mix.name));
    t.numeric();
    for (name, r) in [
        ("2D off-chip", &base),
        ("3D-fast", &fast),
        ("aggressive 3D (4 MC)", &quad),
    ] {
        t.row(vec![
            name.into(),
            format!("{:.3}", r.hmipc),
            format!("{:.2}x", r.speedup_over(&base)?),
        ]);
    }
    println!("{t}");

    // Peek at the machine directly for per-component statistics.
    let mut system = System::for_mix(&machines.quad_mc, mix, run.seed)?;
    system.run_cycles(50_000);
    let stats = system.metrics();
    println!("Selected machine statistics after 50k cycles:");
    for key in [
        "committed",
        "l2.misses",
        "l2.miss_rate",
        "mc0.row_hit_rate",
        "mshr_probes_per_access",
    ] {
        if let Some(v) = stats.get(key) {
            println!("  {key:>24} = {v:.4}");
        }
    }
    Ok(())
}
