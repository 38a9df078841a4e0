//! Ablation studies of the design choices DESIGN.md calls out: scheduling
//! policy, L2 interleaving granularity, MSHR probing schemes, and the
//! row-buffer-cache energy effect.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use stacksim::experiments::{
    ablation_cwf, ablation_energy, ablation_interleave, ablation_page_policy, ablation_probing,
    ablation_scheduler, ablation_smart_refresh, energy_table, probing_table,
};
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = RunConfig::default();
    let mixes: Vec<&'static Mix> = Mix::memory_intensive().collect();

    let session = Session::new(Machines::builtin());
    let s = ablation_scheduler(&session, &run, &mixes)?;
    println!("FR-FCFS over FIFO scheduling (quad-MC, GM H/VH): {s:.3}x");

    let s = ablation_interleave(&session, &run, &mixes)?;
    println!("Page- over line-granularity L2 interleave (quad-MC, GM H/VH): {s:.3}x");

    let s = ablation_cwf(&session, &run, &mixes)?;
    println!("Critical-word-first over full-line delivery (narrow-bus 3D, GM H/VH): {s:.3}x");
    println!();

    let s = ablation_page_policy(&session, &run, &mixes)?;
    println!("Open- over closed-page row management (quad-MC, GM H/VH): {s:.3}x");

    let (sr_speedup, sr_plain, sr_smart) =
        ablation_smart_refresh(&session, &run, Mix::by_name("VH1").ok_or("missing mix")?)?;
    println!(
        "Smart Refresh (quad-MC, VH1): {sr_speedup:.3}x speedup, refreshes {sr_plain:.0} -> {sr_smart:.0}"
    );
    println!();

    let rows = ablation_probing(&session, &run, &mixes)?;
    println!("{}", probing_table(&rows));

    let rows = ablation_energy(&session, &run, Mix::by_name("H2").ok_or("missing mix")?)?;
    println!("{}", energy_table(&rows));
    Ok(())
}
