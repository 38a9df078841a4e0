//! Multiprogram throughput and fairness: weighted speedup and min/max
//! slowdown fairness for the memory-intensive mixes on three machines.
//!
//! ```sh
//! cargo run --release --example fairness
//! ```

use stacksim::experiments::{fairness, fairness_table};
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = RunConfig::default();
    let mixes: Vec<&'static Mix> = Mix::memory_intensive().collect();
    let session = Session::new(Machines::builtin());
    let m = session.machines();
    for (name, cfg) in [
        ("2D off-chip", &m.m2d),
        ("3D-fast", &m.m3d_fast),
        ("aggressive quad-MC", &m.quad_mc),
    ] {
        println!("--- {name} ---");
        let rows = fairness(&session, cfg, &run, &mixes)?;
        println!("{}", fairness_table(&rows));
    }
    Ok(())
}
