//! Regenerates Figures 7 and 9: the L2 MSHR capacity sweep and the scalable
//! VBF + dynamic miss-handling architecture, on both highlighted 3D
//! configurations.
//!
//! ```sh
//! cargo run --release --example mshr_scaling
//! ```

use stacksim::experiments::{figure7, figure9};
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = RunConfig::default();
    let mixes: Vec<&'static Mix> = Mix::all().iter().collect();
    let session = Session::new(Machines::builtin());
    let machines = session.machines();
    for (label, base) in [
        ("Figure 7(a)/9(a)", &machines.dual_mc),
        ("Figure 7(b)/9(b)", &machines.quad_mc),
    ] {
        println!("--- {label}: {} MCs ---", base.memory.mcs);
        let f7 = figure7(&session, base, &run, &mixes)?;
        println!("{}", f7.table());
        let f9 = figure9(&session, base, &run, &mixes)?;
        println!("{}", f9.table());
    }
    println!("Paper: V+D improves GM(H,VH) by 23.0% (dual-MC) / 17.8% (quad-MC)");
    println!("with 2.31 / 2.21 MSHR probes per access.");
    Ok(())
}
