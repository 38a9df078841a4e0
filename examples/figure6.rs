//! Regenerates Figure 6: (a) the memory-controller × rank grid plus the
//! extra-L2 alternatives, and (b) the row-buffer-cache sweep, over the
//! memory-intensive mixes.
//!
//! ```sh
//! cargo run --release --example figure6
//! ```

use stacksim::experiments::{figure6a, figure6b};
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = RunConfig::default();
    let mixes: Vec<&'static Mix> = Mix::all().iter().collect();

    let session = Session::new(Machines::builtin());
    let a = figure6a(&session, &run, &mixes)?;
    println!("{}", a.table());
    println!("Paper: 4 MC + 16 ranks = 1.338 GM(H,VH); extra L2 is worth ~0.1-0.2%.");
    println!();

    let b = figure6b(&session, &run, &mixes)?;
    println!("{}", b.table());
    println!("Paper: (2 MC, 8 ranks) 1.324 -> 1.547; (4 MC, 16 ranks) 1.338 -> 1.747,");
    println!("with most of the benefit from the second row-buffer entry.");
    Ok(())
}
