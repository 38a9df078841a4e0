//! Computes the paper's headline cumulative speedups (abstract, §4.2, §5.2)
//! over the memory-intensive mixes.
//!
//! ```sh
//! cargo run --release --example headline
//! ```

use stacksim::experiments::headline;
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mixes: Vec<&'static Mix> = Mix::all().iter().collect();
    let result = headline(
        &Session::new(Machines::builtin()),
        &RunConfig::default(),
        &mixes,
    )?;
    println!("{}", result.table());
    Ok(())
}
