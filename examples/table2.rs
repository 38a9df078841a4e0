//! Regenerates Table 2: (a) the stand-alone 6 MB-L2 MPKI characterization
//! of all 28 benchmarks, and (b) the twelve mixes with their baseline HMIPC
//! on the 2D machine.
//!
//! ```sh
//! cargo run --release --example table2
//! ```

use stacksim::experiments::{table2a, table2a_table, table2b, table2b_table};
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::{Benchmark, Mix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = RunConfig::default();
    let benchmarks: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
    let session = Session::new(Machines::builtin());
    let rows = table2a(&session, &run, &benchmarks)?;
    println!("{}", table2a_table(&rows));

    let mixes: Vec<&'static Mix> = Mix::all().iter().collect();
    let rows = table2b(&session, &run, &mixes)?;
    println!("{}", table2b_table(&rows));
    Ok(())
}
