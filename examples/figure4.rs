//! Regenerates Figure 4: speedups of the simple 3D-stacked organizations
//! (3D, 3D-wide, 3D-fast) over off-chip 2D memory, for all twelve mixes.
//!
//! ```sh
//! cargo run --release --example figure4
//! ```

use stacksim::experiments::figure4;
use stacksim::runner::{RunConfig, Session};
use stacksim::scenario::Machines;
use stacksim_workload::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mixes: Vec<&'static Mix> = Mix::all().iter().collect();
    let result = figure4(
        &Session::new(Machines::builtin()),
        &RunConfig::default(),
        &mixes,
    )?;
    println!("{}", result.table());
    if let Some(gm) = result.gm_hvh {
        println!(
            "Paper reports GM(H,VH): 3D 1.347, +wide 1.718, +true-3D 2.168; measured {:.3} / {:.3} / {:.3}",
            gm[0], gm[1], gm[2]
        );
    }
    Ok(())
}
