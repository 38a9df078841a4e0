//! Synthetic workload models for the `stacksim` simulator.
//!
//! The paper drives its machine with multi-programmed mixes of SPECcpu
//! 2000/2006, BioBench, MediaBench, MiBench and STREAM (Table 2). Those
//! binaries cannot be shipped; what the memory system actually *sees* from
//! each of them is an address stream with a characteristic intensity,
//! footprint, spatial pattern and write ratio. This crate models each
//! benchmark as a deterministic synthetic generator over exactly those axes,
//! calibrated so that its stand-alone L2 miss rate at 6 MB reproduces the
//! MPKI column of Table 2(a):
//!
//! * STREAM kernels → multi-stream sequential sweeps (row-buffer friendly,
//!   prefetchable, enormous intensity);
//! * `libquantum`/`milc`-style FP codes → long strided sweeps;
//! * `mcf`/`omnetpp`-style codes → pointer-chase walks (unprefetchable);
//! * low-MPKI integer codes → small-footprint compute loops.
//!
//! [`Benchmark`] is the per-program spec + registry (Table 2(a)),
//! [`SyntheticWorkload`] turns a spec into an instruction stream, and
//! [`Mix`] names the twelve four-program workloads of Table 2(b).
//!
//! # Examples
//!
//! ```
//! use stacksim_workload::{Benchmark, SyntheticWorkload, TraceGenerator};
//!
//! let spec = Benchmark::by_name("mcf").unwrap();
//! let mut gen = SyntheticWorkload::new(spec, 42, 0);
//! let instr = gen.next_instr();
//! let _ = instr; // Compute, Load or Store
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod idle;
mod instr;
mod mix;
mod pattern;
mod spec;
mod synth;

pub use block::{InstrBlock, BLOCK_LEN};
pub use idle::IdleProgram;
pub use instr::Instr;
pub use mix::{Mix, MixClass};
pub use pattern::{AccessPattern, FreshStream};
pub use spec::{Benchmark, Suite};
pub use synth::{SyntheticWorkload, TraceGenerator};
