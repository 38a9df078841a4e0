//! Correctness harness for the `stacksim` workspace.
//!
//! The simulator's experiment code answers "how fast is this machine?";
//! this crate answers "is the machine model telling the truth?". It layers
//! three independent checks on top of the existing crates:
//!
//! * [`oracle`] — a **differential MSHR oracle**: a fully-associative
//!   reference model of *what entries exist* combined with each
//!   organization's admission rule, driven through seeded
//!   allocate/probe/release streams in lockstep with the real
//!   direct-mapped, VBF, hierarchical and dynamically-limited structures.
//!   Outcomes (hit/miss/merge/full) and occupancy must agree at every step;
//!   probe counts are organization-specific by design and are not compared.
//! * [`protocol`] — a **DRAM protocol checker** that consumes the per-MC
//!   command streams a traced run records
//!   ([`RunConfig::dram_trace`](stacksim::runner::RunConfig::dram_trace))
//!   and validates JEDEC-style ordering and spacing invariants (tRP,
//!   tRCD, tRAS, tCCD, write recovery, refresh cadence, row-open
//!   discipline) against the configuration's timing parameters.
//! * [`fuzz`] — a **seeded config-space fuzzer** that samples
//!   configuration × mix × window points, runs short simulations under
//!   both oracles plus a fast-forward-versus-tick-by-tick bit-identity
//!   check, shrinks any failure to a minimal configuration, and emits a
//!   replayable JSON repro artifact (see the `simfuzz` binary).
//!
//! # Examples
//!
//! ```
//! use stacksim_mshr::MshrKind;
//! use stacksim_simcheck::oracle::{drive_stream, StreamParams};
//!
//! let report = drive_stream(MshrKind::Vbf, 42, &StreamParams::default())
//!     .expect("vbf agrees with the reference model");
//! assert!(report.primaries > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod oracle;
pub mod protocol;
