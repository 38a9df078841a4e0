//! `stacksim` — a cycle-level simulator reproducing Gabriel Loh's ISCA 2008
//! paper *"3D-Stacked Memory Architectures for Multi-Core Processors"*.
//!
//! The crate assembles the workspace's substrates — trace-driven cores
//! (`stacksim-cpu`), a banked shared L2 (`stacksim-cache`), scalable L2 miss
//! handling including the Vector Bloom Filter (`stacksim-mshr`), banked
//! memory controllers (`stacksim-memctrl`) and a DRAM device model
//! (`stacksim-dram`) — into the paper's quad-core machine, and provides:
//!
//! * [`SystemConfig`], and the paper's named machines as scenario files
//!   ([`scenario::Machines`]: 2D → 3D → 3D-wide → 3D-fast → aggressive
//!   rank/MC/row-buffer organizations);
//! * [`System`], the cycle-driven machine model;
//! * [`runner`], the warmup + measure harness producing per-core IPC and
//!   HMIPC exactly as the paper's methodology prescribes (§2.4), plus the
//!   parallel experiment engine — a [`runner::Session`] fans independent
//!   simulation points across worker threads and memoizes each distinct
//!   `(config, mix, window)` triple, with output bit-identical to a
//!   sequential loop;
//! * [`experiments`], one driver per table/figure of the evaluation
//!   (Table 2, Figures 4, 6(a), 6(b), 7, 9, the §5.2 headline numbers and
//!   the §2.4 thermal check).
//!
//! # Quickstart
//!
//! ```no_run
//! use stacksim::runner::{run_mix, RunConfig};
//! use stacksim::scenario::Machines;
//! use stacksim_workload::Mix;
//!
//! let cfg = Machines::builtin().m3d_fast;
//! let mix = Mix::by_name("H1").unwrap();
//! let result = run_mix(&cfg, mix, &RunConfig::default()).unwrap();
//! println!("H1 on 3D-fast: HMIPC {:.3}", result.hmipc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod runner;
pub mod scenario;
mod system;

pub use config::{InterconnectConfig, MemorySystemConfig, MshrSystemConfig, SystemConfig};
pub use scenario::CORE_HZ;
pub use system::System;

/// Version stamp of the simulation code, mixed into every durable result
/// store key (see `docs/STORE.md`).
///
/// The stamp is the crate version plus a simulation revision counter.
/// **Bump the revision whenever a change alters any simulated number** —
/// new timing model, different statistics, a changed default — so entries
/// persisted by older builds miss instead of serving stale metrics.
/// Pure-speed changes that are gated on bit-identity (the fast-forward
/// and data-layout work) do not need a bump: their results are
/// indistinguishable by construction.
pub const CODE_VERSION: &str = concat!("stacksim/", env!("CARGO_PKG_VERSION"), "+sim1");
