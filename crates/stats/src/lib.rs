//! Statistics collection and reporting for the `stacksim` simulator.
//!
//! The experiment drivers in the `stacksim` core crate reproduce the paper's
//! tables and figures as plain-text tables; this crate supplies the shared
//! machinery:
//!
//! * [`Histogram`] — integer-valued histograms (e.g. MSHR probes/access);
//! * [`RunningStats`] — a streaming mean (e.g. memory-controller queue wait);
//! * [`geometric_mean`] / [`harmonic_mean`] — the paper's two summary means
//!   (GM for speedups, HMIPC for multi-programmed throughput);
//! * [`Table`] — fixed-width text table rendering for experiment output;
//! * [`MetricsSink`] — a hierarchical, typed metrics tree (component →
//!   counters/gauges/histograms) with JSON export and baseline diffing;
//! * [`Json`] — a minimal dependency-free JSON value, writer, and parser.
//!
//! # Examples
//!
//! ```
//! use stacksim_stats::{geometric_mean, harmonic_mean};
//!
//! let speedups = [1.2, 1.5, 2.0];
//! assert!((geometric_mean(&speedups).unwrap() - 1.5326).abs() < 1e-3);
//! let ipcs = [0.5, 1.0];
//! assert!((harmonic_mean(&ipcs).unwrap() - 0.6667).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod json;
mod means;
mod metrics;
mod running;
mod table;

pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use means::{geometric_mean, harmonic_mean, MeanError};
pub use metrics::{HistSummary, MetricDiff, MetricValue, MetricsSink};
pub use running::RunningStats;
pub use table::{Align, Table};
