//! Shared plumbing for the `stacksim` benchmark harness.
//!
//! The harness has two faces:
//!
//! * `cargo bench -p stacksim-bench` — Criterion microbenches of the hot
//!   substrates plus the tracing-overhead bench, at bench-friendly windows;
//! * `cargo run -p stacksim-bench --release --bin reproduce` — the full
//!   reproduction pass over all twelve mixes at publication windows,
//!   printing every table the paper reports (the source of
//!   `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;

use stacksim::runner::RunConfig;

/// The window used by Criterion benches: long enough to be past warmup
/// transients, short enough for iterated measurement.
pub fn bench_run() -> RunConfig {
    RunConfig {
        warmup_cycles: 5_000,
        measure_cycles: 25_000,
        seed: 0xBE7C,
        ..RunConfig::default()
    }
}

/// The window used by the full reproduction binary.
pub fn full_run() -> RunConfig {
    RunConfig {
        warmup_cycles: 30_000,
        measure_cycles: 250_000,
        seed: 0xC0FFEE,
        ..RunConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_ordered() {
        assert!(bench_run().measure_cycles < full_run().measure_cycles);
    }
}
