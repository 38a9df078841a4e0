//! Bench: the cost of the observability layer on the simulator hot loop.
//!
//! `tracing_off` must match the pre-observability baseline — with
//! `TraceConfig::off()` the per-tick cost is a single `Option`
//! discriminant check, so the two bars should be indistinguishable.
//! `tracing_all` shows the (opt-in) price of recording every DRAM
//! command plus MSHR/queue occupancy samples.

use criterion::{criterion_group, criterion_main, Criterion};

use stacksim::runner::{run_mix, RunConfig};
use stacksim::scenario::Machines;
use stacksim::trace::TraceConfig;
use stacksim_bench::bench_run;
use stacksim_workload::Mix;

fn bench_trace_overhead(c: &mut Criterion) {
    let cfg = Machines::builtin().quad_mc;
    let mix = Mix::by_name("VH1").expect("known mix");
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    for (label, run) in [
        ("tracing_off", bench_run()),
        ("tracing_all", bench_run().with_trace(TraceConfig::all())),
    ] {
        // Fresh seeds per iteration would defeat the point; the memo is
        // keyed on (cfg, mix, run), so vary the seed to force real runs.
        let mut seed = run.seed;
        group.bench_function(label, |b| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let run = RunConfig { seed, ..run };
                let r = run_mix(&cfg, mix, &run).expect("valid configuration");
                assert!(r.committed.iter().sum::<u64>() > 0);
                r
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
