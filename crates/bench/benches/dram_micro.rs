//! Microbench: DRAM bank access throughput for row-hit streams versus
//! row-conflict thrash, under both Table 1 timing sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use stacksim_dram::{BankConfig, Banks};
use stacksim_types::{BankId, Cycle, DramTiming};

/// Streams `rows` through one bank of a one-bank store, each read issued
/// when the bank frees.
fn stream(banks: &mut Banks, rows: &[u64]) -> Cycle {
    let mut now = Cycle::ZERO;
    for &row in rows {
        let r = banks.read(0, BankId::new(0), row, now);
        now = r.bank_free;
    }
    now
}

fn bench_dram_micro(c: &mut Criterion) {
    let hit_rows: Vec<u64> = vec![7; 4096];
    let thrash_rows: Vec<u64> = (0..4096u64).map(|i| i % 2).collect();
    let mut group = c.benchmark_group("dram_micro");
    for (label, timing) in [
        ("commodity_2d", DramTiming::COMMODITY_2D),
        ("true_3d", DramTiming::TRUE_3D),
    ] {
        let cfg = BankConfig::new(timing.to_cycles(3.333e9), 1, None);
        group.bench_with_input(BenchmarkId::new("row_hits", label), &cfg, |b, &cfg| {
            b.iter(|| stream(&mut Banks::new(cfg, 1, 1, 1 << 15), &hit_rows))
        });
        group.bench_with_input(BenchmarkId::new("row_thrash", label), &cfg, |b, &cfg| {
            b.iter(|| stream(&mut Banks::new(cfg, 1, 1, 1 << 15), &thrash_rows))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dram_micro);
criterion_main!(benches);
