//! Batched instruction generation must be invisible: for every generator,
//! draining blocks filled by [`TraceGenerator::refill`] has to yield exactly
//! the instruction sequence that per-instruction
//! [`TraceGenerator::next_instr`] calls would, instruction for instruction.
//!
//! The batched path shares the single-instruction generation body (one
//! `gen_one` for `SyntheticWorkload`), so divergence here means the refill override drifted
//! from the per-instruction path — precisely the bug class this suite
//! pins down across every benchmark spec, seed and block size.

use stacksim_workload::{
    Benchmark, IdleProgram, Instr, InstrBlock, SyntheticWorkload, TraceGenerator, BLOCK_LEN,
};

/// Drains `n` instructions through the block path.
fn take_batched<G: TraceGenerator>(gen: &mut G, block: &mut InstrBlock, n: usize) -> Vec<Instr> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match block.take() {
            Some(i) => out.push(i),
            None => gen.refill(block),
        }
    }
    out
}

/// Drains `n` instructions through the per-instruction path.
fn take_serial<G: TraceGenerator>(gen: &mut G, n: usize) -> Vec<Instr> {
    (0..n).map(|_| gen.next_instr()).collect()
}

/// Every benchmark spec (covering every access pattern in the registry),
/// 64 seeds each: the block path must replay the per-instruction stream
/// exactly. The length is deliberately not a multiple of the block size so
/// the final partial block is exercised too.
#[test]
fn synthetic_block_path_matches_serial_path_for_all_benchmarks() {
    const LEN: usize = 3 * BLOCK_LEN + 57;
    for spec in Benchmark::all() {
        for seed in 0..64u64 {
            let base = seed.wrapping_mul(0x1000_0000);
            let mut serial = SyntheticWorkload::new(spec, seed, base);
            let mut batched = SyntheticWorkload::new(spec, seed, base);
            let mut block = InstrBlock::default();
            let want = take_serial(&mut serial, LEN);
            let got = take_batched(&mut batched, &mut block, LEN);
            assert_eq!(
                want, got,
                "batched stream diverged for {} seed {seed}",
                spec.name
            );
        }
    }
}

/// Switching between the two consumption styles mid-stream must also be
/// seamless: a refill simply runs the generator ahead, so serial draws
/// after a partially-drained block continue from where the block ends.
#[test]
fn interleaved_serial_and_block_consumption_stays_in_order() {
    let spec = Benchmark::by_name("mcf").unwrap();
    for seed in 0..8u64 {
        let mut reference = SyntheticWorkload::new(spec, seed, 0);
        let want = take_serial(&mut reference, 2 * BLOCK_LEN + 40);

        let mut gen = SyntheticWorkload::new(spec, seed, 0);
        let mut block = InstrBlock::default();
        let mut got = take_serial(&mut gen, 17);
        got.extend(take_batched(&mut gen, &mut block, BLOCK_LEN + 5));
        // The block still holds run-ahead instructions; keep draining it.
        got.extend(take_batched(&mut gen, &mut block, want.len() - got.len()));
        assert_eq!(want, got, "interleaved consumption diverged at seed {seed}");
    }
}

/// Block sizes other than the default must work too, including a
/// pathological 1-entry block (degenerates to the serial path).
#[test]
fn non_default_block_sizes_match() {
    let spec = Benchmark::by_name("S.triad").unwrap();
    for capacity in [1usize, 7, 255, 1024] {
        let mut serial = SyntheticWorkload::new(spec, 11, 0);
        let mut batched = SyntheticWorkload::new(spec, 11, 0);
        let mut block = InstrBlock::new(capacity);
        let want = take_serial(&mut serial, 2000);
        let got = take_batched(&mut batched, &mut block, 2000);
        assert_eq!(want, got, "diverged at block capacity {capacity}");
    }
}

/// The idle program's refill is a trivial fill of `Compute`; check it
/// against the serial contract anyway so the override can't rot.
#[test]
fn idle_program_block_path_matches_serial_path() {
    let mut serial = IdleProgram::new();
    let mut batched = IdleProgram::new();
    let mut block = InstrBlock::default();
    let n = BLOCK_LEN + 9;
    assert_eq!(
        take_serial(&mut serial, n),
        take_batched(&mut batched, &mut block, n)
    );
}
