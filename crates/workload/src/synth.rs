//! The synthetic instruction-stream generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stacksim_types::{PhysAddr, LINE_BYTES};

use crate::block::InstrBlock;
use crate::instr::Instr;
use crate::pattern::FreshStream;
use crate::spec::Benchmark;

/// Number of hot cache lines every program cycles through for its
/// cache-hitting memory operations (16 KB — comfortably inside the 24 KB
/// DL1, so hot traffic behaves like the L1-resident working set of a real
/// program).
const HOT_LINES: u64 = 256;

/// Fraction of non-memory µops that are conditional branches (one branch
/// per ~5-6 instructions, typical of integer code).
const BRANCH_FRACTION: f64 = 0.18;

/// Fraction of branch executions steered by the hard (data-dependent,
/// near-random) branch rather than a predictable loop branch.
const HARD_BRANCH_FRACTION: f64 = 0.10;

/// Static loop branches per program.
const LOOP_BRANCHES: usize = 4;

/// A deterministic, infinite source of committed µops.
///
/// The CPU model pulls instructions one at a time; generators must be
/// infinitely repeatable (every program keeps running and competing for
/// shared resources for the whole simulated window).
pub trait TraceGenerator {
    /// Produces the next µop.
    fn next_instr(&mut self) -> Instr;

    /// The benchmark's display name.
    fn name(&self) -> &str;

    /// Refills `block` with the next `block.capacity()` µops in one call.
    ///
    /// The contract is bit-identity: a refill must produce **exactly** the
    /// sequence that the same number of [`next_instr`](Self::next_instr)
    /// calls would, consuming generator state (including any RNG draws) in
    /// the same order. The default implementation delegates to
    /// `next_instr`, so every generator is automatically correct; hot
    /// generators override it with a monomorphized loop that amortizes the
    /// per-µop call overhead away.
    fn refill(&mut self, block: &mut InstrBlock) {
        block.clear();
        for _ in 0..block.capacity() {
            block.push(self.next_instr());
        }
    }
}

/// Synthesizes the instruction stream of one Table 2(a) benchmark.
///
/// Per instruction, with probability `mpki/1000` the program touches a
/// *fresh* cache line from its pattern stream (a guaranteed L2 miss while
/// the footprint exceeds the cache); otherwise, with probability up to
/// `mem_fraction`, it touches its hot working set (cache hits); otherwise
/// it retires a compute µop. Stores occur among memory µops at
/// `write_fraction`.
///
/// All addresses fall inside `[base, base + footprint + hot set)`, so
/// multi-programmed mixes place each program at a disjoint base — the
/// paper's first-come-first-serve physical allocation.
///
/// # Examples
///
/// ```
/// use stacksim_workload::{Benchmark, SyntheticWorkload, TraceGenerator};
///
/// let spec = Benchmark::by_name("S.copy").unwrap();
/// let mut a = SyntheticWorkload::new(spec, 1, 0);
/// let mut b = SyntheticWorkload::new(spec, 1, 0);
/// // Same seed, same stream: fully deterministic.
/// for _ in 0..100 {
///     assert_eq!(a.next_instr(), b.next_instr());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    spec: &'static Benchmark,
    rng: SmallRng,
    fresh: FreshStream,
    base_line: u64,
    hot_cursor: u64,
    pc_base: u64,
    generated: u64,
    /// Per loop-branch: (trip count, iteration counter). The branch is
    /// taken except on the last iteration of each trip — the pattern a
    /// history-based predictor learns and a bimodal one misses.
    loops: [(u32, u32); LOOP_BRANCHES],
    next_loop: usize,
}

impl SyntheticWorkload {
    /// Creates a generator for `spec`, seeded deterministically, placing
    /// the program's data at byte address `base` (must be line-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 64-byte aligned.
    pub fn new(spec: &'static Benchmark, seed: u64, base: u64) -> Self {
        assert!(
            base.is_multiple_of(LINE_BYTES),
            "base address must be line-aligned"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5374_6163_6b53_696d);
        let mut fresh = FreshStream::new(spec.pattern, spec.footprint_lines);
        fresh.randomize_phase(&mut rng);
        let mut loops = [(0u32, 0u32); LOOP_BRANCHES];
        for entry in &mut loops {
            entry.0 = rng.gen_range(4..48);
        }
        SyntheticWorkload {
            spec,
            rng,
            fresh,
            base_line: base / LINE_BYTES,
            hot_cursor: 0,
            pc_base: 0x40_0000 + (seed << 8),
            generated: 0,
            loops,
            next_loop: 0,
        }
    }

    /// The benchmark spec driving this generator.
    pub const fn spec(&self) -> &'static Benchmark {
        self.spec
    }

    /// µops generated so far.
    pub const fn generated(&self) -> u64 {
        self.generated
    }

    /// Total bytes this program can touch (footprint + hot set).
    pub fn span_bytes(&self) -> u64 {
        (self.spec.footprint_lines + HOT_LINES) * LINE_BYTES
    }

    /// Produces the next conditional branch: mostly predictable loop
    /// back-edges, plus a slice of data-dependent coin flips.
    fn branch_instr(&mut self) -> Instr {
        if self.rng.gen::<f64>() < HARD_BRANCH_FRACTION {
            let pc = self.pc_base + 0x2000;
            return Instr::Branch {
                pc,
                taken: self.rng.gen::<bool>(),
            };
        }
        let slot = self.next_loop;
        self.next_loop = (self.next_loop + 1) % LOOP_BRANCHES;
        let (trip, counter) = &mut self.loops[slot];
        *counter += 1;
        let taken = if *counter >= *trip {
            *counter = 0;
            false // loop exit
        } else {
            true // back edge
        };
        Instr::Branch {
            pc: self.pc_base + 0x3000 + 16 * slot as u64,
            taken,
        }
    }

    fn mem_instr(&mut self, rel_line: u64, pc: u64) -> Instr {
        let addr = PhysAddr::new((self.base_line + rel_line) * LINE_BYTES);
        if self.rng.gen::<f64>() < self.spec.write_fraction {
            Instr::Store { pc, addr }
        } else {
            Instr::Load { pc, addr }
        }
    }

    /// The single generation step, shared verbatim by the per-instruction
    /// and block paths so the two observable sequences cannot drift apart
    /// (every RNG draw happens here, in one fixed order).
    #[inline(always)]
    fn gen_one(&mut self) -> Instr {
        self.generated += 1;
        let r = self.rng.gen::<f64>();
        if r < self.spec.fresh_probability() {
            let line = self.fresh.next_line(&mut self.rng);
            let pc = self.pc_base + 16 * self.fresh.last_slot() as u64;
            self.mem_instr(line.index(), pc)
        } else if r < self.spec.mem_fraction {
            // Hot-set access: cycles through a small L1-resident region
            // placed just past the footprint.
            let line = self.spec.footprint_lines + (self.hot_cursor % HOT_LINES);
            self.hot_cursor += 1;
            let pc = self.pc_base + 0x1000 + 16 * (self.hot_cursor % 4);
            self.mem_instr(line, pc)
        } else if self.rng.gen::<f64>() < BRANCH_FRACTION {
            self.branch_instr()
        } else {
            Instr::Compute
        }
    }
}

impl TraceGenerator for SyntheticWorkload {
    fn next_instr(&mut self) -> Instr {
        self.gen_one()
    }

    fn name(&self) -> &str {
        self.spec.name
    }

    /// Monomorphized batch loop: one virtual call per block instead of one
    /// per µop, with the generation step inlined into a tight loop.
    fn refill(&mut self, block: &mut InstrBlock) {
        block.clear();
        for _ in 0..block.capacity() {
            block.push(self.gen_one());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(name: &str) -> SyntheticWorkload {
        SyntheticWorkload::new(Benchmark::by_name(name).unwrap(), 7, 0)
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = gen("mcf");
        let mut b = gen("mcf");
        for _ in 0..1000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let spec = Benchmark::by_name("soplex").unwrap();
        let mut a = SyntheticWorkload::new(spec, 1, 0);
        let mut b = SyntheticWorkload::new(spec, 2, 0);
        let same = (0..1000)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 1000);
    }

    #[test]
    fn mem_fraction_is_respected() {
        let mut g = gen("S.copy");
        let n = 100_000;
        let mem = (0..n).filter(|_| g.next_instr().is_mem()).count();
        let frac = mem as f64 / n as f64;
        assert!((frac - 0.60).abs() < 0.02, "mem fraction {frac}");
    }

    #[test]
    fn fresh_line_rate_tracks_published_mpki() {
        use std::collections::HashSet;
        // Count distinct new lines touched per kilo-instruction; for a
        // footprint >> any cache this is the program's intrinsic MPKI.
        for name in ["S.copy", "libquantum", "mcf", "namd"] {
            let mut g = gen(name);
            let mut seen: HashSet<u64> = HashSet::new();
            let n = 200_000u64;
            let mut fresh = 0u64;
            for _ in 0..n {
                if let Some(addr) = g.next_instr().addr() {
                    if seen.insert(addr.line().index()) {
                        fresh += 1;
                    }
                }
            }
            let mpki = fresh as f64 / n as f64 * 1000.0;
            let expect = Benchmark::by_name(name).unwrap().mpki_6mb;
            // Hot-set lines inflate the count by at most HOT_LINES overall.
            let tolerance = expect * 0.1 + 2.0;
            assert!(
                (mpki - expect).abs() < tolerance,
                "{name}: intrinsic MPKI {mpki:.1} vs published {expect}"
            );
        }
    }

    #[test]
    fn addresses_stay_within_program_span() {
        let mut g = SyntheticWorkload::new(Benchmark::by_name("qsort").unwrap(), 3, 1 << 31);
        let base = 1u64 << 31;
        let span = g.span_bytes();
        for _ in 0..50_000 {
            if let Some(addr) = g.next_instr().addr() {
                assert!(addr.raw() >= base && addr.raw() < base + span);
            }
        }
    }

    #[test]
    fn store_fraction_roughly_matches() {
        let mut g = gen("S.copy"); // write_fraction 0.5
        let mut mem = 0u64;
        let mut stores = 0u64;
        for _ in 0..100_000 {
            let i = g.next_instr();
            if i.is_mem() {
                mem += 1;
                if i.is_store() {
                    stores += 1;
                }
            }
        }
        let frac = stores as f64 / mem as f64;
        assert!((frac - 0.5).abs() < 0.03, "store fraction {frac}");
    }

    #[test]
    fn branches_are_emitted_with_loop_structure() {
        let mut g = gen("gzip");
        let mut branches = 0u64;
        let mut taken = 0u64;
        let n = 100_000;
        for _ in 0..n {
            if let Instr::Branch { taken: t, .. } = g.next_instr() {
                branches += 1;
                taken += u64::from(t);
            }
        }
        assert!(branches > 0, "programs must contain branches");
        let taken_rate = taken as f64 / branches as f64;
        // Loop back-edges dominate: branches are mostly taken.
        assert!(
            taken_rate > 0.75 && taken_rate < 0.99,
            "taken rate {taken_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn unaligned_base_panics() {
        let _ = SyntheticWorkload::new(Benchmark::by_name("mcf").unwrap(), 0, 13);
    }

    #[test]
    fn trait_object_usable() {
        let mut boxed: Box<dyn TraceGenerator> = Box::new(gen("tigr"));
        assert_eq!(boxed.name(), "tigr");
        let _ = boxed.next_instr();
    }
}
