//! Property-based tests: the set-associative cache against a reference
//! model, and banked-cache address routing invariants.

use proptest::prelude::*;
use std::collections::HashMap;

use stacksim_cache::{AccessOutcome, BankedCache, CacheConfig, SetAssocCache};
use stacksim_types::{InterleaveGranularity, LineAddr};

#[derive(Clone, Debug)]
enum Op {
    Access { line: u64, write: bool },
    Fill { line: u64, dirty: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let line = 0u64..96; // small universe over a tiny cache forces evictions
    prop_oneof![
        (line.clone(), any::<bool>()).prop_map(|(line, write)| Op::Access { line, write }),
        (line, any::<bool>()).prop_map(|(line, dirty)| Op::Fill { line, dirty }),
    ]
}

/// Reference model: per-line residency + dirtiness, with capacity enforced
/// only through what the real cache reports (the model follows evictions).
#[derive(Default)]
struct Model {
    resident: HashMap<u64, bool>, // line -> dirty
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_agrees_with_residency_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        // 4 sets x 2 ways = 8 lines.
        let mut cache = SetAssocCache::new(CacheConfig { size_bytes: 8 * 64, associativity: 2 });
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Access { line, write } => {
                    let outcome = cache.access(LineAddr::new(line), write);
                    let expected = model.resident.contains_key(&line);
                    prop_assert_eq!(
                        outcome == AccessOutcome::Hit,
                        expected,
                        "step {}: access {} disagreed",
                        step,
                        line
                    );
                    if write && expected {
                        model.resident.insert(line, true);
                    }
                }
                Op::Fill { line, dirty } => {
                    let victim = cache.fill(LineAddr::new(line), dirty);
                    if let Some(v) = victim {
                        let was_dirty = model
                            .resident
                            .remove(&v.line.index())
                            .expect("victim must have been resident");
                        prop_assert_eq!(v.dirty, was_dirty, "step {}: victim dirtiness", step);
                    }
                    let entry = model.resident.entry(line).or_insert(false);
                    *entry |= dirty;
                }
            }
            // Occupancy always matches, and never exceeds capacity.
            prop_assert_eq!(cache.occupancy(), model.resident.len());
            prop_assert!(cache.occupancy() <= 8);
            // Every model-resident line is cache-resident.
            for &line in model.resident.keys() {
                prop_assert!(cache.contains(LineAddr::new(line)), "step {}: lost {}", step, line);
            }
        }
    }

    #[test]
    fn banked_cache_routing_is_a_bijection(
        lines in proptest::collection::hash_set(0u64..100_000, 1..200),
        page_interleave in any::<bool>(),
    ) {
        let granularity = if page_interleave {
            InterleaveGranularity::Page
        } else {
            InterleaveGranularity::Line
        };
        let mut cache = BankedCache::new(
            CacheConfig { size_bytes: 1 << 20, associativity: 4 },
            16,
            granularity,
        );
        // Fill distinct global lines; each must be found again, and any
        // victim must be one of the lines inserted (globalization is exact).
        for &line in &lines {
            if let Some(v) = cache.fill(LineAddr::new(line), false) {
                prop_assert!(lines.contains(&v.line.index()));
            }
        }
        let mut resident = 0usize;
        for &line in &lines {
            if cache.contains(LineAddr::new(line)) {
                resident += 1;
            }
        }
        // Capacity is ample here: nothing should have been evicted.
        prop_assert_eq!(resident, lines.len());
    }

    #[test]
    fn banked_and_flat_caches_agree_on_hits(
        ops in proptest::collection::vec((0u64..4096, any::<bool>()), 1..300),
    ) {
        // A 1-bank banked cache must behave exactly like the flat cache.
        let cfg = CacheConfig { size_bytes: 64 * 64, associativity: 4 };
        let mut flat = SetAssocCache::new(cfg);
        let mut banked = BankedCache::new(cfg, 1, InterleaveGranularity::Line);
        for &(line, write) in &ops {
            let a = flat.access(LineAddr::new(line), write);
            let b = banked.access(LineAddr::new(line), write);
            prop_assert_eq!(a, b);
            if a == AccessOutcome::Miss {
                let va = flat.fill(LineAddr::new(line), write);
                let vb = banked.fill(LineAddr::new(line), write);
                prop_assert_eq!(va.map(|v| (v.line, v.dirty)), vb.map(|v| (v.line, v.dirty)));
            }
        }
        prop_assert_eq!(flat.hits(), banked.hits());
        prop_assert_eq!(flat.misses(), banked.misses());
    }
}
