//! Property-based tests: every MSHR organization must agree with a simple
//! reference model (a map from line to its targets in merge order) on
//! *semantics*, while differing only in probe counts.

use proptest::prelude::*;
use std::collections::HashMap;

use stacksim_mshr::{
    CamMshr, DirectMappedMshr, HierarchicalMshr, MissHandler, MissKind, MissTarget, ProbeScheme,
    VbfMshr, INLINE_TARGETS,
};
use stacksim_types::{CoreId, Cycle, LineAddr};

/// Operations applied to both the model and the implementation.
#[derive(Clone, Debug)]
enum Op {
    Allocate(u64),
    Deallocate(u64),
    Lookup(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small line-address universe forces collisions and full structures.
    let line = 0u64..48;
    prop_oneof![
        line.clone().prop_map(Op::Allocate),
        line.clone().prop_map(Op::Deallocate),
        line.prop_map(Op::Lookup),
    ]
}

fn run_against_model<M: MissHandler>(mut mshr: M, ops: &[Op]) {
    let mut model: HashMap<u64, Vec<MissTarget>> = HashMap::new();
    let capacity = mshr.capacity();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Allocate(line) => {
                let target = MissTarget::demand(CoreId::new(0), step as u64);
                let existed = model.contains_key(&line);
                let result =
                    mshr.allocate(LineAddr::new(line), target, MissKind::Read, Cycle::ZERO);
                if existed {
                    // Secondary misses always merge, even when full.
                    let out = result.expect("merge must succeed");
                    assert!(!out.is_primary(), "step {step}: expected merge");
                    model.get_mut(&line).unwrap().push(target);
                } else if model.len() < mshr.capacity_limit() {
                    let out = result.expect("allocation with free space must succeed");
                    assert!(out.is_primary(), "step {step}: expected primary");
                    model.insert(line, vec![target]);
                } else {
                    result.expect_err("allocation without free space must fail");
                }
            }
            Op::Deallocate(line) => {
                let removed = mshr.deallocate(LineAddr::new(line));
                match model.remove(&line) {
                    Some(targets) => {
                        let (entry, _) = removed.expect("model says entry exists");
                        assert_eq!(entry.line(), LineAddr::new(line));
                        assert_eq!(entry.target_count(), targets.len(), "step {step}: count");
                        assert_eq!(entry.targets(), targets, "step {step}: merge order");
                    }
                    None => assert!(removed.is_none(), "step {step}: spurious entry"),
                }
            }
            Op::Lookup(line) => {
                let r = mshr.lookup(LineAddr::new(line));
                assert_eq!(
                    r.found,
                    model.contains_key(&line),
                    "step {step}: lookup {line}"
                );
                assert!(r.probes >= 1, "first probe is mandatory");
                assert!(
                    r.probes as usize <= capacity.max(2),
                    "probes bounded by capacity"
                );
            }
        }
        assert_eq!(mshr.occupancy(), model.len(), "step {step}: occupancy");
        assert!(mshr.occupancy() <= mshr.capacity());
    }
}

/// One of each organization, all with room for a few lines.
fn every_organization() -> Vec<Box<dyn MissHandler>> {
    vec![
        Box::new(CamMshr::new(8)),
        Box::new(DirectMappedMshr::new(8, ProbeScheme::Linear)),
        Box::new(DirectMappedMshr::new(8, ProbeScheme::Quadratic)),
        Box::new(VbfMshr::new(8)),
        Box::new(HierarchicalMshr::new(4, 2, 4)),
    ]
}

#[test]
fn merging_past_the_inline_capacity_keeps_every_target_in_order() {
    let line = LineAddr::new(12);
    let other = LineAddr::new(13);
    let targets: Vec<MissTarget> = (0..3 * INLINE_TARGETS as u64)
        .map(|n| {
            let core = CoreId::new((n % 3) as u16);
            if n % 4 == 0 {
                MissTarget::prefetch(core, n)
            } else {
                MissTarget::demand(core, n)
            }
        })
        .collect();
    for mut mshr in every_organization() {
        let kind = mshr.kind();
        for (n, &t) in targets.iter().enumerate() {
            // Interleave a second line so both entries grow side by side.
            for (l, target) in [
                (line, t),
                (other, MissTarget::demand(CoreId::new(3), 100 + n as u64)),
            ] {
                let out = mshr
                    .allocate(l, target, MissKind::Read, Cycle::ZERO)
                    .unwrap();
                assert_eq!(out.is_primary(), n == 0, "{kind}: target {n}");
            }
            let entry = mshr.entry(line).unwrap();
            assert_eq!(entry.targets(), &targets[..=n], "{kind}: after {n} merges");
        }
        let (entry, _) = mshr.deallocate(line).unwrap();
        assert_eq!(entry.targets(), &targets[..], "{kind}: released entry");
        assert_eq!(entry.target_count(), targets.len());
        let (rest, _) = mshr.deallocate(other).unwrap();
        let tokens: Vec<u64> = rest.targets().iter().map(|t| t.token).collect();
        assert_eq!(
            tokens,
            (100..100 + targets.len() as u64).collect::<Vec<_>>(),
            "{kind}"
        );
        assert_eq!(mshr.occupancy(), 0, "{kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cam_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_against_model(CamMshr::new(16), &ops);
    }

    #[test]
    fn direct_linear_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_against_model(DirectMappedMshr::new(16, ProbeScheme::Linear), &ops);
    }

    #[test]
    fn direct_quadratic_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_against_model(DirectMappedMshr::new(16, ProbeScheme::Quadratic), &ops);
    }

    #[test]
    fn vbf_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        run_against_model(VbfMshr::new(16), &ops);
    }

    #[test]
    fn vbf_probes_never_exceed_linear(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        // Run identical op streams through both organizations; the VBF's
        // entire point is that it only removes probes, never adds them.
        let mut vbf = VbfMshr::new(16);
        let mut lin = DirectMappedMshr::new(16, ProbeScheme::Linear);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Allocate(line) => {
                    let t = MissTarget::demand(CoreId::new(0), step as u64);
                    let a = vbf.allocate(LineAddr::new(line), t, MissKind::Read, Cycle::ZERO);
                    let b = lin.allocate(LineAddr::new(line), t, MissKind::Read, Cycle::ZERO);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Deallocate(line) => {
                    let a = vbf.deallocate(LineAddr::new(line));
                    let b = lin.deallocate(LineAddr::new(line));
                    prop_assert_eq!(a.is_some(), b.is_some());
                    if let (Some((_, pa)), Some((_, pb))) = (a, b) {
                        prop_assert!(pa <= pb, "dealloc probes {} > {}", pa, pb);
                    }
                }
                Op::Lookup(line) => {
                    let a = vbf.lookup(LineAddr::new(line));
                    let b = lin.lookup(LineAddr::new(line));
                    prop_assert_eq!(a.found, b.found);
                    prop_assert!(a.probes <= b.probes, "lookup probes {} > {}", a.probes, b.probes);
                }
            }
        }
    }

    #[test]
    fn hierarchical_never_loses_entries(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        // The hierarchical MSHR can reject a new line while space remains in
        // other banks, so it does not match the flat model exactly; instead
        // check it never loses or duplicates entries.
        let mut mshr = HierarchicalMshr::new(4, 2, 4);
        let mut present: HashMap<u64, usize> = HashMap::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Allocate(line) => {
                    let t = MissTarget::demand(CoreId::new(0), step as u64);
                    match mshr.allocate(LineAddr::new(line), t, MissKind::Read, Cycle::ZERO) {
                        Ok(out) if out.is_primary() => {
                            prop_assert!(!present.contains_key(&line));
                            present.insert(line, 1);
                        }
                        Ok(_) => {
                            *present.get_mut(&line).expect("merge implies present") += 1;
                        }
                        Err(_) => prop_assert!(!present.contains_key(&line)),
                    }
                }
                Op::Deallocate(line) => {
                    let removed = mshr.deallocate(LineAddr::new(line));
                    match present.remove(&line) {
                        Some(n) => {
                            let (e, _) = removed.expect("present entry must deallocate");
                            prop_assert_eq!(e.target_count(), n);
                        }
                        None => prop_assert!(removed.is_none()),
                    }
                }
                Op::Lookup(line) => {
                    prop_assert_eq!(
                        mshr.lookup(LineAddr::new(line)).found,
                        present.contains_key(&line)
                    );
                }
            }
            prop_assert_eq!(mshr.occupancy(), present.len());
        }
    }
}
