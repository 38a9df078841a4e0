//! End-to-end fuzzer smoke: on a healthy simulator a fixed seed range
//! passes every oracle, degenerate configurations fail with typed errors
//! rather than panics, and repro artifacts replay deterministically.

use stacksim_simcheck::fuzz::{fuzz_one, generate, materialize, run_case, FuzzFailure, Repro};

#[test]
fn fixed_seed_range_passes_all_oracles() {
    for seed in 0..6u64 {
        if let Err(repro) = fuzz_one(seed) {
            panic!(
                "seed {seed} failed: {} (shrink ops: {:?})",
                repro.failure, repro.shrink_ops
            );
        }
    }
}

#[test]
fn degenerate_config_fails_typed_not_panicking() {
    let mut case = generate(0);
    case.cfg.memory.row_buffer_entries = 0;
    match run_case(&case) {
        Err(FuzzFailure::Config(msg)) => {
            assert!(msg.contains("row buffer"), "unhelpful message: {msg}");
        }
        other => panic!("expected a typed config failure, got {other:?}"),
    }
}

#[test]
fn artifacts_materialize_to_the_same_case() {
    // A repro with no shrink ops is exactly the generated case; replaying
    // it must traverse the same code path the fuzzer used.
    let repro = Repro {
        seed: 3,
        shrink_ops: vec![],
        failure: String::new(),
    };
    assert_eq!(materialize(&repro).expect("no ops"), generate(3));
}
