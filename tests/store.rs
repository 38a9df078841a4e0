//! Durable result store: round-trip bit-identity, key sensitivity and the
//! runner's two-tier lookup (`docs/STORE.md` states the contracts;
//! `store_fault.rs` covers the corruption paths).

use std::path::PathBuf;
use std::sync::Arc;

use stacksim::configs::{cfg_2d, cfg_3d};
use stacksim::runner::{self, RunConfig, RunResult, RunSource, Session};
use stacksim::scenario::Machines;
use stacksim_store::{Store, StoreKey};
use stacksim_workload::Mix;

/// A fresh scratch directory for one test, cleaned of any previous run's
/// leftovers. Unique per (process, test) so the suite can run in parallel.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn mix(name: &str) -> &'static Mix {
    Mix::by_name(name).expect("registry mix")
}

/// Every persisted field must survive the JSON round trip bit-for-bit —
/// the store serves *the* result, not an approximation of it.
fn assert_bit_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.mix, b.mix);
    assert_eq!(a.hmipc.to_bits(), b.hmipc.to_bits(), "hmipc drifted");
    assert_eq!(a.per_core_ipc.len(), b.per_core_ipc.len());
    for (i, (x, y)) in a.per_core_ipc.iter().zip(&b.per_core_ipc).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "per_core_ipc[{i}] drifted");
    }
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.zero_commit_cores, b.zero_commit_cores);
    let (fa, fb) = (a.stats.flatten(), b.stats.flatten());
    assert_eq!(fa.len(), fb.len(), "metric tree shape drifted");
    for ((na, va), (nb, vb)) in fa.iter().zip(&fb) {
        assert_eq!(na, nb, "metric name order drifted");
        assert_eq!(va.to_bits(), vb.to_bits(), "metric '{na}' drifted");
    }
}

#[test]
fn miss_run_persist_then_cold_process_hit_is_bit_identical() {
    let dir = scratch("roundtrip");
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let m = mix("VH1");

    let store = Store::open(&dir).unwrap();
    assert!(
        store.load_result(&cfg, m.name, &run).is_none(),
        "cold store must miss"
    );
    let simulated = runner::run_mix(&cfg, m, &run).unwrap();
    store.save_result(&cfg, m.name, &run, &simulated).unwrap();
    assert_eq!(store.len().unwrap(), 1);
    let stats = store.stats();
    assert_eq!((stats.load_misses, stats.writes), (1, 1));

    // A second handle on the same directory stands in for a cold process:
    // no shared state beyond the files.
    let cold = Store::open(&dir).unwrap();
    let loaded = cold
        .load_result(&cfg, m.name, &run)
        .expect("persisted entry must hit");
    assert_bit_identical(&simulated, &loaded);
    assert!(loaded.trace.is_none(), "the store never holds traces");
    assert_eq!(cold.stats().load_hits, 1);
}

#[test]
fn key_is_sensitive_to_every_identity_field() {
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let base = StoreKey::derive(&cfg, "VH1", &run, "v1");

    // Scenario change.
    assert_ne!(base, StoreKey::derive(&cfg_3d(), "VH1", &run, "v1"));
    // Mix change.
    assert_ne!(base, StoreKey::derive(&cfg, "H1", &run, "v1"));
    // Window changes: warmup, measure, seed, fast-forward.
    let mut r = run;
    r.warmup_cycles += 1;
    assert_ne!(base, StoreKey::derive(&cfg, "VH1", &r, "v1"));
    let mut r = run;
    r.measure_cycles += 1;
    assert_ne!(base, StoreKey::derive(&cfg, "VH1", &r, "v1"));
    let mut r = run;
    r.seed ^= 1;
    assert_ne!(base, StoreKey::derive(&cfg, "VH1", &r, "v1"));
    let r = run.tick_by_tick();
    assert_ne!(base, StoreKey::derive(&cfg, "VH1", &r, "v1"));
    // Code-version change.
    assert_ne!(base, StoreKey::derive(&cfg, "VH1", &run, "v2"));
    // And the reference point is reproducible.
    assert_eq!(base, StoreKey::derive(&cfg, "VH1", &run, "v1"));
}

#[test]
fn code_version_change_forces_a_miss_on_the_same_files() {
    let dir = scratch("code-version");
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let m = mix("H1");

    let store = Store::open(&dir).unwrap().with_code_version("build-a");
    let result = runner::run_mix(&cfg, m, &run).unwrap();
    store.save_result(&cfg, m.name, &run, &result).unwrap();
    assert!(store.load_result(&cfg, m.name, &run).is_some());

    // Same directory, different code stamp: the entry is still on disk
    // but unreachable — stale-build numbers are never served.
    let newer = Store::open(&dir).unwrap().with_code_version("build-b");
    assert!(newer.load_result(&cfg, m.name, &run).is_none());
    assert_eq!(newer.len().unwrap(), 1, "miss must not destroy the entry");
    assert_eq!(
        newer.quarantined_len().unwrap(),
        0,
        "a version miss is not corruption"
    );
}

/// The two-tier lookup seen from a session: memo miss + store hit serves
/// the persisted result without simulating, a second call is a memo hit,
/// and a point the store lacks simulates once and is written through.
#[test]
fn runner_serves_store_hits_without_simulating() {
    let dir = scratch("runner-tiers");
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let m = mix("VH2");

    // Populate the store out-of-band, as an earlier process would have.
    let seed_store = Store::open(&dir).unwrap();
    let simulated = runner::run_mix(&cfg, m, &run).unwrap();
    seed_store
        .save_result(&cfg, m.name, &run, &simulated)
        .unwrap();

    let store = Arc::new(Store::open(&dir).unwrap());
    let session = Session::new(Machines::builtin()).with_store(store.clone());
    assert_eq!(session.tier_stats(), (0, 0, 0));

    let (first, source) = session.run_mix_cached(&cfg, m, &run).unwrap();
    assert_eq!(
        source,
        RunSource::Store,
        "memo miss + store hit must serve from the store"
    );
    assert_bit_identical(&simulated, &first);

    let (second, source) = session.run_mix_cached(&cfg, m, &run).unwrap();
    assert_eq!(source, RunSource::Memo, "second lookup is a memo hit");
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(
        session.tier_stats(),
        (1, 0, 0),
        "a store hit must not simulate"
    );
    assert_eq!(session.memo_len(), 1);

    // A point the store lacks: one miss, one simulation, one write.
    let (_, source) = session.run_mix_cached(&cfg, mix("M1"), &run).unwrap();
    assert_eq!(source, RunSource::Simulated);
    assert_eq!(session.tier_stats(), (1, 1, 1));
    assert_eq!(session.memo_len(), 2);
    assert_eq!(
        store.len().unwrap(),
        2,
        "a fresh simulation is written through"
    );
}
