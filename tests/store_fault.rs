//! Fault injection against the durable result store: torn writes, bit
//! rot, garbage and stale schemas must each be quarantined and reported
//! as a miss — never served, never a panic — and recomputation must
//! still work against the damaged directory.

use std::fs;
use std::path::PathBuf;

use stacksim::configs::cfg_2d;
use stacksim::runner::{self, RunConfig, RunResult};
use stacksim_store::{Store, StoreKey, ENVELOPE_SCHEMA};
use stacksim_workload::Mix;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stacksim-storefault-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One simulated point, shared by every corruption case in this file
/// (the payload bytes don't matter to the fault paths, only the result's
/// existence does).
fn seed_entry(store: &Store) -> (RunResult, StoreKey) {
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let m = Mix::by_name("VH1").expect("registry mix");
    let result = runner::run_mix(&cfg, m, &run).expect("simulation succeeds");
    let key = store
        .save_result(&cfg, m.name, &run, &result)
        .expect("save succeeds");
    (result, key)
}

fn load(store: &Store) -> Option<RunResult> {
    store.load_result(&cfg_2d(), "VH1", &RunConfig::quick())
}

/// Applies `corrupt` to the one live envelope, then checks the full
/// quarantine contract: the load misses instead of panicking, the entry
/// leaves `entries/` for `quarantine/<key>.<reason>.json`, and a
/// recomputed + re-saved result hits again.
fn assert_quarantines(name: &str, reason_slug: &str, corrupt: impl Fn(&str) -> String) {
    let dir = scratch(name);
    let store = Store::open(&dir).unwrap();
    let (original, key) = seed_entry(&store);

    let path = store.entry_path(key);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, corrupt(&text)).unwrap();

    assert!(
        load(&store).is_none(),
        "{name}: corrupt entry must miss, not serve"
    );
    assert!(!path.exists(), "{name}: corrupt entry must leave entries/");
    let quarantined = store
        .quarantine_dir()
        .join(format!("{key}.{reason_slug}.json"));
    assert!(
        quarantined.exists(),
        "{name}: expected quarantine file {}",
        quarantined.display()
    );
    assert_eq!(store.quarantined_len().unwrap(), 1);
    assert_eq!(store.stats().quarantined, 1);

    // The point is recomputable and the store heals on the next save.
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let m = Mix::by_name("VH1").unwrap();
    let recomputed = runner::run_mix(&cfg, m, &run).unwrap();
    assert_eq!(recomputed.hmipc.to_bits(), original.hmipc.to_bits());
    store.save_result(&cfg, m.name, &run, &recomputed).unwrap();
    let healed = load(&store).expect("re-saved entry must hit");
    assert_eq!(healed.hmipc.to_bits(), original.hmipc.to_bits());
}

#[test]
fn truncated_envelope_is_quarantined() {
    // A torn write that survived rename (e.g. lost tail on power cut).
    assert_quarantines("truncated", "unparseable", |text| {
        text[..text.len() / 2].to_string()
    });
}

#[test]
fn garbage_bytes_are_quarantined() {
    assert_quarantines("garbage", "unparseable", |_| {
        "\u{1}\u{2}not json at all {{{".to_string()
    });
}

#[test]
fn flipped_checksum_byte_is_quarantined() {
    // Flip one hex digit of the stored checksum: the payload no longer
    // verifies. (Flipping a payload byte instead exercises the same
    // comparison from the other side.)
    assert_quarantines("checksum", "checksum", |text| {
        let at = text.find("\"checksum\": \"").expect("checksum field") + "\"checksum\": \"".len();
        let old = &text[at..at + 1];
        let new = if old == "0" { "1" } else { "0" };
        format!("{}{}{}", &text[..at], new, &text[at + 1..])
    });
}

#[test]
fn flipped_payload_digit_is_quarantined() {
    assert_quarantines("bitrot", "checksum", |text| {
        let at = text.find("\"hmipc\": ").expect("hmipc field") + "\"hmipc\": ".len();
        let old = &text[at..at + 1];
        let new = if old == "9" { "8" } else { "9" };
        format!("{}{}{}", &text[..at], new, &text[at + 1..])
    });
}

#[test]
fn stale_schema_marker_is_quarantined() {
    // An envelope from the previous store major, whose checksum covered
    // the compact serialization instead of the parsed tree.
    const PREVIOUS: &str = "stacksim-store/1";
    assert_ne!(ENVELOPE_SCHEMA, PREVIOUS);
    assert_quarantines("schema", "schema", |text| {
        text.replace(ENVELOPE_SCHEMA, PREVIOUS)
    });
}

#[test]
fn wrong_identity_is_quarantined() {
    // A hand-moved file: valid envelope, valid checksum, wrong key.
    let dir = scratch("identity");
    let store = Store::open(&dir).unwrap();
    let (_, key) = seed_entry(&store);

    // Ask for a different mix under the same window; copy the VH1
    // envelope over that key's path so the content cannot match.
    let cfg = cfg_2d();
    let run = RunConfig::quick();
    let other = store.key_for(&cfg, "H1", &run);
    fs::copy(store.entry_path(key), store.entry_path(other)).unwrap();

    assert!(store.load_result(&cfg, "H1", &run).is_none());
    assert!(store
        .quarantine_dir()
        .join(format!("{other}.identity.json"))
        .exists());
    // The genuine entry is untouched.
    assert!(load(&store).is_some());
}

#[test]
fn empty_file_is_quarantined_not_served() {
    assert_quarantines("empty", "unparseable", |_| String::new());
}
