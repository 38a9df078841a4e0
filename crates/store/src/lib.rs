//! The durable, content-addressed result store behind the runner's
//! two-tier lookup.
//!
//! A [`Store`] is a directory of self-describing JSON envelopes
//! (`stacksim-store/2`), one per simulated `(machine, mix, window)`
//! point, keyed by an FNV-1a/64 content hash of the machine's
//! [`ScenarioHash`], the mix name, the run window and a code-version
//! stamp ([`stacksim::CODE_VERSION`]). Attached to a session with
//! [`stacksim::runner::Session::with_store`], it turns every re-run of an
//! already-simulated point — in *any* later process — into one file read
//! and one parse. Opening a store reads no entry.
//!
//! The trust story is layered:
//!
//! * **Atomic writes** — an envelope is written to a temp file and
//!   `rename`d into place, so readers never observe a torn entry.
//! * **Per-entry checksums** — the payload carries an FNV-1a/64 checksum
//!   over a canonical walk of its parsed JSON tree, so a load verifies the
//!   tree it is about to decode without re-serializing it; any entry that
//!   fails to parse, fails its checksum, or carries a
//!   stale schema or mismatched identity is **quarantined** (moved to
//!   `quarantine/`) and reported as a miss, never served.
//! * **Code-version keys** — results from a build whose simulated
//!   numbers differ simply miss, because the stamp is part of the key.
//!
//! `docs/STORE.md` documents the envelope schema, the key derivation and
//! the quarantine contract; `tests/store.rs` and `tests/store_fault.rs`
//! enforce them.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use stacksim::runner::{RunConfig, Session};
//! use stacksim::scenario::Machines;
//! use stacksim_store::Store;
//! use stacksim_workload::Mix;
//!
//! let store = Arc::new(Store::open("results-store").unwrap());
//! let session = Session::new(Machines::builtin()).with_store(store);
//! // First process: simulates and persists. Every later process: file read.
//! let (r, _source) = session
//!     .run_mix_cached(
//!         &Machines::builtin().m2d,
//!         Mix::by_name("VH1").unwrap(),
//!         &RunConfig::quick(),
//!     )
//!     .unwrap();
//! println!("VH1 HMIPC {:.3}", r.hmipc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use stacksim::runner::{ResultStore, RunConfig, RunResult};
use stacksim::scenario::{Fnv1a, ScenarioHash};
use stacksim::SystemConfig;
use stacksim_stats::{Json, MetricsSink};

/// Schema marker written into (and required of) every envelope. Entries
/// carrying any other marker — including the previous major,
/// `stacksim-store/1`, whose checksum covered the compact serialization
/// — are quarantined on load.
pub const ENVELOPE_SCHEMA: &str = "stacksim-store/2";

/// The content-addressed key of one stored result: FNV-1a/64 over the
/// scenario hash, the mix name, the run window (warmup, measure, seed,
/// fast-forward flag) and the code-version stamp. The key doubles as the
/// entry's file name (`entries/<016x>.json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey(u64);

impl StoreKey {
    /// Derives the key for one `(machine, mix, window)` point under the
    /// given code-version stamp.
    ///
    /// The digest is FNV-1a/64 over a canonical `|`-separated string of
    /// the identity fields (documented in `docs/STORE.md`), so the key is
    /// stable across processes, platforms and std-hasher changes.
    pub fn derive(cfg: &SystemConfig, mix: &str, run: &RunConfig, code_version: &str) -> StoreKey {
        let identity = format!(
            "{}|{}|{}|{}|{:#x}|{}|{}",
            ScenarioHash::of(cfg),
            mix,
            run.warmup_cycles,
            run.measure_cycles,
            run.seed,
            run.fast_forward,
            code_version,
        );
        let mut h = Fnv1a::new();
        h.write(identity.as_bytes());
        StoreKey(h.finish())
    }

    /// The raw 64-bit digest.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The payload checksum: FNV-1a/64 over a canonical walk of a JSON tree.
///
/// Each value starts with a one-byte type tag. Numbers are their IEEE-754
/// bits, little-endian; strings, keys, arrays and objects are their length
/// (`u64`, little-endian) followed by their bytes or members in order.
/// Numbers fold exactly as [`Json::pretty`] renders them — −0.0 as +0.0,
/// NaN and ±inf as `null` — so an in-memory payload and the tree parsed
/// back from its envelope hash alike.
fn checksum(payload: &Json) -> u64 {
    let mut h = Fnv1a::new();
    hash_json(&mut h, payload);
    h.finish()
}

fn hash_json(h: &mut Fnv1a, value: &Json) {
    match value {
        Json::Null => h.write(&[0]),
        Json::Num(n) if !n.is_finite() => h.write(&[0]),
        Json::Bool(b) => h.write(&[1, u8::from(*b)]),
        Json::Num(n) => {
            let n = if *n == 0.0 { 0.0 } else { *n };
            h.write(&[2]);
            h.write(&n.to_bits().to_le_bytes());
        }
        Json::Str(s) => {
            h.write(&[3]);
            hash_str(h, s);
        }
        Json::Arr(items) => {
            h.write(&[4]);
            h.write(&(items.len() as u64).to_le_bytes());
            for item in items {
                hash_json(h, item);
            }
        }
        Json::Obj(members) => {
            h.write(&[5]);
            h.write(&(members.len() as u64).to_le_bytes());
            for (k, v) in members {
                hash_str(h, k);
                hash_json(h, v);
            }
        }
    }
}

fn hash_str(h: &mut Fnv1a, s: &str) {
    h.write(&(s.len() as u64).to_le_bytes());
    h.write(s.as_bytes());
}

/// A filesystem failure while opening or writing the store. Read-side
/// corruption is *not* an error — corrupt entries are quarantined and
/// reported as misses.
#[derive(Debug)]
pub struct StoreError {
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O failure.
    pub source: io::Error,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store: {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Why an entry was quarantined (also the tag in the quarantined file's
/// name: `quarantine/<key>.<reason>.json`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The file was not valid JSON (torn write, truncation, garbage).
    Unparseable,
    /// The schema marker was missing or not [`ENVELOPE_SCHEMA`].
    Schema,
    /// The payload checksum did not match the stored checksum.
    Checksum,
    /// The envelope's identity (key or mix) did not match the request —
    /// a hash collision or a hand-moved file.
    Identity,
    /// The checksummed payload did not decode into a result (shape drift).
    Payload,
}

impl QuarantineReason {
    /// Short slug used in quarantined file names.
    pub const fn slug(self) -> &'static str {
        match self {
            QuarantineReason::Unparseable => "unparseable",
            QuarantineReason::Schema => "schema",
            QuarantineReason::Checksum => "checksum",
            QuarantineReason::Identity => "identity",
            QuarantineReason::Payload => "payload",
        }
    }
}

/// Cumulative counters of one [`Store`] handle (process-local; the
/// on-disk entry count is [`Store::len`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that found and served a valid entry.
    pub load_hits: u64,
    /// Loads that found nothing (including entries quarantined on read).
    pub load_misses: u64,
    /// Envelopes written.
    pub writes: u64,
    /// Entries quarantined after failing validation.
    pub quarantined: u64,
}

/// A durable on-disk result store: `entries/` holds the live envelopes,
/// `quarantine/` the entries that failed validation, `tmp/` the staging
/// files of in-flight atomic writes.
///
/// All methods take `&self`; a `Store` wrapped in an `Arc` is safe to
/// share across a session's worker threads and across sessions.
pub struct Store {
    root: PathBuf,
    code_version: String,
    /// Per-handle counter that, with the process id, names staging files.
    staged: AtomicU64,
    load_hits: AtomicU64,
    load_misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
}

impl Store {
    /// Opens (creating if absent) a store rooted at `root`, stamped with
    /// the running build's [`stacksim::CODE_VERSION`]. Opening creates the
    /// directory layout and reads no entry.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the directory layout cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        for sub in ["entries", "quarantine", "tmp"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(|e| StoreError {
                path: dir.clone(),
                source: e,
            })?;
        }
        Ok(Store {
            root,
            code_version: stacksim::CODE_VERSION.to_string(),
            staged: AtomicU64::new(0),
            load_hits: AtomicU64::new(0),
            load_misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// This store keyed under a different code-version stamp. Results
    /// saved under one stamp miss under any other — the sensitivity the
    /// key tests pin down, and the mechanism that retires entries from
    /// builds whose simulated numbers changed.
    pub fn with_code_version(mut self, code_version: impl Into<String>) -> Store {
        self.code_version = code_version.into();
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The code-version stamp keys are derived under.
    pub fn code_version(&self) -> &str {
        &self.code_version
    }

    /// The key this store derives for a `(machine, mix, window)` point.
    pub fn key_for(&self, cfg: &SystemConfig, mix: &str, run: &RunConfig) -> StoreKey {
        StoreKey::derive(cfg, mix, run, &self.code_version)
    }

    /// Absolute path of the (live) envelope for `key`, whether or not it
    /// exists yet. Exposed for the fault-injection tests and for tooling;
    /// ordinary callers go through [`Store::load_result`] /
    /// [`Store::save_result`].
    pub fn entry_path(&self, key: StoreKey) -> PathBuf {
        self.root.join("entries").join(format!("{key}.json"))
    }

    /// The quarantine directory.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Number of live envelopes on disk (counted, not read).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the entries directory cannot be listed.
    pub fn len(&self) -> Result<usize, StoreError> {
        count_json(&self.root.join("entries"))
    }

    /// Whether the store holds no live envelopes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the entries directory cannot be listed.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Number of quarantined envelopes on disk.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the quarantine directory cannot be listed.
    pub fn quarantined_len(&self) -> Result<usize, StoreError> {
        count_json(&self.quarantine_dir())
    }

    /// This handle's cumulative counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            load_hits: self.load_hits.load(Ordering::Relaxed),
            load_misses: self.load_misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Loads the stored result for this point, validating the envelope
    /// end to end. Any validation failure quarantines the entry and
    /// returns `None` — corrupt metrics are never served, and the caller
    /// recomputes.
    pub fn load_result(
        &self,
        cfg: &SystemConfig,
        mix: &'static str,
        run: &RunConfig,
    ) -> Option<RunResult> {
        let key = self.key_for(cfg, mix, run);
        let result = self.load_validated(key, mix);
        if result.is_some() {
            self.load_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.load_misses.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn load_validated(&self, key: StoreKey, mix: &'static str) -> Option<RunResult> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            // Unreadable but present (permissions, I/O error): leave it
            // for an operator, report a miss.
            Err(_) => return None,
        };
        let mut envelope = match Json::parse(&text) {
            Ok(v) => v,
            Err(_) => {
                self.quarantine(key, QuarantineReason::Unparseable);
                return None;
            }
        };
        if envelope.get("schema").and_then(Json::as_str) != Some(ENVELOPE_SCHEMA) {
            self.quarantine(key, QuarantineReason::Schema);
            return None;
        }
        let (Some(payload), Some(stored)) = (
            envelope.take("payload"),
            envelope.get("checksum").and_then(Json::as_str),
        ) else {
            self.quarantine(key, QuarantineReason::Schema);
            return None;
        };
        if format!("{:016x}", checksum(&payload)) != stored {
            self.quarantine(key, QuarantineReason::Checksum);
            return None;
        }
        // Identity backstop: the envelope must be the entry this key and
        // mix asked for (a collision or a hand-moved file otherwise).
        let claimed_key = envelope.get("key").and_then(Json::as_str);
        let payload_mix = payload.get("mix").and_then(Json::as_str);
        if claimed_key != Some(key.to_string().as_str()) || payload_mix != Some(mix) {
            self.quarantine(key, QuarantineReason::Identity);
            return None;
        }
        match decode_payload(payload, mix) {
            Ok(result) => Some(result),
            Err(_) => {
                self.quarantine(key, QuarantineReason::Payload);
                None
            }
        }
    }

    /// Persists a result: envelope serialized with its checksum, written
    /// to a staging file and atomically renamed into `entries/`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the envelope cannot be written.
    pub fn save_result(
        &self,
        cfg: &SystemConfig,
        mix: &str,
        run: &RunConfig,
        result: &RunResult,
    ) -> Result<StoreKey, StoreError> {
        let key = self.key_for(cfg, mix, run);
        let payload = encode_payload(result);
        let checksum = format!("{:016x}", checksum(&payload));
        let envelope = Json::Obj(vec![
            ("schema".into(), Json::Str(ENVELOPE_SCHEMA.into())),
            ("key".into(), Json::Str(key.to_string())),
            (
                "scenario_hash".into(),
                Json::Str(ScenarioHash::of(cfg).to_string()),
            ),
            ("mix".into(), Json::Str(mix.to_string())),
            (
                "run".into(),
                Json::Obj(vec![
                    ("warmup_cycles".into(), Json::Num(run.warmup_cycles as f64)),
                    (
                        "measure_cycles".into(),
                        Json::Num(run.measure_cycles as f64),
                    ),
                    ("seed".into(), Json::Str(format!("{:#x}", run.seed))),
                    ("fast_forward".into(), Json::Bool(run.fast_forward)),
                ]),
            ),
            ("code_version".into(), Json::Str(self.code_version.clone())),
            ("checksum".into(), Json::Str(checksum)),
            ("payload".into(), payload),
        ]);
        // Atomic publish: stage under tmp/, rename into entries/. A crash
        // between the two leaves a stale staging file and no entry; a
        // crash mid-write never produces a half-visible envelope.
        let staged = self.staged.fetch_add(1, Ordering::Relaxed);
        let staging = self
            .root
            .join("tmp")
            .join(format!("{key}.{}.{staged}.tmp", std::process::id()));
        fs::write(&staging, envelope.pretty()).map_err(|e| StoreError {
            path: staging.clone(),
            source: e,
        })?;
        let path = self.entry_path(key);
        fs::rename(&staging, &path).map_err(|e| StoreError {
            path: path.clone(),
            source: e,
        })?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(key)
    }

    /// Moves the entry for `key` into `quarantine/<key>.<reason>.json`.
    fn quarantine(&self, key: StoreKey, reason: QuarantineReason) {
        let from = self.entry_path(key);
        let to = self
            .quarantine_dir()
            .join(format!("{key}.{}.json", reason.slug()));
        let moved = fs::rename(&from, &to).or_else(|_| fs::remove_file(&from));
        if moved.is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "warning: store: quarantined entry {key} ({}); will recompute",
                reason.slug()
            );
        }
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("code_version", &self.code_version)
            .finish_non_exhaustive()
    }
}

/// Number of `*.json` files in `dir`.
fn count_json(dir: &Path) -> Result<usize, StoreError> {
    let iter = fs::read_dir(dir).map_err(|e| StoreError {
        path: dir.to_path_buf(),
        source: e,
    })?;
    Ok(iter
        .flatten()
        .filter(|entry| entry.path().extension().is_some_and(|e| e == "json"))
        .count())
}

/// The runner-facing adapter: loads quarantine-and-miss on corruption,
/// saves warn on stderr instead of failing the run — a broken disk slows
/// the process down, it never makes it wrong.
impl ResultStore for Store {
    fn load(&self, cfg: &SystemConfig, mix: &'static str, run: &RunConfig) -> Option<RunResult> {
        self.load_result(cfg, mix, run)
    }

    fn store(&self, cfg: &SystemConfig, mix: &'static str, run: &RunConfig, result: &RunResult) {
        if let Err(e) = self.save_result(cfg, mix, run, result) {
            eprintln!("warning: store: persist failed ({e}); result kept in-process only");
        }
    }
}

/// Serializes the persisted subset of a [`RunResult`] (everything except
/// the trace, which the store never holds).
fn encode_payload(result: &RunResult) -> Json {
    let nums = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
    Json::Obj(vec![
        ("mix".into(), Json::Str(result.mix.to_string())),
        ("hmipc".into(), Json::Num(result.hmipc)),
        ("per_core_ipc".into(), nums(&result.per_core_ipc)),
        (
            "committed".into(),
            Json::Arr(
                result
                    .committed
                    .iter()
                    .map(|&c| Json::Num(c as f64))
                    .collect(),
            ),
        ),
        (
            "zero_commit_cores".into(),
            Json::Arr(
                result
                    .zero_commit_cores
                    .iter()
                    .map(|&c| Json::Num(c as f64))
                    .collect(),
            ),
        ),
        ("stats".into(), result.stats.to_json()),
    ])
}

/// Rebuilds a [`RunResult`] from a checksummed payload. `mix` is the
/// registry name the caller asked for (already verified to match the
/// payload's own `mix` field).
fn decode_payload(mut payload: Json, mix: &'static str) -> Result<RunResult, String> {
    let stats = MetricsSink::from_json(payload.take("stats").ok_or("payload 'stats' missing")?)?;
    let f64s = |key: &str| -> Result<Vec<f64>, String> {
        payload
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("payload '{key}' missing or not an array"))?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("payload '{key}' holds a non-number"))
            })
            .collect()
    };
    let hmipc = payload
        .get("hmipc")
        .and_then(Json::as_f64)
        .ok_or("payload 'hmipc' missing or not a number")?;
    Ok(RunResult {
        mix,
        per_core_ipc: f64s("per_core_ipc")?,
        hmipc,
        committed: f64s("committed")?.into_iter().map(|v| v as u64).collect(),
        zero_commit_cores: f64s("zero_commit_cores")?
            .into_iter()
            .map(|v| v as usize)
            .collect(),
        stats,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim::scenario::Machines;

    #[test]
    fn keys_are_stable_and_sensitive() {
        let cfg = Machines::builtin().m2d;
        let run = RunConfig::quick();
        let a = StoreKey::derive(&cfg, "VH1", &run, "v1");
        // Pinned: a changed identity string or hasher re-keys every store.
        assert_eq!(a.to_string(), "0ce994e5033a4b8d");
        assert_ne!(a, StoreKey::derive(&cfg, "VH2", &run, "v1"));
        assert_ne!(a, StoreKey::derive(&cfg, "VH1", &run, "v2"));
        assert_ne!(
            a,
            StoreKey::derive(&Machines::builtin().m3d, "VH1", &run, "v1")
        );
    }

    /// Deterministic generator state (an LCG: the crate has no RNG
    /// dependency).
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    /// Numbers the printer renders specially or near its integer cutoff.
    const EDGE_NUMBERS: [f64; 9] = [
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        8_999_999_999_999_999.0,
        9.0e15,
        9_000_000_000_000_001.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
    ];

    fn gen_value(x: &mut u64, depth: usize) -> Json {
        const KEYS: [&str; 4] = ["hits", "é", "中文", "\u{1F600}"];
        match lcg(x) % if depth == 0 { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(lcg(x).is_multiple_of(2)),
            2 => Json::Num(match lcg(x) % 3 {
                0 => EDGE_NUMBERS[lcg(x) as usize % EDGE_NUMBERS.len()],
                1 => (lcg(x) % 1_000_000) as f64 / (lcg(x) % 997 + 1) as f64,
                _ => -((lcg(x) % 1_000) as f64),
            }),
            3 => Json::Str(KEYS[lcg(x) as usize % KEYS.len()].repeat(lcg(x) as usize % 3)),
            4 => Json::Arr((0..lcg(x) % 4).map(|_| gen_value(x, depth - 1)).collect()),
            _ => Json::Obj(
                (0..lcg(x) % 4)
                    .map(|i| {
                        let key = format!("{}{i}", KEYS[lcg(x) as usize % KEYS.len()]);
                        (key, gen_value(x, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn checksum_survives_the_pretty_round_trip() {
        let (mut negative_zero, mut non_finite) = (false, false);
        for seed in 0..300u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let v = Json::Obj(vec![("v".into(), gen_value(&mut x, 4))]);
            let shape = format!("{v:?}");
            negative_zero |= shape.contains("Num(-0.0)");
            non_finite |= shape.contains("Num(NaN)") || shape.contains("inf)");
            let text = v.pretty();
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(
                checksum(&v),
                checksum(&parsed),
                "seed {seed} changed its checksum through {text:?}"
            );
        }
        assert!(negative_zero && non_finite, "generator missed a fold");
    }

    #[test]
    fn checksum_sees_structure_not_just_content() {
        let s = |t: &str| Json::Str(t.into());
        let distinct = [
            Json::Null,
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(1.0),
            s(""),
            s("ab"),
            Json::Arr(vec![s("a"), s("b")]),
            Json::Arr(vec![s("ab")]),
            Json::Obj(vec![("a".into(), s("b"))]),
            Json::Obj(vec![("ab".into(), Json::Null)]),
        ];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(checksum(a), checksum(b), "{a:?} vs {b:?}");
            }
        }
    }
}
