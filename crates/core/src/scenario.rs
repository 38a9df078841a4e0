//! Declarative machine scenarios: data-driven topologies beyond quad-core.
//!
//! A *scenario* is a JSON file describing one complete machine — core count
//! and microarchitecture (optionally heterogeneous per core), L2 geometry,
//! MSHR organization, virtual memory, a core→MC interconnect model, and the
//! whole DRAM system including multiple stacks with per-stack MC groups.
//! [`Scenario::from_path`] parses, validates and builds the corresponding
//! [`SystemConfig`]; every key is checked against the schema
//! ([`ACCEPTED_KEYS`]) and unknown or out-of-range values are rejected with
//! a typed [`ScenarioError`] naming the offending key.
//!
//! Every omitted key takes the paper's 2D baseline value, so the shipped
//! `scenarios/2d.json` is an (almost) empty machine object and each other
//! file states exactly what it changes — the same delta structure as the
//! [`configs`](crate::configs) constructors, which remain as golden twins
//! cross-checked by test.
//!
//! The full schema — key-by-key types, units, defaults and validation
//! rules — is documented in `docs/SCENARIOS.md`, which simlint cross-checks
//! against [`ACCEPTED_KEYS`] so the document cannot drift from the parser.
//!
//! # Examples
//!
//! ```
//! use stacksim::scenario::Scenario;
//!
//! let two_d = Scenario::from_str(r#"{
//!     "schema": "stacksim-scenario/1",
//!     "name": "baseline",
//!     "machine": {}
//! }"#)
//! .unwrap();
//! assert_eq!(two_d.config, stacksim::configs::cfg_2d());
//! ```

use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use stacksim_cache::CacheConfig;
use stacksim_cpu::{CoreConfig, TageConfig};
use stacksim_memctrl::SchedulerPolicy;
use stacksim_mshr::{MshrKind, TunerConfig};
use stacksim_stats::{Json, JsonError};
use stacksim_types::{
    ConfigError, Cycles, DramTiming, InterleaveGranularity, MemoryKind, RefreshConfig,
};
use stacksim_vm::TlbConfig;

use crate::config::{InterconnectConfig, MemorySystemConfig, MshrSystemConfig, SystemConfig};
use crate::configs::CORE_HZ;

/// Every key path the scenario parser accepts, in schema order.
///
/// This table *is* the parser's key check: each object's member names are
/// validated against its children here, so the table can never lag the
/// parser. simlint's scenario-docs rule cross-checks `docs/SCENARIOS.md`
/// against this list in both directions.
///
/// Array-element schemas use a `[]` segment: entries of
/// `machine.memory.stacks` (in its explicit list form) accept the
/// `machine.memory.stacks[].*` keys, and entries of `machine.per_core`
/// accept the same keys as `machine.core`.
pub const ACCEPTED_KEYS: &[&str] = &[
    "schema",
    "name",
    "description",
    "machine",
    "machine.cores",
    "machine.core_hz",
    "machine.core",
    "machine.core.issue_width",
    "machine.core.commit_width",
    "machine.core.window",
    "machine.core.l1_mshrs",
    "machine.core.nextline_degree",
    "machine.core.stride_entries",
    "machine.core.dl1",
    "machine.core.dl1.size_bytes",
    "machine.core.dl1.associativity",
    "machine.core.branch",
    "machine.per_core",
    "machine.l2",
    "machine.l2.size_bytes",
    "machine.l2.associativity",
    "machine.l2.banks",
    "machine.l2.latency",
    "machine.l2.interleave",
    "machine.l2.prefetch",
    "machine.mshr",
    "machine.mshr.kind",
    "machine.mshr.total_entries",
    "machine.mshr.dynamic",
    "machine.mshr.dynamic.sample_cycles",
    "machine.mshr.dynamic.apply_cycles",
    "machine.mshr.dynamic.divisors",
    "machine.vm",
    "machine.vm.entries",
    "machine.vm.associativity",
    "machine.vm.walk_latency",
    "machine.interconnect",
    "machine.interconnect.hop_latency",
    "machine.memory",
    "machine.memory.kind",
    "machine.memory.total_bytes",
    "machine.memory.ranks",
    "machine.memory.banks_per_rank",
    "machine.memory.mcs",
    "machine.memory.stacks",
    "machine.memory.stacks[].mcs",
    "machine.memory.stacks[].ranks",
    "machine.memory.row_buffer_entries",
    "machine.memory.timing",
    "machine.memory.timing.t_ras_ns",
    "machine.memory.timing.t_rcd_ns",
    "machine.memory.timing.t_cas_ns",
    "machine.memory.timing.t_wr_ns",
    "machine.memory.timing.t_rp_ns",
    "machine.memory.timing.t_ccd_ns",
    "machine.memory.refresh_ms",
    "machine.memory.smart_refresh",
    "machine.memory.page_policy",
    "machine.memory.bus_width_bytes",
    "machine.memory.bus_clock_divisor",
    "machine.memory.mc_clock_divisor",
    "machine.memory.path_latency",
    "machine.memory.critical_word_first",
    "machine.memory.mrq_total",
    "machine.memory.scheduler",
];

/// The schema identifier every scenario file must carry.
pub const SCHEMA: &str = "stacksim-scenario/1";

/// Why a scenario file was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The I/O error text.
        message: String,
    },
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The JSON is well-formed but violates the scenario schema (unknown
    /// key, wrong type, out-of-range value, …). `key` is the full dotted
    /// path of the offending key.
    Schema {
        /// Dotted path of the offending key (e.g. `machine.l2.banks`).
        key: String,
        /// What is wrong with it.
        message: String,
    },
    /// The described machine fails cross-component validation
    /// ([`SystemConfig::validate`]).
    Config(ConfigError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario {}: {message}", path.display())
            }
            ScenarioError::Json(e) => write!(f, "scenario is not valid JSON: {e}"),
            ScenarioError::Schema { key, message } => {
                write!(f, "scenario key \"{key}\": {message}")
            }
            ScenarioError::Config(e) => write!(f, "scenario machine is inconsistent: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A stable content hash of a machine configuration — the memoization key
/// the runner and the durable result store share.
///
/// The digest is FNV-1a/64 over the machine's full configuration identity:
/// exactly the fields [`SystemConfig`]'s `Eq` compares, nothing else. Two
/// scenario files that describe the same machine — regardless of key order,
/// formatting, `name` or `description` — therefore hash identically and
/// dedupe to one simulation, while any semantic difference (one more MSHR
/// entry, a different refresh period) changes the hash.
///
/// # Examples
///
/// ```
/// use stacksim::scenario::ScenarioHash;
///
/// let a = ScenarioHash::of(&stacksim::configs::cfg_3d());
/// let b = ScenarioHash::of(&stacksim::configs::cfg_3d());
/// assert_eq!(a, b);
/// assert_ne!(a, ScenarioHash::of(&stacksim::configs::cfg_2d()));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioHash(u64);

impl ScenarioHash {
    /// Digests a machine configuration.
    pub fn of(cfg: &SystemConfig) -> ScenarioHash {
        let mut h = Fnv1a::new();
        cfg.hash(&mut h);
        ScenarioHash(h.finish())
    }

    /// The raw 64-bit digest.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ScenarioHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a/64 as a [`Hasher`], so `ScenarioHash` is independent of the
/// standard library's (explicitly unstable) default hasher. The result
/// store's keys and payload checksums use the same hasher.
///
/// Only [`Hasher::write`] is stable across platforms: the integer
/// `write_*` methods feed native-endian bytes, so callers that need a
/// portable digest write `to_le_bytes()` themselves.
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a/64 offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A parsed, validated scenario: the machine plus its identity metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The scenario's name (`name` key; required).
    pub name: String,
    /// Free-text description (`description` key), if any. Not part of the
    /// content hash.
    pub description: Option<String>,
    /// The fully built and validated machine.
    pub config: SystemConfig,
}

impl Scenario {
    /// Parses a scenario document, checks every key against the schema, and
    /// builds the validated [`SystemConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for malformed JSON, an unknown or
    /// ill-typed key, an out-of-range value, or a machine that fails
    /// [`SystemConfig::validate`].
    ///
    /// # Examples
    ///
    /// An 8-core machine on a single 3D stack with two memory controllers:
    ///
    /// ```
    /// use stacksim::scenario::Scenario;
    ///
    /// let octa = Scenario::from_str(r#"{
    ///     "schema": "stacksim-scenario/1",
    ///     "name": "octa-3d",
    ///     "description": "8 cores over stacked commodity DRAM, 2 MCs",
    ///     "machine": {
    ///         "cores": 8,
    ///         "l2": { "interleave": "page" },
    ///         "memory": {
    ///             "kind": "stacked-3d",
    ///             "mcs": 2,
    ///             "refresh_ms": 32.0,
    ///             "bus_clock_divisor": 1,
    ///             "mc_clock_divisor": 1,
    ///             "path_latency": 0
    ///         }
    ///     }
    /// }"#)
    /// .unwrap();
    /// assert_eq!(octa.config.cores, 8);
    /// assert_eq!(octa.config.memory.mcs, 2);
    /// octa.config.validate().unwrap();
    /// ```
    // An inherent `from_str` (rather than the `FromStr` trait) so callers
    // need no extra import; the trait's `parse` ergonomics add nothing for
    // a multi-line document.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Scenario, ScenarioError> {
        let doc = Json::parse(text).map_err(ScenarioError::Json)?;
        let root = obj(&doc, "(document)")?;
        check_keys(root, "", "")?;
        match get(root, "schema") {
            None => return Err(schema_err("schema", "required key is missing")),
            Some(v) => {
                let s = str_val(v, "schema")?;
                if s != SCHEMA {
                    return Err(schema_err("schema", format!("expected \"{SCHEMA}\"")));
                }
            }
        }
        let name = match get(root, "name") {
            None => return Err(schema_err("name", "required key is missing")),
            Some(v) => {
                let s = str_val(v, "name")?;
                if s.is_empty() {
                    return Err(schema_err("name", "must not be empty"));
                }
                s.to_string()
            }
        };
        let description = match get(root, "description") {
            None => None,
            Some(v) => Some(str_val(v, "description")?.to_string()),
        };
        let machine = match get(root, "machine") {
            None => &[][..],
            Some(v) => obj(v, "machine")?,
        };
        let config = parse_machine(machine)?;
        config.validate().map_err(ScenarioError::Config)?;
        Ok(Scenario {
            name,
            description,
            config,
        })
    }

    /// Reads and parses a scenario file; see [`Scenario::from_str`].
    ///
    /// # Errors
    ///
    /// Everything [`Scenario::from_str`] rejects, plus
    /// [`ScenarioError::Io`] if the file cannot be read.
    pub fn from_path(path: &Path) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Scenario::from_str(&text)
    }

    /// The scenario's content hash (see [`ScenarioHash`]).
    pub fn hash(&self) -> ScenarioHash {
        ScenarioHash::of(&self.config)
    }
}

/// The six named machines every experiment driver draws from, resolvable
/// either from the built-in constructors ([`configs`](crate::configs)) or
/// from the shipped scenario files — the two are golden twins, cross-checked
/// bit-identical by test.
///
/// Experiment drivers read their machines from the
/// [`Session`](crate::runner::Session) they are given instead of calling
/// the constructors, so `reproduce` (and anything else) can re-point the
/// whole evaluation at an edited scenario directory without recompiling.
#[derive(Clone, Debug, PartialEq)]
pub struct Machines {
    /// Off-chip 2D baseline (`scenarios/2d.json`, [`configs::cfg_2d`](crate::configs::cfg_2d)).
    pub m2d: SystemConfig,
    /// Simple on-stack 3D (`scenarios/3d.json`, [`configs::cfg_3d`](crate::configs::cfg_3d)).
    pub m3d: SystemConfig,
    /// 3D with a 64-byte bus (`scenarios/3d-wide.json`, [`configs::cfg_3d_wide`](crate::configs::cfg_3d_wide)).
    pub m3d_wide: SystemConfig,
    /// True-3D arrays (`scenarios/3d-fast.json`, [`configs::cfg_3d_fast`](crate::configs::cfg_3d_fast)).
    pub m3d_fast: SystemConfig,
    /// Aggressive dual-MC machine (`scenarios/dual-mc.json`, [`configs::cfg_dual_mc`](crate::configs::cfg_dual_mc)).
    pub dual_mc: SystemConfig,
    /// Aggressive quad-MC machine (`scenarios/quad-mc.json`, [`configs::cfg_quad_mc`](crate::configs::cfg_quad_mc)).
    pub quad_mc: SystemConfig,
}

/// The scenario file each [`Machines`] field loads from.
pub const MACHINE_FILES: &[&str] = &[
    "2d.json",
    "3d.json",
    "3d-wide.json",
    "3d-fast.json",
    "dual-mc.json",
    "quad-mc.json",
];

impl Machines {
    /// The compiled-in constructors (exactly Table 1 and §4).
    pub fn builtin() -> Machines {
        Machines {
            m2d: crate::configs::cfg_2d(),
            m3d: crate::configs::cfg_3d(),
            m3d_wide: crate::configs::cfg_3d_wide(),
            m3d_fast: crate::configs::cfg_3d_fast(),
            dual_mc: crate::configs::cfg_dual_mc(),
            quad_mc: crate::configs::cfg_quad_mc(),
        }
    }

    /// Loads all six machines from their [`MACHINE_FILES`] in `dir`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] from any of the six files.
    pub fn from_dir(dir: &Path) -> Result<Machines, ScenarioError> {
        let load = |file: &str| Scenario::from_path(&dir.join(file)).map(|s| s.config);
        Ok(Machines {
            m2d: load("2d.json")?,
            m3d: load("3d.json")?,
            m3d_wide: load("3d-wide.json")?,
            m3d_fast: load("3d-fast.json")?,
            dual_mc: load("dual-mc.json")?,
            quad_mc: load("quad-mc.json")?,
        })
    }

    /// [`Machines::from_dir`] when `dir` holds a scenario set (detected by
    /// the presence of `2d.json`), the built-in constructors otherwise.
    /// A present-but-broken scenario set is a hard error, never a silent
    /// fallback.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if `dir` holds a scenario set that fails
    /// to parse or validate.
    pub fn load(dir: &Path) -> Result<Machines, ScenarioError> {
        if dir.join("2d.json").exists() {
            Machines::from_dir(dir)
        } else {
            Ok(Machines::builtin())
        }
    }

    /// The §4 aggressive reorganization (`mcs` MCs over `ranks` ranks with
    /// `row_buffer_entries` row buffers per bank, page-interleaved L2)
    /// derived from this set's `3d-fast` machine — the scenario-aware
    /// counterpart of [`configs::cfg_aggressive`](crate::configs::cfg_aggressive).
    pub fn aggressive(&self, mcs: u16, ranks: u16, row_buffer_entries: usize) -> SystemConfig {
        crate::configs::aggressive_from(&self.m3d_fast, mcs, ranks, row_buffer_entries)
    }
}

// ---------------------------------------------------------------------------
// Schema walking helpers.

fn schema_err(key: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema {
        key: key.into(),
        message: message.into(),
    }
}

/// The member names the schema allows directly under `prefix` (`""` is the
/// document root). Array-element keys (containing `[]`) only appear under
/// their own prefix.
fn children(prefix: &str) -> impl Iterator<Item = &'static str> + '_ {
    ACCEPTED_KEYS.iter().copied().filter_map(move |k| {
        let rest = if prefix.is_empty() {
            k
        } else {
            k.strip_prefix(prefix)?.strip_prefix('.')?
        };
        (!rest.contains('.') && !rest.contains("[]")).then_some(rest)
    })
}

/// Rejects members not in the schema under `schema_prefix`, and duplicate
/// members. `err_prefix` is the dotted path used in error messages (it
/// differs from `schema_prefix` inside `per_core` and `stacks` entries).
fn check_keys(
    members: &[(String, Json)],
    schema_prefix: &str,
    err_prefix: &str,
) -> Result<(), ScenarioError> {
    let at = |k: &str| {
        if err_prefix.is_empty() {
            k.to_string()
        } else {
            format!("{err_prefix}.{k}")
        }
    };
    for (i, (k, _)) in members.iter().enumerate() {
        if !children(schema_prefix).any(|c| c == k) {
            return Err(schema_err(at(k), "unknown key"));
        }
        if members[..i].iter().any(|(prev, _)| prev == k) {
            return Err(schema_err(at(k), "duplicate key"));
        }
    }
    Ok(())
}

fn get<'a>(members: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn obj<'a>(v: &'a Json, key: &str) -> Result<&'a [(String, Json)], ScenarioError> {
    v.as_obj()
        .ok_or_else(|| schema_err(key, "expected an object"))
}

fn str_val<'a>(v: &'a Json, key: &str) -> Result<&'a str, ScenarioError> {
    v.as_str()
        .ok_or_else(|| schema_err(key, "expected a string"))
}

fn bool_val(v: &Json, key: &str) -> Result<bool, ScenarioError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(schema_err(key, "expected a boolean")),
    }
}

fn num(v: &Json, key: &str) -> Result<f64, ScenarioError> {
    v.as_f64()
        .ok_or_else(|| schema_err(key, "expected a number"))
}

fn pos_num(v: &Json, key: &str) -> Result<f64, ScenarioError> {
    let n = num(v, key)?;
    if n.is_nan() || n <= 0.0 {
        return Err(schema_err(key, "expected a positive number"));
    }
    Ok(n)
}

/// An integer in `lo..=hi` (also rejects fractional and negative numbers).
fn uint(v: &Json, key: &str, lo: u64, hi: u64) -> Result<u64, ScenarioError> {
    let n = num(v, key)?;
    if n.fract() != 0.0 || n < 0.0 || n > u64::MAX as f64 {
        return Err(schema_err(key, "expected a non-negative integer"));
    }
    let n = n as u64;
    if n < lo || n > hi {
        return Err(schema_err(key, format!("must be between {lo} and {hi}")));
    }
    Ok(n)
}

/// Looks up an enum-style string key against `(name, value)` pairs.
fn named<T: Copy>(v: &Json, key: &str, options: &[(&str, T)]) -> Result<T, ScenarioError> {
    let s = str_val(v, key)?;
    for (name, value) in options {
        if *name == s {
            return Ok(*value);
        }
    }
    let names: Vec<&str> = options.iter().map(|(n, _)| *n).collect();
    Err(schema_err(
        key,
        format!(
            "unknown name \"{s}\" (expected one of: {})",
            names.join(", ")
        ),
    ))
}

// ---------------------------------------------------------------------------
// Section parsers. Every default is the paper's 2D baseline
// ([`configs::cfg_2d`](crate::configs::cfg_2d)), pinned by the golden-twin
// tests against the constructors.

fn parse_machine(m: &[(String, Json)]) -> Result<SystemConfig, ScenarioError> {
    check_keys(m, "machine", "machine")?;
    let cores = match get(m, "cores") {
        None => 4,
        Some(v) => uint(v, "machine.cores", 1, 1024)? as usize,
    };
    let core_hz = match get(m, "core_hz") {
        None => CORE_HZ,
        Some(v) => pos_num(v, "machine.core_hz")?,
    };
    let core = match get(m, "core") {
        None => CoreConfig::penryn(),
        Some(v) => parse_core(obj(v, "machine.core")?, "machine.core")?,
    };
    let per_core = match get(m, "per_core") {
        None => Vec::new(),
        Some(v) => {
            let entries = v
                .as_arr()
                .ok_or_else(|| schema_err("machine.per_core", "expected an array"))?;
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let path = format!("machine.per_core[{i}]");
                    parse_core(obj(e, &path)?, &path)
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let (l2, l2_banks, l2_latency, l2_interleave, l2_prefetch) = match get(m, "l2") {
        None => default_l2(),
        Some(v) => parse_l2(obj(v, "machine.l2")?)?,
    };
    let mshr = match get(m, "mshr") {
        None => MshrSystemConfig {
            kind: MshrKind::Cam,
            total_entries: 8,
            dynamic: None,
        },
        Some(v) => parse_mshr(obj(v, "machine.mshr")?)?,
    };
    let vm = match get(m, "vm") {
        None => Some(TlbConfig::dtlb_penryn()),
        Some(Json::Null) => None,
        Some(v) => Some(parse_vm(obj(v, "machine.vm")?)?),
    };
    let interconnect = match get(m, "interconnect") {
        None => InterconnectConfig::default(),
        Some(v) => parse_interconnect(obj(v, "machine.interconnect")?)?,
    };
    let memory = match get(m, "memory") {
        None => parse_memory(&[])?,
        Some(v) => parse_memory(obj(v, "machine.memory")?)?,
    };
    Ok(SystemConfig {
        cores,
        core,
        per_core,
        core_hz,
        l2,
        l2_banks,
        l2_latency,
        l2_interleave,
        l2_prefetch,
        mshr,
        vm,
        interconnect,
        memory,
    })
}

/// Parses one core object (`machine.core` or a `machine.per_core` entry;
/// `err_prefix` names which in errors). Defaults are the Penryn core.
fn parse_core(m: &[(String, Json)], err_prefix: &str) -> Result<CoreConfig, ScenarioError> {
    check_keys(m, "machine.core", err_prefix)?;
    let at = |k: &str| format!("{err_prefix}.{k}");
    let base = CoreConfig::penryn();
    let dl1 = match get(m, "dl1") {
        None => base.dl1,
        Some(v) => {
            let dm = obj(v, &at("dl1"))?;
            check_keys(dm, "machine.core.dl1", &at("dl1"))?;
            CacheConfig {
                size_bytes: match get(dm, "size_bytes") {
                    None => base.dl1.size_bytes,
                    Some(v) => uint(v, &at("dl1.size_bytes"), 64, 1 << 32)?,
                },
                associativity: match get(dm, "associativity") {
                    None => base.dl1.associativity,
                    Some(v) => uint(v, &at("dl1.associativity"), 1, 1024)? as usize,
                },
            }
        }
    };
    let branch = match get(m, "branch") {
        None => base.branch,
        Some(v) => match str_val(v, &at("branch"))? {
            "tage-4kb" => Some(TageConfig::penryn_4kb()),
            "none" => None,
            s => {
                return Err(schema_err(
                    at("branch"),
                    format!("unknown name \"{s}\" (expected one of: tage-4kb, none)"),
                ))
            }
        },
    };
    Ok(CoreConfig {
        issue_width: match get(m, "issue_width") {
            None => base.issue_width,
            Some(v) => uint(v, &at("issue_width"), 1, 64)? as usize,
        },
        commit_width: match get(m, "commit_width") {
            None => base.commit_width,
            Some(v) => uint(v, &at("commit_width"), 1, 64)? as usize,
        },
        window: match get(m, "window") {
            None => base.window,
            Some(v) => uint(v, &at("window"), 1, 1 << 16)? as usize,
        },
        dl1,
        l1_mshrs: match get(m, "l1_mshrs") {
            None => base.l1_mshrs,
            Some(v) => uint(v, &at("l1_mshrs"), 1, 1 << 16)? as usize,
        },
        nextline_degree: match get(m, "nextline_degree") {
            None => base.nextline_degree,
            Some(v) => uint(v, &at("nextline_degree"), 0, 64)? as usize,
        },
        stride_entries: match get(m, "stride_entries") {
            None => base.stride_entries,
            Some(v) => uint(v, &at("stride_entries"), 0, 1 << 20)? as usize,
        },
        branch,
    })
}

fn default_l2() -> (CacheConfig, u16, Cycles, InterleaveGranularity, bool) {
    (
        CacheConfig::dl2_penryn(),
        16,
        Cycles::new(9),
        InterleaveGranularity::Line,
        true,
    )
}

type L2Parts = (CacheConfig, u16, Cycles, InterleaveGranularity, bool);

fn parse_l2(m: &[(String, Json)]) -> Result<L2Parts, ScenarioError> {
    check_keys(m, "machine.l2", "machine.l2")?;
    let (dflt, dflt_banks, dflt_latency, dflt_il, dflt_pf) = default_l2();
    Ok((
        CacheConfig {
            size_bytes: match get(m, "size_bytes") {
                None => dflt.size_bytes,
                Some(v) => uint(v, "machine.l2.size_bytes", 64, 1 << 40)?,
            },
            associativity: match get(m, "associativity") {
                None => dflt.associativity,
                Some(v) => uint(v, "machine.l2.associativity", 1, 1024)? as usize,
            },
        },
        match get(m, "banks") {
            None => dflt_banks,
            Some(v) => uint(v, "machine.l2.banks", 1, 1 << 12)? as u16,
        },
        match get(m, "latency") {
            None => dflt_latency,
            Some(v) => Cycles::new(uint(v, "machine.l2.latency", 0, 1 << 20)?),
        },
        match get(m, "interleave") {
            None => dflt_il,
            Some(v) => named(
                v,
                "machine.l2.interleave",
                &[
                    ("line", InterleaveGranularity::Line),
                    ("page", InterleaveGranularity::Page),
                ],
            )?,
        },
        match get(m, "prefetch") {
            None => dflt_pf,
            Some(v) => bool_val(v, "machine.l2.prefetch")?,
        },
    ))
}

fn parse_mshr(m: &[(String, Json)]) -> Result<MshrSystemConfig, ScenarioError> {
    check_keys(m, "machine.mshr", "machine.mshr")?;
    Ok(MshrSystemConfig {
        kind: match get(m, "kind") {
            None => MshrKind::Cam,
            Some(v) => {
                let s = str_val(v, "machine.mshr.kind")?;
                MshrKind::from_name(s).ok_or_else(|| {
                    schema_err(
                        "machine.mshr.kind",
                        format!(
                            "unknown name \"{s}\" (expected one of: cam, direct-linear, \
                             direct-quadratic, vbf, hierarchical)"
                        ),
                    )
                })?
            }
        },
        total_entries: match get(m, "total_entries") {
            None => 8,
            Some(v) => uint(v, "machine.mshr.total_entries", 1, 1 << 20)? as usize,
        },
        dynamic: match get(m, "dynamic") {
            None | Some(Json::Null) => None,
            Some(v) => Some(parse_tuner(obj(v, "machine.mshr.dynamic")?)?),
        },
    })
}

fn parse_tuner(m: &[(String, Json)]) -> Result<TunerConfig, ScenarioError> {
    check_keys(m, "machine.mshr.dynamic", "machine.mshr.dynamic")?;
    let dflt = TunerConfig::default();
    Ok(TunerConfig {
        sample_cycles: match get(m, "sample_cycles") {
            None => dflt.sample_cycles,
            Some(v) => uint(v, "machine.mshr.dynamic.sample_cycles", 1, 1 << 40)?,
        },
        apply_cycles: match get(m, "apply_cycles") {
            None => dflt.apply_cycles,
            Some(v) => uint(v, "machine.mshr.dynamic.apply_cycles", 1, 1 << 40)?,
        },
        divisors: match get(m, "divisors") {
            None => dflt.divisors,
            Some(v) => {
                let items = v.as_arr().ok_or_else(|| {
                    schema_err("machine.mshr.dynamic.divisors", "expected an array")
                })?;
                if items.is_empty() {
                    return Err(schema_err(
                        "machine.mshr.dynamic.divisors",
                        "must not be empty",
                    ));
                }
                items
                    .iter()
                    .map(|d| uint(d, "machine.mshr.dynamic.divisors", 1, 1024).map(|n| n as usize))
                    .collect::<Result<Vec<_>, _>>()?
            }
        },
    })
}

fn parse_vm(m: &[(String, Json)]) -> Result<TlbConfig, ScenarioError> {
    check_keys(m, "machine.vm", "machine.vm")?;
    let dflt = TlbConfig::dtlb_penryn();
    Ok(TlbConfig {
        entries: match get(m, "entries") {
            None => dflt.entries,
            Some(v) => uint(v, "machine.vm.entries", 1, 1 << 20)? as usize,
        },
        associativity: match get(m, "associativity") {
            None => dflt.associativity,
            Some(v) => uint(v, "machine.vm.associativity", 1, 1024)? as usize,
        },
        walk_latency: match get(m, "walk_latency") {
            None => dflt.walk_latency,
            Some(v) => Cycles::new(uint(v, "machine.vm.walk_latency", 0, 1 << 30)?),
        },
    })
}

fn parse_interconnect(m: &[(String, Json)]) -> Result<InterconnectConfig, ScenarioError> {
    check_keys(m, "machine.interconnect", "machine.interconnect")?;
    Ok(InterconnectConfig {
        hop_latency: match get(m, "hop_latency") {
            None => Cycles::ZERO,
            Some(v) => Cycles::new(uint(v, "machine.interconnect.hop_latency", 0, 1 << 20)?),
        },
    })
}

fn parse_timing(v: &Json) -> Result<DramTiming, ScenarioError> {
    if let Some(s) = v.as_str() {
        return match s {
            "commodity-2d" => Ok(DramTiming::COMMODITY_2D),
            "true-3d" => Ok(DramTiming::TRUE_3D),
            _ => Err(schema_err(
                "machine.memory.timing",
                format!("unknown name \"{s}\" (expected one of: commodity-2d, true-3d)"),
            )),
        };
    }
    let m = obj(v, "machine.memory.timing")?;
    check_keys(m, "machine.memory.timing", "machine.memory.timing")?;
    let field = |k: &str| -> Result<f64, ScenarioError> {
        let path = format!("machine.memory.timing.{k}");
        match get(m, k) {
            None => Err(schema_err(path, "required in explicit timing")),
            Some(v) => pos_num(v, &path),
        }
    };
    Ok(DramTiming {
        t_ras_ns: field("t_ras_ns")?,
        t_rcd_ns: field("t_rcd_ns")?,
        t_cas_ns: field("t_cas_ns")?,
        t_wr_ns: field("t_wr_ns")?,
        t_rp_ns: field("t_rp_ns")?,
        t_ccd_ns: field("t_ccd_ns")?,
    })
}

/// `stacks`, `mcs` and `ranks` resolved together: `stacks` is either a
/// count (controllers and ranks split evenly) or an explicit per-stack list
/// of `{mcs, ranks}` groups (uniform, summed into the machine totals, and
/// exclusive with top-level `mcs`/`ranks`).
fn parse_stacks(m: &[(String, Json)]) -> Result<(u16, u16, u16), ScenarioError> {
    let scalar_mcs = match get(m, "mcs") {
        None => None,
        Some(v) => Some(uint(v, "machine.memory.mcs", 1, 1 << 12)? as u16),
    };
    let scalar_ranks = match get(m, "ranks") {
        None => None,
        Some(v) => Some(uint(v, "machine.memory.ranks", 1, 1 << 12)? as u16),
    };
    match get(m, "stacks") {
        None => Ok((1, scalar_mcs.unwrap_or(1), scalar_ranks.unwrap_or(8))),
        Some(v @ Json::Num(_)) => {
            let stacks = uint(v, "machine.memory.stacks", 1, 1 << 12)? as u16;
            Ok((
                stacks,
                scalar_mcs.unwrap_or(stacks),
                scalar_ranks.unwrap_or(8),
            ))
        }
        Some(Json::Arr(groups)) => {
            if scalar_mcs.is_some() {
                return Err(schema_err(
                    "machine.memory.mcs",
                    "conflicts with the explicit per-stack list (stack groups already \
                     define the controller count)",
                ));
            }
            if scalar_ranks.is_some() {
                return Err(schema_err(
                    "machine.memory.ranks",
                    "conflicts with the explicit per-stack list (stack groups already \
                     define the rank count)",
                ));
            }
            if groups.is_empty() {
                return Err(schema_err("machine.memory.stacks", "must not be empty"));
            }
            let mut parsed = Vec::with_capacity(groups.len());
            for (i, g) in groups.iter().enumerate() {
                let path = format!("machine.memory.stacks[{i}]");
                let gm = obj(g, &path)?;
                check_keys(gm, "machine.memory.stacks[]", &path)?;
                let mcs = match get(gm, "mcs") {
                    None => {
                        return Err(schema_err(format!("{path}.mcs"), "required key is missing"))
                    }
                    Some(v) => uint(v, &format!("{path}.mcs"), 1, 1 << 12)? as u16,
                };
                let ranks = match get(gm, "ranks") {
                    None => {
                        return Err(schema_err(
                            format!("{path}.ranks"),
                            "required key is missing",
                        ))
                    }
                    Some(v) => uint(v, &format!("{path}.ranks"), 1, 1 << 12)? as u16,
                };
                parsed.push((mcs, ranks));
            }
            if parsed.iter().any(|&g| g != parsed[0]) {
                return Err(schema_err(
                    "machine.memory.stacks",
                    "stack groups must be uniform (all stacks share one timing model)",
                ));
            }
            if parsed.len() > (1 << 12) {
                return Err(schema_err(
                    "machine.memory.stacks",
                    format!("must be between 1 and {}", 1 << 12),
                ));
            }
            let stacks = parsed.len() as u16;
            let total_mcs = parsed[0].0.checked_mul(stacks).ok_or_else(|| {
                schema_err(
                    "machine.memory.stacks",
                    "stack list multiplies out of range",
                )
            })?;
            let total_ranks = parsed[0].1.checked_mul(stacks).ok_or_else(|| {
                schema_err(
                    "machine.memory.stacks",
                    "stack list multiplies out of range",
                )
            })?;
            Ok((stacks, total_mcs, total_ranks))
        }
        Some(_) => Err(schema_err(
            "machine.memory.stacks",
            "expected a stack count or an array of {mcs, ranks} groups",
        )),
    }
}

fn parse_memory(m: &[(String, Json)]) -> Result<MemorySystemConfig, ScenarioError> {
    check_keys(m, "machine.memory", "machine.memory")?;
    let (stacks, mcs, ranks) = parse_stacks(m)?;
    Ok(MemorySystemConfig {
        kind: match get(m, "kind") {
            None => MemoryKind::OffChip2D,
            Some(v) => {
                let s = str_val(v, "machine.memory.kind")?;
                MemoryKind::from_name(s).ok_or_else(|| {
                    schema_err(
                        "machine.memory.kind",
                        format!(
                            "unknown name \"{s}\" (expected one of: off-chip-2d, stacked-3d, \
                             true-3d-split)"
                        ),
                    )
                })?
            }
        },
        total_bytes: match get(m, "total_bytes") {
            None => 8 << 30,
            Some(v) => uint(v, "machine.memory.total_bytes", 1 << 20, 1 << 50)?,
        },
        ranks,
        banks_per_rank: match get(m, "banks_per_rank") {
            None => 8,
            Some(v) => uint(v, "machine.memory.banks_per_rank", 1, 1 << 12)? as u16,
        },
        mcs,
        stacks,
        row_buffer_entries: match get(m, "row_buffer_entries") {
            None => 1,
            Some(v) => uint(v, "machine.memory.row_buffer_entries", 1, 1024)? as usize,
        },
        timing: match get(m, "timing") {
            None => DramTiming::COMMODITY_2D,
            Some(v) => parse_timing(v)?,
        },
        refresh: match get(m, "refresh_ms") {
            None => RefreshConfig::OFF_CHIP,
            Some(Json::Null) => RefreshConfig::DISABLED,
            Some(v) => RefreshConfig {
                period_ms: Some(pos_num(v, "machine.memory.refresh_ms")?),
            },
        },
        smart_refresh: match get(m, "smart_refresh") {
            None => false,
            Some(v) => bool_val(v, "machine.memory.smart_refresh")?,
        },
        page_policy: match get(m, "page_policy") {
            None => stacksim_dram::PagePolicy::Open,
            Some(v) => {
                let s = str_val(v, "machine.memory.page_policy")?;
                stacksim_dram::PagePolicy::from_name(s).ok_or_else(|| {
                    schema_err(
                        "machine.memory.page_policy",
                        format!("unknown name \"{s}\" (expected one of: open, closed)"),
                    )
                })?
            }
        },
        bus_width_bytes: match get(m, "bus_width_bytes") {
            None => 8,
            Some(v) => uint(v, "machine.memory.bus_width_bytes", 1, 1 << 16)? as u32,
        },
        bus_clock_divisor: match get(m, "bus_clock_divisor") {
            None => 2,
            Some(v) => uint(v, "machine.memory.bus_clock_divisor", 1, 1 << 20)?,
        },
        mc_clock_divisor: match get(m, "mc_clock_divisor") {
            None => 4,
            Some(v) => uint(v, "machine.memory.mc_clock_divisor", 1, 1 << 20)?,
        },
        path_latency: match get(m, "path_latency") {
            // 40 cycles = the 12 ns package/PCB path at 3.333 GHz.
            None => Cycles::new(40),
            Some(v) => Cycles::new(uint(v, "machine.memory.path_latency", 0, 1 << 30)?),
        },
        critical_word_first: match get(m, "critical_word_first") {
            None => true,
            Some(v) => bool_val(v, "machine.memory.critical_word_first")?,
        },
        mrq_total: match get(m, "mrq_total") {
            None => 32,
            Some(v) => uint(v, "machine.memory.mrq_total", 1, 1 << 20)? as usize,
        },
        policy: match get(m, "scheduler") {
            None => SchedulerPolicy::FrFcfs,
            Some(v) => {
                let s = str_val(v, "machine.memory.scheduler")?;
                SchedulerPolicy::from_name(s).ok_or_else(|| {
                    schema_err(
                        "machine.memory.scheduler",
                        format!("unknown name \"{s}\" (expected one of: fifo, fr-fcfs)"),
                    )
                })?
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn scenario(machine: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_str(&format!(
            r#"{{"schema": "stacksim-scenario/1", "name": "t", "machine": {machine}}}"#
        ))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv1a::new();
            h.write(input);
            assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn empty_machine_is_the_2d_baseline() {
        assert_eq!(scenario("{}").unwrap().config, configs::cfg_2d());
    }

    #[test]
    fn unknown_keys_rejected_with_path() {
        let err = scenario(r#"{"l2": {"frobnicate": 1}}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"machine.l2.frobnicate\": unknown key"
        );
        let err = scenario(r#"{"coars": 8}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"machine.coars\": unknown key"
        );
    }

    #[test]
    fn out_of_range_rejected_with_bounds() {
        let err = scenario(r#"{"cores": 0}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"machine.cores\": must be between 1 and 1024"
        );
        let err = scenario(r#"{"cores": 2.5}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"machine.cores\": expected a non-negative integer"
        );
    }

    #[test]
    fn schema_and_name_required() {
        let err = Scenario::from_str(r#"{"name": "x"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"schema\": required key is missing"
        );
        let err =
            Scenario::from_str(r#"{"schema": "stacksim-scenario/2", "name": "x"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"schema\": expected \"stacksim-scenario/1\""
        );
        let err = Scenario::from_str(r#"{"schema": "stacksim-scenario/1"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"name\": required key is missing"
        );
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = scenario(r#"{"cores": 4, "cores": 8}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"machine.cores\": duplicate key"
        );
    }

    #[test]
    fn per_core_heterogeneity_parses() {
        let s = scenario(
            r#"{"cores": 2, "per_core": [
                {"nextline_degree": 2},
                {"stride_entries": 0}
            ]}"#,
        )
        .unwrap();
        assert_eq!(s.config.per_core.len(), 2);
        assert_eq!(s.config.per_core[0].nextline_degree, 2);
        assert_eq!(s.config.per_core[1].stride_entries, 0);
        assert_eq!(s.config.core_for(1).stride_entries, 0);
    }

    #[test]
    fn per_core_length_mismatch_rejected_by_validation() {
        let err = scenario(r#"{"cores": 4, "per_core": [{}]}"#).unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "scenario machine is inconsistent: invalid configuration: \
             1 per-core configs for 4 cores"
        );
    }

    #[test]
    fn stack_groups_define_totals() {
        let s = scenario(
            r#"{"l2": {"interleave": "page"},
                "memory": {"stacks": [{"mcs": 2, "ranks": 8}, {"mcs": 2, "ranks": 8}]}}"#,
        )
        .unwrap();
        assert_eq!(s.config.memory.stacks, 2);
        assert_eq!(s.config.memory.mcs, 4);
        assert_eq!(s.config.memory.ranks, 16);
    }

    #[test]
    fn stack_groups_conflict_with_scalar_mcs() {
        let err =
            scenario(r#"{"memory": {"mcs": 4, "stacks": [{"mcs": 2, "ranks": 8}]}}"#).unwrap_err();
        assert!(
            err.to_string()
                .starts_with("scenario key \"machine.memory.mcs\": conflicts"),
            "{err}"
        );
    }

    #[test]
    fn nonuniform_stack_groups_rejected() {
        let err =
            scenario(r#"{"memory": {"stacks": [{"mcs": 2, "ranks": 8}, {"mcs": 1, "ranks": 8}]}}"#)
                .unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario key \"machine.memory.stacks\": stack groups must be uniform \
             (all stacks share one timing model)"
        );
    }

    #[test]
    fn hash_is_stable_across_key_reordering() {
        let a = Scenario::from_str(
            r#"{"schema": "stacksim-scenario/1", "name": "a",
                "machine": {"cores": 8, "memory": {"mcs": 2, "kind": "stacked-3d"}}}"#,
        )
        .unwrap();
        let b = Scenario::from_str(
            r#"{"name": "b-different-name", "schema": "stacksim-scenario/1",
                "machine": {"memory": {"kind": "stacked-3d", "mcs": 2}, "cores": 8}}"#,
        )
        .unwrap();
        assert_eq!(a.hash(), b.hash());
        assert_ne!(
            a.hash(),
            Scenario::from_str(
                r#"{"schema": "stacksim-scenario/1", "name": "a", "machine": {"cores": 8}}"#,
            )
            .unwrap()
            .hash()
        );
    }

    #[test]
    fn hash_matches_constructor_twin() {
        let s = scenario(r#"{}"#).unwrap();
        assert_eq!(s.hash(), ScenarioHash::of(&configs::cfg_2d()));
        assert_ne!(s.hash(), ScenarioHash::of(&configs::cfg_3d()));
    }

    #[test]
    fn accepted_keys_cover_the_parser() {
        // Setting every leaf key must parse (spot the table drifting from
        // the parser in the accept direction).
        let s = scenario(
            r#"{
                "cores": 8,
                "core_hz": 3.333e9,
                "core": {
                    "issue_width": 4, "commit_width": 4, "window": 96,
                    "l1_mshrs": 8, "nextline_degree": 1, "stride_entries": 64,
                    "dl1": {"size_bytes": 24576, "associativity": 12},
                    "branch": "tage-4kb"
                },
                "per_core": [{}, {}, {}, {}, {}, {}, {}, {}],
                "l2": {
                    "size_bytes": 12582912, "associativity": 24, "banks": 16,
                    "latency": 9, "interleave": "page", "prefetch": true
                },
                "mshr": {
                    "kind": "vbf", "total_entries": 16,
                    "dynamic": {"sample_cycles": 50000, "apply_cycles": 2000000,
                                "divisors": [1, 2, 4]}
                },
                "vm": {"entries": 64, "associativity": 4, "walk_latency": 30},
                "interconnect": {"hop_latency": 2},
                "memory": {
                    "kind": "true-3d-split", "total_bytes": 8589934592,
                    "banks_per_rank": 8,
                    "stacks": [{"mcs": 2, "ranks": 8}, {"mcs": 2, "ranks": 8}],
                    "row_buffer_entries": 4,
                    "timing": {"t_ras_ns": 24.3, "t_rcd_ns": 8.1, "t_cas_ns": 8.1,
                               "t_wr_ns": 8.1, "t_rp_ns": 8.1, "t_ccd_ns": 2.025},
                    "refresh_ms": 32.0, "smart_refresh": true, "page_policy": "open",
                    "bus_width_bytes": 64, "bus_clock_divisor": 1,
                    "mc_clock_divisor": 1, "path_latency": 0,
                    "critical_word_first": true, "mrq_total": 32,
                    "scheduler": "fr-fcfs"
                }
            }"#,
        )
        .unwrap();
        assert_eq!(s.config.cores, 8);
        assert_eq!(s.config.memory.stacks, 2);
        assert_eq!(s.config.interconnect.hop_latency, Cycles::new(2));
    }

    #[test]
    fn vm_null_disables_translation() {
        let s = scenario(r#"{"vm": null}"#).unwrap();
        assert!(s.config.vm.is_none());
    }

    #[test]
    fn refresh_null_disables_refresh() {
        let s = scenario(r#"{"memory": {"refresh_ms": null}}"#).unwrap();
        assert_eq!(s.config.memory.refresh, RefreshConfig::DISABLED);
    }

    #[test]
    fn from_path_reports_missing_file() {
        let err = Scenario::from_path(Path::new("/nonexistent/x.json")).unwrap_err();
        assert!(matches!(err, ScenarioError::Io { .. }));
    }
}
