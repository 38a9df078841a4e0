//! `simlint` — project-specific static analysis for the stacksim
//! workspace.
//!
//! Every result this reproduction reports rests on bit-identical
//! determinism: the parallel runner's memo cache, the fast-forward engine
//! and the simcheck oracles all compare runs byte-for-byte. A single
//! `HashMap` iteration feeding a metric, a stray wall-clock read, or a
//! narrowed cycle counter silently invalidates that guarantee — and none
//! of those are expressible as `clippy` lints. `simlint` checks them
//! statically on every commit.
//!
//! The tool is self-contained: a lightweight Rust [`lexer`], a per-file
//! rule engine ([`rules`]), a workspace symbol index and conservative
//! call graph ([`callgraph`]) feeding the hot-path-purity and
//! panic-reachability rules ([`wsrules`]), a `docs/METRICS.md`
//! cross-check ([`docs`]) and in-source pragmas ([`source`]), assembled
//! by [`engine::scan`]. Rule ids, rationale and the pragma syntax are
//! documented in `docs/LINTS.md`.
//!
//! # Examples
//!
//! ```
//! use stacksim_simlint::rules::check_file;
//! use stacksim_simlint::source::SourceFile;
//!
//! let file = SourceFile::parse(
//!     "crates/core/src/x.rs",
//!     "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
//! );
//! let mut regs = Vec::new();
//! let findings = check_file(&file, true, &mut regs);
//! assert_eq!(findings[0].rule, "P001");
//! ```

pub mod callgraph;
pub mod docs;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod scenario_docs;
pub mod source;
pub mod wsrules;

pub use engine::{find_workspace_root, scan, GraphSummary, Report};
pub use rules::{Finding, KERNEL_CRATES, RULES};
