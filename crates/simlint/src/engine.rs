//! The workspace scanner: file walking, rule dispatch, call-graph
//! construction, pragma suppression, and report assembly.
//!
//! The scan runs in phases: (1) every `crates/*/src/**/*.rs` file is
//! lexed and the per-file rules (D/P/N, M001, X001) produce *raw*
//! findings; (2) a workspace call graph is built over all files and the
//! H/R rules add theirs; (3) pragma suppression runs centrally over the
//! combined set, which also lets X002 flag pragmas that no longer
//! suppress anything.

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::docs::MetricDocs;
use crate::rules::{self, Finding, Registration, KERNEL_CRATES};
use crate::scenario_docs;
use crate::source::SourceFile;
use crate::wsrules::{self, PanicApi};

/// Call-graph coverage numbers.
#[derive(Clone, Debug, Default)]
pub struct GraphSummary {
    /// Indexed function definitions.
    pub nodes: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Files that contributed at least one definition.
    pub files_with_symbols: usize,
    /// Qualified names of the hot-path roots found in this workspace.
    pub roots: Vec<String>,
}

/// Result of a workspace scan.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of Rust files scanned.
    pub files_scanned: usize,
    /// Call-graph coverage.
    pub graph: GraphSummary,
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by in-source pragmas.
    pub suppressed_by_pragma: usize,
    /// The computed panic inventory (`docs/PANICS.md`'s table rows).
    pub panic_inventory: Vec<PanicApi>,
}

impl Report {
    /// Renders findings in `file:line:rule-id: message` form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "simlint: {} file(s) scanned, call graph {} node(s) / {} edge(s), {} finding(s), {} suppressed by pragma\n",
            self.files_scanned,
            self.graph.nodes,
            self.graph.edges,
            self.findings.len(),
            self.suppressed_by_pragma,
        ));
        out
    }
}

/// Locates the workspace root by walking up from `start` until a
/// `Cargo.toml` containing `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Scans the workspace under `root` and returns the report.
///
/// Walks `crates/*/src/**/*.rs` in sorted order (so output is
/// deterministic across platforms), applies the D/P/N rules to kernel
/// crates, builds the call graph over every file and runs the H/R
/// workspace rules, cross-checks metric registrations against
/// `docs/METRICS.md` and the panic inventory against `docs/PANICS.md`,
/// then filters findings through in-source pragmas (flagging stale ones
/// as X002).
///
/// # Errors
///
/// Returns a message when the root has no `crates/` directory or a file
/// cannot be read.
pub fn scan(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("no crates/ directory under {}", root.display()));
    }
    let docs_path = root.join("docs/METRICS.md");
    let docs = match fs::read_to_string(&docs_path) {
        Ok(text) => Some(MetricDocs::parse(&text)),
        Err(_) => None,
    };

    // Phase 1: parse every file and run the per-file rules, keeping the
    // findings raw (unsuppressed) and the parsed files for the graph.
    let mut raw: Vec<Finding> = Vec::new();
    let mut files: Vec<(String, SourceFile)> = Vec::new();
    let mut regs: Vec<Registration> = Vec::new();

    for crate_dir in sorted_dirs(&crates_dir)? {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let kernel = KERNEL_CRATES.contains(&crate_name.as_str());
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for path in rust_files(&src)? {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let file = SourceFile::parse(&rel, &text);
            raw.extend(rules::check_file(&file, kernel, &mut regs));
            files.push((crate_name.clone(), file));
        }
    }
    let files_scanned = files.len();

    // Rule M001: registered metrics must be documented.
    if let Some(docs) = &docs {
        for r in &regs {
            if !docs.documents(&r.name) {
                raw.push(Finding::new(
                    &r.file,
                    r.line,
                    "M001",
                    format!(
                        "metric `{}` is registered here but not documented in docs/METRICS.md",
                        r.name
                    ),
                ));
            }
        }
    }

    // Phase 2: the call graph and the workspace rules.
    let file_refs: Vec<(String, &SourceFile)> = files.iter().map(|(k, f)| (k.clone(), f)).collect();
    let graph = CallGraph::build(&file_refs);
    let roots = wsrules::check_hot_paths(&graph, &mut raw);
    let panic_inventory = wsrules::panic_inventory(&graph);
    // Like the M rules without `docs/METRICS.md`, the R rules are skipped
    // in a workspace that commits no panic inventory.
    if let Ok(doc) = fs::read_to_string(root.join(wsrules::PANIC_DOCS)) {
        wsrules::check_panic_docs(&doc, &panic_inventory, &mut raw);
    }

    // Rule M002: documented inventory entries must exist in code.
    if let Some(docs) = &docs {
        let doc_rel = docs_path
            .strip_prefix(root)
            .unwrap_or(&docs_path)
            .to_string_lossy()
            .replace('\\', "/");
        for entry in &docs.inventory {
            let l = rules::leaf(&entry.name);
            if !regs.iter().any(|r| rules::leaf(&r.name) == l) {
                raw.push(Finding::new(
                    &doc_rel,
                    entry.line,
                    "M002",
                    format!(
                        "metric `{}` is documented in the inventory but never registered in code",
                        entry.name
                    ),
                ));
            }
        }
    }

    // Rules S001/S002: the scenario-schema reference must match the
    // parser's ACCEPTED_KEYS table in both directions.
    check_scenario_docs(root, &mut raw);

    // Phase 3: central pragma suppression, then X002 for pragmas that
    // suppressed nothing.
    let mut suppressed_by_pragma = 0usize;
    let mut findings: Vec<Finding> = Vec::new();
    for f in &raw {
        let suppressed = f.rule != "X001"
            && files
                .iter()
                .find(|(_, sf)| sf.path == f.file)
                .is_some_and(|(_, sf)| sf.pragma_for(f.line, &f.rule).is_some());
        if suppressed {
            suppressed_by_pragma += 1;
        } else {
            findings.push(f.clone());
        }
    }
    for (_, sf) in &files {
        for p in &sf.pragmas {
            // Malformed pragmas are X001's job; X002 pragmas never go
            // stale themselves (they'd recurse).
            if p.reason.is_empty() || p.rule == "X002" {
                continue;
            }
            let used = raw
                .iter()
                .any(|f| f.rule == p.rule && f.file == sf.path && f.line == p.target_line);
            if used {
                continue;
            }
            // An X002 pragma on the stale pragma's own line (trailing
            // form) or targeting the same code line (standalone form)
            // acknowledges the stale pragma deliberately.
            let acknowledged = sf.pragmas.iter().any(|q| {
                q.rule == "X002"
                    && !q.reason.is_empty()
                    && (q.line == p.line || q.target_line == p.target_line)
            });
            if acknowledged {
                suppressed_by_pragma += 1;
                continue;
            }
            findings.push(Finding::new(
                &sf.path,
                p.line,
                "X002",
                format!(
                    "simlint::allow({}) pragma suppresses nothing: {} does not fire on its target line — remove the stale pragma",
                    p.rule, p.rule
                ),
            ));
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });

    Ok(Report {
        files_scanned,
        graph: GraphSummary {
            nodes: graph.fns.len(),
            edges: graph.edge_count(),
            files_with_symbols: graph.files_with_symbols,
            roots,
        },
        findings,
        suppressed_by_pragma,
        panic_inventory,
    })
}

/// Rules S001/S002: cross-checks `docs/SCENARIOS.md` against the scenario
/// parser's `ACCEPTED_KEYS`. Skipped silently when the workspace has no
/// scenario parser (non-stacksim trees); a parser without the document is
/// one S001 finding per accepted key.
fn check_scenario_docs(root: &Path, findings: &mut Vec<Finding>) {
    let parser_rel = "crates/core/src/scenario.rs";
    let Ok(source) = fs::read_to_string(root.join(parser_rel)) else {
        return;
    };
    let accepted = scenario_docs::parser_keys(&source);
    if accepted.is_empty() {
        return;
    }
    let doc_rel = "docs/SCENARIOS.md";
    let documented = match fs::read_to_string(root.join(doc_rel)) {
        Ok(text) => scenario_docs::documented_keys(&text),
        Err(_) => Vec::new(),
    };
    for key in &accepted {
        if !documented.iter().any(|d| d.key == key.key) {
            findings.push(Finding::new(
                parser_rel,
                key.line,
                "S001",
                format!(
                    "scenario key `{}` is accepted by the parser but has no table row in {doc_rel}",
                    key.key
                ),
            ));
        }
    }
    for key in &documented {
        if !accepted.iter().any(|a| a.key == key.key) {
            findings.push(Finding::new(
                doc_rel,
                key.line,
                "S002",
                format!(
                    "scenario key `{}` is documented but not in the parser's ACCEPTED_KEYS",
                    key.key
                ),
            ));
        }
    }
}

/// Immediate subdirectories of `dir`, sorted by name.
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        if entry.path().is_dir() {
            dirs.push(entry.path());
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    collect_rust_files(dir, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
