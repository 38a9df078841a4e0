//! Workspace rules: lock discipline (L), hot-path purity (H) and panic
//! reachability (R), evaluated over the [`crate::callgraph`] view.
//!
//! Unlike the per-file D/P/N families, every rule here asks a question
//! about *reachability*: what can happen while a guard is held, what
//! runs inside the tick loop's closure, which public APIs can reach a
//! panic site. All three inherit the call graph's conservatism — see
//! the table of known over-approximations in `docs/LINTS.md`.

use crate::callgraph::{CallGraph, LockHold};
use crate::rules::{Finding, KERNEL_CRATES};
use crate::source::SourceFile;

/// Hot-path roots: the entry points whose transitive closure must stay
/// allocation-free (`(impl type, method)`); the set mirrors DESIGN.md §7.
/// Roots absent from a workspace (e.g. the test fixtures) are skipped.
pub const HOT_ROOTS: &[(&str, &str)] = &[
    ("System", "tick"),
    ("System", "tick_memory"),
    ("System", "mc_slice"),
    ("System", "fast_forward_to"),
    ("Core", "cycle"),
    ("MemoryController", "tick"),
];

/// One panic-inventory row: a public API that can transitively panic.
#[derive(Clone, Debug)]
pub struct PanicApi {
    /// Qualified name, `crate::Type::fn` or `crate::fn`.
    pub name: String,
    /// What makes it panic: a direct site kind or `via \`callee\``.
    pub via: String,
    /// Defining file (workspace-relative).
    pub file: String,
    /// Definition line.
    pub line: u32,
}

/// Computes the public panic inventory: every `pub fn` outside `src/bin/`
/// that has, or can reach, a P001–P004-shaped panic site. Sorted and
/// deduplicated by qualified name so the generated table is stable.
pub fn panic_inventory(graph: &CallGraph) -> Vec<PanicApi> {
    let can = graph.can_panic();
    let mut rows: Vec<PanicApi> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if !f.is_pub || !can[i] || f.file.contains("/bin/") {
            continue;
        }
        rows.push(PanicApi {
            name: f.qualified(),
            via: graph.panic_via(i, &can),
            file: f.file.clone(),
            line: f.line,
        });
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name).then(a.line.cmp(&b.line)));
    rows.dedup_by(|a, b| a.name == b.name);
    rows
}

/// The names documented in a `docs/PANICS.md` table: the first
/// back-ticked token of each `|`-delimited row, with its line.
pub fn documented_panic_apis(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let Some(start) = trimmed.find('`') else {
            continue;
        };
        let rest = &trimmed[start + 1..];
        let Some(end) = rest.find('`') else { continue };
        let name = &rest[..end];
        if name.contains("::") {
            out.push((name.to_string(), idx as u32 + 1));
        }
    }
    out
}

/// Renders the inventory as the `docs/PANICS.md` table body (the
/// `--panic-inventory` CLI output), ready to paste under the header.
pub fn inventory_markdown(rows: &[PanicApi]) -> String {
    let mut out = String::from("| API | panics via |\n|---|---|\n");
    for r in rows {
        out.push_str(&format!("| `{}` | {} |\n", r.name, r.via));
    }
    out
}

/// Context handed to the workspace rules by the engine.
pub struct WsContext<'a> {
    /// The call graph over every scanned file.
    pub graph: &'a CallGraph,
    /// `(crate name, parsed file)` for snippet lookup.
    pub files: &'a [(String, SourceFile)],
    /// `docs/PANICS.md` content, if the workspace commits one; `None`
    /// skips the R rules (mirrors the M-rule behavior without
    /// `docs/METRICS.md`).
    pub panic_docs: Option<&'a str>,
    /// Workspace-relative path of the panic doc (for R002 findings).
    pub panic_docs_path: &'a str,
}

/// Runs L, H and R, appending raw (pre-suppression) findings.
/// Returns the qualified names of the hot roots found in this workspace
/// (the JSON report's `roots` array).
pub fn check_workspace(ctx: &WsContext<'_>, findings: &mut Vec<Finding>) -> Vec<String> {
    check_locks(ctx, findings);
    let roots = check_hot_paths(ctx, findings);
    check_panic_docs(ctx, findings);
    roots
}

fn snippet(ctx: &WsContext<'_>, file: &str, line: u32) -> String {
    ctx.files
        .iter()
        .find(|(_, f)| f.path == file)
        .map(|(_, f)| f.line_text(line).to_string())
        .unwrap_or_default()
}

fn finding(ctx: &WsContext<'_>, file: &str, line: u32, rule: &str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: rule.to_string(),
        message,
        snippet: snippet(ctx, file, line),
    }
}

/// Everything one guard-held region can do, after chasing calls through
/// the graph: the locks it can acquire and the I/O it can reach.
struct HoldEffects {
    /// `(lock, how)` — `how` describes the acquisition site.
    locks: Vec<(String, String)>,
    /// Human description of the first reachable I/O, if any.
    io: Option<String>,
}

/// Chases a hold's in-region calls through the graph and accumulates
/// reachable lock acquisitions and I/O sites.
fn hold_effects(graph: &CallGraph, owner_idx: usize, hold: &LockHold) -> HoldEffects {
    let facts = &graph.fns[owner_idx].facts;
    let mut locks: Vec<(String, String)> = Vec::new();
    let mut io: Option<String> = None;
    // Direct effects inside the region.
    for &l in &hold.locks {
        let site = &facts.locks[l];
        locks.push((site.lock.clone(), format!("acquired on line {}", site.line)));
    }
    if let Some(&i) = hold.io.first() {
        io = Some(format!("`{}` on line {}", facts.io[i].0, facts.io[i].1));
    }
    // Transitive effects through every call made while the guard is held.
    let mut targets: Vec<usize> = Vec::new();
    for &c in &hold.calls {
        targets.extend(graph.resolve_call(owner_idx, &facts.calls[c]));
    }
    targets.sort_unstable();
    targets.dedup();
    let reach = graph.reachable(&targets);
    for (j, seen) in reach.iter().enumerate() {
        if !seen {
            continue;
        }
        let callee = &graph.fns[j];
        for site in &callee.facts.locks {
            locks.push((
                site.lock.clone(),
                format!("acquired in `{}`", callee.qualified()),
            ));
        }
        if io.is_none() {
            if let Some((what, _)) = callee.facts.io.first() {
                io = Some(format!("`{}` in `{}`", what, callee.qualified()));
            }
        }
    }
    HoldEffects { locks, io }
}

/// L001/L002/L003 over every guard-held region in the workspace.
fn check_locks(ctx: &WsContext<'_>, findings: &mut Vec<Finding>) {
    let graph = ctx.graph;
    // First pass: collect every ordered pair (held → acquired) with its
    // site, so inconsistency is judged against the whole workspace.
    struct PairSite {
        held: String,
        acquired: String,
        file: String,
        line: u32,
    }
    let mut pairs: Vec<PairSite> = Vec::new();
    // (fn idx, hold) worklist reused by all three rules.
    let mut holds: Vec<(usize, &LockHold, HoldEffects)> = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        for hold in &f.facts.holds {
            let effects = hold_effects(graph, i, hold);
            for (acquired, _) in &effects.locks {
                pairs.push(PairSite {
                    held: hold.lock.clone(),
                    acquired: acquired.clone(),
                    file: f.file.clone(),
                    line: hold.line,
                });
            }
            holds.push((i, hold, effects));
        }
    }

    for (i, hold, effects) in &holds {
        let f = &graph.fns[*i];
        // L003: re-acquisition of the held lock on one call path.
        if let Some((_, how)) = effects.locks.iter().find(|(l, _)| *l == hold.lock) {
            findings.push(finding(
                ctx,
                &f.file,
                hold.line,
                "L003",
                format!(
                    "guard on `{}` still held here while the same lock is {} — self-deadlock on one call path",
                    hold.lock, how
                ),
            ));
        }
        // L001: the pairwise order held→acquired is reversed elsewhere.
        let mut reported: Vec<&str> = Vec::new();
        for (acquired, how) in &effects.locks {
            if *acquired == hold.lock || reported.contains(&acquired.as_str()) {
                continue;
            }
            if let Some(rev) = pairs
                .iter()
                .find(|p| p.held == *acquired && p.acquired == hold.lock)
            {
                reported.push(acquired.as_str());
                findings.push(finding(
                    ctx,
                    &f.file,
                    hold.line,
                    "L001",
                    format!(
                        "lock order `{}` → `{}` here ({how}) conflicts with `{}` → `{}` at {}:{} — deadlock cycle",
                        hold.lock, acquired, rev.held, rev.acquired, rev.file, rev.line
                    ),
                ));
            }
        }
        // L002: file/network I/O while the guard is held.
        if let Some(io) = &effects.io {
            findings.push(finding(
                ctx,
                &f.file,
                hold.line,
                "L002",
                format!(
                    "guard on `{}` held across I/O: {io}; release the lock before blocking",
                    hold.lock
                ),
            ));
        }
    }
}

/// H001/H002 over the closure reachable from [`HOT_ROOTS`]; findings are
/// restricted to kernel-crate files (the conservative graph reaches
/// tooling code whose allocations are fine).
fn check_hot_paths(ctx: &WsContext<'_>, findings: &mut Vec<Finding>) -> Vec<String> {
    let graph = ctx.graph;
    let mut root_ids: Vec<usize> = Vec::new();
    let mut root_names: Vec<String> = Vec::new();
    for (owner, name) in HOT_ROOTS {
        for id in graph.find(Some(owner), name) {
            root_names.push(graph.fns[id].qualified());
            root_ids.push(id);
        }
    }
    root_names.sort();
    root_names.dedup();
    let reach = graph.reachable(&root_ids);
    for (i, seen) in reach.iter().enumerate() {
        if !seen {
            continue;
        }
        let f = &graph.fns[i];
        if !KERNEL_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        for (what, line) in &f.facts.allocs {
            findings.push(finding(
                ctx,
                &f.file,
                *line,
                "H001",
                format!(
                    "heap allocation (`{what}`) in `{}`, reachable from a tick-loop root",
                    f.qualified()
                ),
            ));
        }
        for line in &f.facts.clones {
            findings.push(finding(
                ctx,
                &f.file,
                *line,
                "H002",
                format!(
                    "`.clone()` in `{}`, reachable from a tick-loop root",
                    f.qualified()
                ),
            ));
        }
    }
    root_names
}

/// R001/R002: the committed panic inventory must match the computed one
/// in both directions. Skipped when the workspace has no `docs/PANICS.md`.
fn check_panic_docs(ctx: &WsContext<'_>, findings: &mut Vec<Finding>) {
    let Some(doc) = ctx.panic_docs else {
        return;
    };
    let inventory = panic_inventory(ctx.graph);
    let documented = documented_panic_apis(doc);
    for api in &inventory {
        if !documented.iter().any(|(name, _)| name == &api.name) {
            findings.push(finding(
                ctx,
                &api.file,
                api.line,
                "R001",
                format!(
                    "public API `{}` can transitively panic ({}) but is not documented in {}",
                    api.name, api.via, ctx.panic_docs_path
                ),
            ));
        }
    }
    for (name, line) in &documented {
        if !inventory.iter().any(|api| &api.name == name) {
            findings.push(Finding {
                file: ctx.panic_docs_path.to_string(),
                line: *line,
                rule: "R002".to_string(),
                message: format!(
                    "`{name}` is documented as panicking but the analyzer no longer finds a panic path — stale row"
                ),
                snippet: name.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn ctx_files(srcs: &[(&str, &str, &str)]) -> Vec<(String, SourceFile)> {
        srcs.iter()
            .map(|(krate, path, src)| (krate.to_string(), SourceFile::parse(path, src)))
            .collect()
    }

    fn run(
        files: &[(String, SourceFile)],
        panic_docs: Option<&str>,
    ) -> (Vec<Finding>, Vec<String>) {
        let refs: Vec<(String, &SourceFile)> = files.iter().map(|(k, f)| (k.clone(), f)).collect();
        let graph = CallGraph::build(&refs);
        let ctx = WsContext {
            graph: &graph,
            files,
            panic_docs,
            panic_docs_path: "docs/PANICS.md",
        };
        let mut findings = Vec::new();
        let roots = check_workspace(&ctx, &mut findings);
        (findings, roots)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn l001_fires_on_reversed_order_only() {
        let files = ctx_files(&[(
            "core",
            "crates/core/src/runner.rs",
            "fn ab() { let a = A.lock(); let b = B.lock(); }\n\
             fn ba() { let b = B.lock(); let a = A.lock(); }\n\
             fn consistent() { let a = A.lock(); let c = C.lock(); }\n",
        )]);
        let (findings, _) = run(&files, None);
        let l001: Vec<&Finding> = findings.iter().filter(|f| f.rule == "L001").collect();
        assert_eq!(l001.len(), 2, "one per conflicting site: {findings:?}");
        assert!(l001.iter().all(|f| f.line <= 2));
    }

    #[test]
    fn l002_fires_on_transitive_io() {
        let files = ctx_files(&[(
            "core",
            "crates/core/src/runner.rs",
            "fn f() { let g = M.lock(); helper(); }\n\
             fn helper() { deeper(); }\n\
             fn deeper() { fs::write(\"p\", \"x\"); }\n",
        )]);
        let (findings, _) = run(&files, None);
        assert!(rules_of(&findings).contains(&"L002"), "{findings:?}");
    }

    #[test]
    fn l003_fires_on_reachable_reacquisition() {
        let files = ctx_files(&[(
            "core",
            "crates/core/src/runner.rs",
            "fn f() { let g = M.lock(); helper(); }\nfn helper() { let h = M.lock(); }\n",
        )]);
        let (findings, _) = run(&files, None);
        assert!(rules_of(&findings).contains(&"L003"), "{findings:?}");
    }

    #[test]
    fn drop_before_io_is_clean() {
        let files = ctx_files(&[(
            "core",
            "crates/core/src/runner.rs",
            "fn f() { let g = M.lock(); drop(g); fs::write(\"p\", \"x\"); }\n",
        )]);
        let (findings, _) = run(&files, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn h_rules_fire_only_inside_hot_closure() {
        let files = ctx_files(&[(
            "core",
            "crates/core/src/system.rs",
            "impl System { pub fn tick(&mut self) { self.step(); } \
             fn step(&mut self) { let v = Vec::new(); let w = x.clone(); } \
             fn cold(&mut self) { let v = Vec::new(); } }\n\
             pub fn new_table() -> Vec<u32> { Vec::new() }\n",
        )]);
        let (findings, roots) = run(&files, None);
        assert_eq!(roots, vec!["core::System::tick".to_string()]);
        let rules = rules_of(&findings);
        assert_eq!(
            rules.iter().filter(|r| **r == "H001").count(),
            1,
            "cold() and new_table() are unreachable from tick: {findings:?}"
        );
        assert!(rules.contains(&"H002"));
    }

    #[test]
    fn h001_reports_an_allocating_constructor_called_from_tick() {
        let files = ctx_files(&[(
            "mshr",
            "crates/mshr/src/entry.rs",
            "pub struct Entry { targets: Vec<u64> }
             impl Entry { pub fn new(first: u64) -> Entry { Entry { targets: vec![first] } } }
             impl System { pub fn tick(&mut self) { let e = Entry::new(1); } }
",
        )]);
        let (findings, _) = run(&files, None);
        let h001: Vec<&Finding> = findings.iter().filter(|f| f.rule == "H001").collect();
        assert_eq!(h001.len(), 1, "{findings:?}");
        assert_eq!(h001[0].line, 2);
        assert!(
            h001[0].message.contains("Entry::new"),
            "{}",
            h001[0].message
        );
    }

    #[test]
    fn r_rules_cross_check_both_directions() {
        let files = ctx_files(&[(
            "util",
            "crates/util/src/lib.rs",
            "pub fn documented() { x.unwrap(); }\npub fn undocumented() { y.unwrap(); }\n",
        )]);
        let doc = "| API | panics via |\n|---|---|\n| `util::documented` | unwrap |\n| `util::ghost` | unwrap |\n";
        let (findings, _) = run(&files, Some(doc));
        let rules = rules_of(&findings);
        assert_eq!(rules.iter().filter(|r| **r == "R001").count(), 1);
        assert_eq!(rules.iter().filter(|r| **r == "R002").count(), 1);
        let r001 = findings.iter().find(|f| f.rule == "R001").unwrap();
        assert!(r001.message.contains("undocumented"));
    }

    #[test]
    fn r_rules_skip_without_doc() {
        let files = ctx_files(&[(
            "util",
            "crates/util/src/lib.rs",
            "pub fn p() { x.unwrap(); }\n",
        )]);
        let (findings, _) = run(&files, None);
        assert!(findings.is_empty());
    }

    #[test]
    fn inventory_is_sorted_and_rendered() {
        let files = ctx_files(&[(
            "util",
            "crates/util/src/lib.rs",
            "pub fn b() { x.unwrap(); }\npub fn a() { b(); }\nfn private() { x.unwrap(); }\n",
        )]);
        let refs: Vec<(String, &SourceFile)> = files.iter().map(|(k, f)| (k.clone(), f)).collect();
        let graph = CallGraph::build(&refs);
        let rows = panic_inventory(&graph);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["util::a", "util::b"], "pub only, sorted");
        let md = inventory_markdown(&rows);
        assert!(md.contains("| `util::a` | via `util::b` |"));
        assert!(md.contains("| `util::b` | unwrap |"));
    }
}
