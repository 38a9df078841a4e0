//! Workspace rules: hot-path purity (H) and panic reachability (R),
//! evaluated over the [`crate::callgraph`] view.
//!
//! Unlike the per-file D/P/N families, every rule here asks a question
//! about *reachability*: what runs inside the tick loop's closure, which
//! public APIs can reach a panic site. Both inherit the call graph's
//! conservatism — see the known deviations in `docs/LINTS.md`.

use crate::callgraph::CallGraph;
use crate::rules::{Finding, KERNEL_CRATES};

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

/// Workspace-relative path of the committed panic inventory.
pub const PANIC_DOCS: &str = "docs/PANICS.md";

/// H001/H002 over the closure reachable from [`HOT_ROOTS`]; findings are
/// restricted to kernel-crate files (the conservative graph reaches
/// tooling code whose allocations are fine). Returns the qualified names
/// of the roots found in this workspace.
pub fn check_hot_paths(graph: &CallGraph, findings: &mut Vec<Finding>) -> Vec<String> {
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
            findings.push(Finding::new(
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
            findings.push(Finding::new(
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

/// R001/R002: the committed panic inventory (`doc`, the text of
/// [`PANIC_DOCS`]) must match the computed `inventory` in both directions.
pub fn check_panic_docs(doc: &str, inventory: &[PanicApi], findings: &mut Vec<Finding>) {
    let documented = documented_panic_apis(doc);
    for api in inventory {
        if !documented.iter().any(|(name, _)| name == &api.name) {
            findings.push(Finding::new(
                &api.file,
                api.line,
                "R001",
                format!(
                    "public API `{}` can transitively panic ({}) but is not documented in {}",
                    api.name, api.via, PANIC_DOCS
                ),
            ));
        }
    }
    for (name, line) in &documented {
        if !inventory.iter().any(|api| &api.name == name) {
            findings.push(Finding::new(
                PANIC_DOCS,
                *line,
                "R002",
                format!(
                    "`{name}` is documented as panicking but the analyzer no longer finds a panic path — stale row"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

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
        let mut findings = Vec::new();
        let roots = check_hot_paths(&graph, &mut findings);
        if let Some(doc) = panic_docs {
            check_panic_docs(doc, &panic_inventory(&graph), &mut findings);
        }
        (findings, roots)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
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
