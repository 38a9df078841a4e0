//! The workspace must lint clean: every determinism, panic-surface,
//! narrowing, metric-drift, hot-path-purity, panic-inventory and
//! pragma-hygiene finding is either fixed or carries a reasoned
//! `simlint::allow` pragma, and `docs/PANICS.md` lists exactly the
//! inventory the analyzer computes.

use std::path::{Path, PathBuf};

use stacksim_simlint::{engine, wsrules};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/simlint sits two levels under the workspace root")
        .to_path_buf()
}

fn scan() -> engine::Report {
    engine::scan(&workspace_root()).expect("workspace scan succeeds")
}

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let report = scan();
    assert!(
        report.findings.is_empty(),
        "workspace must be simlint-clean (fix or pragma with a reason):\n{}",
        report.to_text()
    );
    // Sanity: the scan actually visited the workspace.
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}

#[test]
fn workspace_call_graph_covers_every_source_file() {
    let report = scan();
    let graph = &report.graph;
    assert!(graph.nodes > 500, "suspiciously small symbol index");
    assert!(graph.edges > graph.nodes, "call graph lost its edges");
    // A handful of scanned files are type/const-only modules with no
    // functions; everything else must contribute symbols. A big drop
    // here means the indexer has gone blind to whole files.
    assert!(
        graph.files_with_symbols <= report.files_scanned
            && graph.files_with_symbols * 10 >= report.files_scanned * 8,
        "call-graph file coverage collapsed: {} of {} files contributed symbols",
        graph.files_with_symbols,
        report.files_scanned
    );
}

#[test]
fn workspace_hot_roots_are_present() {
    let report = scan();
    // The tick-loop entry points the H rules hang off. If one is
    // renamed, update wsrules::HOT_ROOTS in the same change — silently
    // losing a root would disable hot-path enforcement for its subtree.
    for (owner, name) in wsrules::HOT_ROOTS {
        let suffix = format!("::{owner}::{name}");
        assert!(
            report.graph.roots.iter().any(|r| r.ends_with(&suffix)),
            "hot root {owner}::{name} not found; got {:?}",
            report.graph.roots
        );
    }
}

#[test]
fn panic_inventory_matches_docs_table() {
    // R001/R002 compare API names only; this also pins each row's
    // "panics via" column. Regenerate with `simlint --panic-inventory`.
    let rows = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("| `"))
            .map(str::to_string)
            .collect()
    };
    let doc = std::fs::read_to_string(workspace_root().join("docs/PANICS.md"))
        .expect("docs/PANICS.md present");
    let computed = wsrules::inventory_markdown(&scan().panic_inventory);
    assert_eq!(
        rows(&doc),
        rows(&computed),
        "docs/PANICS.md table drifted; regenerate it with simlint --panic-inventory"
    );
}
