//! The `simlint` binary: scans the workspace and reports findings.
//!
//! ```text
//! simlint [--root DIR] [--format text|json] [--baseline FILE]
//!         [--only RULE] [--explain RULE] [--panic-inventory] [--list-rules]
//! ```
//!
//! Exit codes: 0 = clean, 1 = unbaselined findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use stacksim_simlint::callgraph::CallGraph;
use stacksim_simlint::source::SourceFile;
use stacksim_simlint::{engine, wsrules, Options, RULES};

struct Args {
    root: Option<PathBuf>,
    format: Format,
    baseline: Option<PathBuf>,
    only: Option<String>,
    explain: Option<String>,
    panic_inventory: bool,
    list_rules: bool,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

/// Longer per-family guidance for `--explain`, beyond the one-liners in
/// [`RULES`]. Keyed by rule-id prefix.
const EXPLAIN: &[(&str, &str)] = &[
    (
        "D",
        "Determinism: identical inputs must produce byte-identical runs. Wall-clock\n\
         reads, `rand`, and hash-order iteration all smuggle nondeterminism into\n\
         simulated state. Fix by sourcing time from simulated cycles, randomness from\n\
         the seeded generators, and by sorting before iterating hash containers.",
    ),
    (
        "P",
        "Panic surface: kernel library code returns typed errors; a panic mid-run\n\
         discards the simulation and poisons the runner's shared locks. Replace\n\
         unwrap/expect with `?`-propagation, prove panics impossible with types, or\n\
         justify truly-unreachable sites with a pragma.",
    ),
    (
        "N",
        "Narrowing: cycle counts and addresses are 64-bit. An `as u32` silently wraps\n\
         after ~4e9 cycles — long windows are exactly the workloads the fast-forward\n\
         engine targets. Keep 64-bit width end to end.",
    ),
    (
        "M",
        "Metric/doc drift: docs/METRICS.md is the user contract for artifact files.\n\
         M001 means code registers a metric the doc doesn't list; M002 the reverse.\n\
         Fix the table, not the gate.",
    ),
    (
        "S",
        "Scenario-schema drift: docs/SCENARIOS.md must match the parser's\n\
         ACCEPTED_KEYS in both directions, so the declarative frontend's docs never\n\
         lie about what a scenario file may contain.",
    ),
    (
        "L",
        "Lock discipline, judged through the workspace call graph. L001: two sites\n\
         acquire the same pair of locks in opposite orders — a deadlock cycle waiting\n\
         for contention. L002: a guard is held across file/network I/O, serializing\n\
         every other thread behind a disk write; hoist the lock into a small helper\n\
         that returns the data and drop it before the I/O. L003: a call path can\n\
         re-acquire a lock the caller already holds (std mutexes are not reentrant).\n\
         A guard is assumed held to the end of the enclosing function unless\n\
         `drop(guard)` releases it earlier.",
    ),
    (
        "H",
        "Hot-path purity: nothing reachable from System::tick / mc_slice /\n\
         fast_forward_to / Core::cycle / MemoryController::tick may allocate (H001)\n\
         or clone containers (H002) in steady state — PR 6/8's allocation-free\n\
         structure, now enforced. Only reachability counts: a constructor called\n\
         per event is as hot as the event itself, while one that only builds the\n\
         machine is unreachable from the roots. Amortized or epoch-boundary\n\
         allocations take a reasoned pragma.",
    ),
    (
        "R",
        "Panic reachability: P001–P004 sites propagate through the call graph to\n\
         every public API; docs/PANICS.md is the committed inventory. R001 = an API\n\
         can panic but is undocumented (add a row, or remove the panic); R002 = a\n\
         documented row no longer panics (delete it). Regenerate the table with\n\
         `simlint --panic-inventory`.",
    ),
    (
        "X",
        "Pragma hygiene: X001 flags malformed `simlint::allow` pragmas; X002 flags\n\
         well-formed pragmas whose rule no longer fires on the target line, so\n\
         suppressions can't silently outlive the code they excused.",
    ),
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Text,
        baseline: None,
        only: None,
        explain: None,
        panic_inventory: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            "--format" => match it.next().as_deref() {
                Some("text") => args.format = Format::Text,
                Some("json") => args.format = Format::Json,
                other => return Err(format!("--format expects text|json, got {other:?}")),
            },
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file")?;
                args.baseline = Some(PathBuf::from(v));
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a rule id (e.g. L002)")?;
                args.only = Some(v.to_ascii_uppercase());
            }
            "--explain" => {
                let v = it.next().ok_or("--explain needs a rule id (e.g. H001)")?;
                args.explain = Some(v.to_ascii_uppercase());
            }
            "--panic-inventory" => args.panic_inventory = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                println!(
                    "simlint [--root DIR] [--format text|json] [--baseline FILE]\n\
                     \x20       [--only RULE] [--explain RULE] [--panic-inventory] [--list-rules]\n\
                     \n\
                     Static analysis for the stacksim workspace: determinism (D), panic\n\
                     surface (P), narrowing (N), metric/doc drift (M), scenario drift (S),\n\
                     lock discipline (L), hot-path purity (H), panic reachability (R) and\n\
                     pragma hygiene (X). See docs/LINTS.md for rule ids, pragmas, the\n\
                     baseline format and the call-graph conservatism notes.\n\
                     --panic-inventory prints the docs/PANICS.md table body.\n\
                     Exit codes: 0 clean, 1 findings, 2 error."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// Resolves the workspace root from `--root` or the current directory.
fn resolve_root(arg: Option<PathBuf>) -> Option<PathBuf> {
    arg.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| engine::find_workspace_root(&d))
    })
}

/// Builds the call graph alone (no rules) for `--panic-inventory`.
fn print_panic_inventory(root: &PathBuf) -> Result<(), String> {
    let crates_dir = root.join("crates");
    let mut files: Vec<(String, SourceFile)> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut stack = vec![src];
        let mut paths: Vec<PathBuf> = Vec::new();
        while let Some(dir) = stack.pop() {
            for entry in
                std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?
            {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    paths.push(path);
                }
            }
        }
        paths.sort();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {rel}: {e}"))?;
            files.push((crate_name.clone(), SourceFile::parse(&rel, &text)));
        }
    }
    let refs: Vec<(String, &SourceFile)> = files.iter().map(|(k, f)| (k.clone(), f)).collect();
    let graph = CallGraph::build(&refs);
    print!(
        "{}",
        wsrules::inventory_markdown(&wsrules::panic_inventory(&graph))
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for (id, desc) in RULES {
            println!("{id}  {desc}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &args.explain {
        let Some((id, desc)) = RULES.iter().find(|(id, _)| id == rule) else {
            eprintln!("simlint: unknown rule '{rule}' (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{id}: {desc}\n");
        if let Some((_, text)) = EXPLAIN.iter().find(|(p, _)| rule.starts_with(p)) {
            println!("{text}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(only) = &args.only {
        if !RULES.iter().any(|(id, _)| id == only) {
            eprintln!("simlint: unknown rule '{only}' (see --list-rules)");
            return ExitCode::from(2);
        }
    }
    let root = match resolve_root(args.root) {
        Some(r) => r,
        None => {
            eprintln!("simlint: no workspace root found (use --root)");
            return ExitCode::from(2);
        }
    };
    if args.panic_inventory {
        return match print_panic_inventory(&root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simlint: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = Options {
        baseline: args.baseline,
    };
    let mut report = match engine::scan(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(only) = &args.only {
        report.findings.retain(|f| &f.rule == only);
    }
    match args.format {
        Format::Text => print!("{}", report.to_text()),
        Format::Json => print!("{}", report.to_json()),
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
