//! The `simlint` binary: scans the workspace and reports findings.
//!
//! ```text
//! simlint [--root DIR] [--only RULE] [--explain RULE] [--panic-inventory] [--list-rules]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use stacksim_simlint::{engine, wsrules, RULES};

struct Args {
    root: Option<PathBuf>,
    only: Option<String>,
    explain: Option<String>,
    panic_inventory: bool,
    list_rules: bool,
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
            "--only" => {
                let v = it.next().ok_or("--only needs a rule id (e.g. H001)")?;
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
                    "simlint [--root DIR] [--only RULE] [--explain RULE] [--panic-inventory] [--list-rules]\n\
                     \n\
                     Static analysis for the stacksim workspace: determinism (D), panic\n\
                     surface (P), narrowing (N), metric/doc drift (M), scenario drift (S),\n\
                     hot-path purity (H), panic reachability (R) and pragma hygiene (X).\n\
                     See docs/LINTS.md for rule ids, pragmas and the call-graph\n\
                     conservatism notes.\n\
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
    let mut report = match engine::scan(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.panic_inventory {
        print!("{}", wsrules::inventory_markdown(&report.panic_inventory));
        return ExitCode::SUCCESS;
    }
    if let Some(only) = &args.only {
        report.findings.retain(|f| &f.rule == only);
    }
    print!("{}", report.to_text());
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
