//! The rule implementations.
//!
//! Four rule families, each enforcing an invariant the simulator's
//! bit-identity guarantees depend on but `clippy` cannot express:
//!
//! | family | rules | invariant |
//! |---|---|---|
//! | **D** determinism | `D001` wall-clock time, `D002` `rand`, `D003` hash-order iteration | identical inputs must produce byte-identical runs |
//! | **P** panic surface | `P001` `unwrap`, `P002` `expect`, `P003` explicit panic macros, `P004` unguarded computed slice index | kernel library code returns typed errors |
//! | **N** narrowing | `N001` `as u32`/`as usize` on cycle/address-typed expressions | cycle counts and addresses stay 64-bit |
//! | **M** metric drift | `M001` registered-but-undocumented, `M002` documented-but-unregistered | `docs/METRICS.md` matches the code |
//! | **S** scenario-schema drift | `S001` accepted-but-undocumented, `S002` documented-but-unaccepted | `docs/SCENARIOS.md` matches the parser's `ACCEPTED_KEYS` |
//!
//! D, P and N apply to non-test library code of the simulation-kernel
//! crates ([`KERNEL_CRATES`]); M applies to every workspace crate; S
//! compares `crates/core/src/scenario.rs` with `docs/SCENARIOS.md`
//! (see [`crate::scenario_docs`]).

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// Crates whose code drives simulated state: a determinism or panic bug
/// here invalidates measured results, so rules D/P/N gate them.
pub const KERNEL_CRATES: &[&str] = &["core", "dram", "memctrl", "mshr", "cache", "cpu", "vm"];

/// All rule ids the engine knows, with one-line descriptions.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "wall-clock time source (std::time / Instant / SystemTime) in kernel code",
    ),
    ("D002", "rand crate usage in kernel code"),
    (
        "D003",
        "iteration over HashMap/HashSet (nondeterministic order) in kernel code",
    ),
    ("P001", "unwrap() in non-test kernel library code"),
    ("P002", "expect() in non-test kernel library code"),
    (
        "P003",
        "explicit panic macro (panic!/unreachable!/todo!/unimplemented!) in kernel library code",
    ),
    (
        "P004",
        "slice index with unguarded arithmetic in kernel library code",
    ),
    (
        "N001",
        "narrowing cast (as u32/usize/u16/u8) of a cycle- or address-typed expression",
    ),
    (
        "M001",
        "metric registered in code but not documented in docs/METRICS.md",
    ),
    (
        "M002",
        "metric documented in docs/METRICS.md but not registered anywhere in code",
    ),
    (
        "S001",
        "scenario key accepted by the parser but not documented in docs/SCENARIOS.md",
    ),
    (
        "S002",
        "scenario key documented in docs/SCENARIOS.md but not accepted by the parser",
    ),
    (
        "H001",
        "heap allocation reachable from a tick-loop root (System::tick and friends)",
    ),
    ("H002", "clone() reachable from a tick-loop root"),
    (
        "R001",
        "public API can transitively panic but is not documented in docs/PANICS.md",
    ),
    (
        "R002",
        "docs/PANICS.md row names an API the analyzer no longer finds a panic path for",
    ),
    (
        "X001",
        "malformed simlint::allow pragma (missing rule id or reason)",
    ),
    (
        "X002",
        "simlint::allow pragma whose rule no longer fires on its target line (stale pragma)",
    ),
];

/// One diagnostic produced by a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (e.g. `D003`).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` at `file:line`.
    pub fn new(file: &str, line: u32, rule: &str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

/// A literal metric-name registration site (`.counter("…")`, `.gauge` or
/// `.histogram`), collected for rule M.
#[derive(Clone, Debug)]
pub struct Registration {
    /// File the registration appears in.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The literal metric name as written (may contain dots).
    pub name: String,
}

/// The leaf segment of a dotted metric path (`ranks.refreshes` →
/// `refreshes`). Docs name metrics both with and without their owning
/// node's prefix, so leaves are the unit both sides of the doc cross-check
/// agree on.
pub fn leaf(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Runs the per-file rules. `kernel` selects the D/P/N families; metric
/// registrations are collected from every file for the engine's M pass.
pub fn check_file(file: &SourceFile, kernel: bool, regs: &mut Vec<Registration>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks: Vec<&Tok> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    if kernel {
        rule_d_time_and_rand(file, &toks, &mut findings);
        rule_d_hash_iteration(file, &toks, &mut findings);
        rule_p(file, &toks, &mut findings);
        rule_n_narrowing(file, &toks, &mut findings);
    }
    collect_registrations(file, &toks, regs);
    for p in &file.pragmas {
        if p.reason.is_empty() {
            findings.push(Finding::new(
                &file.path,
                p.line,
                "X001",
                "malformed simlint::allow pragma: expected (RULE, reason = \"…\") with a non-empty reason".to_string(),
            ));
        }
    }
    findings
}

fn is_ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// D001 / D002: wall-clock time sources and `rand` paths.
fn rule_d_time_and_rand(file: &SourceFile, toks: &[&Tok], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => findings.push(Finding::new(
                &file.path,
                t.line,
                "D001",
                format!(
                    "`{}` is a wall-clock time source; simulation results must depend only on simulated cycles",
                    t.text
                ),
            )),
            // std::time / core::time (core::time::Duration alone is
            // harmless but flagged: kernel code has no business with it).
            "time"
                if i >= 3
                    && toks[i - 1].text == ":"
                    && toks[i - 2].text == ":"
                    && matches!(toks[i - 3].text.as_str(), "std" | "core") =>
            {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    "D001",
                    "`std::time` in kernel code: wall-clock time must not influence simulation"
                        .to_string(),
                ));
            }
            "rand" => {
                let next_is_path = toks.get(i + 1).is_some_and(|n| n.text == ":")
                    && toks.get(i + 2).is_some_and(|n| n.text == ":");
                let after_use = i >= 1 && is_ident(toks[i - 1], "use");
                if next_is_path || after_use {
                    findings.push(Finding::new(
                        &file.path,
                        t.line,
                        "D002",
                        "`rand` in kernel code: any randomness must come from the seeded workload generators".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Methods on hash containers whose visit order is nondeterministic.
const HASH_ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// D003: iteration over values declared as `HashMap`/`HashSet`.
///
/// Pass 1 collects names whose declaration mentions a hash container:
/// fields and statics (`name: …HashMap…`), `let` bindings, and functions
/// whose return type mentions one. Taint then propagates through `let`
/// initializers (bounded fixpoint), so `let guard = memo().lock()…;
/// guard.iter()` is still caught. Pass 2 flags order-sensitive method
/// calls on tainted names and `for … in` loops over them. Taint matches
/// bare names, so test-module code is left out of both passes: a test's
/// `let last = HashMap::new()` must not taint a kernel `last`.
fn rule_d_hash_iteration(file: &SourceFile, toks: &[&Tok], findings: &mut Vec<Finding>) {
    let mut hash_names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        // `name : … HashMap/HashSet …` up to a declaration boundary
        // (fields, statics, typed lets).
        if toks.get(i + 1).is_some_and(|n| n.text == ":")
            && toks.get(i + 2).is_none_or(|n| n.text != ":")
        {
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() && j < i + 40 {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," | ";" | ")" | "{" | "=" if angle <= 0 => break,
                    "HashMap" | "HashSet" => {
                        push_unique(&mut hash_names, &t.text);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `fn name(…) -> … HashMap …` — calls to this function yield a
        // hash container, so its name is a taint source too.
        if is_ident(t, "fn") {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    let mut k = i + 2;
                    while k < toks.len() && k < i + 60 {
                        match toks[k].text.as_str() {
                            "{" | ";" => break,
                            "HashMap" | "HashSet" => {
                                push_unique(&mut hash_names, &name_tok.text);
                                break;
                            }
                            _ => k += 1,
                        }
                    }
                }
            }
        }
    }
    // `let [mut] name … = INIT;` taints `name` when INIT mentions a hash
    // container or an already-tainted name. Iterate to a bounded fixpoint
    // so taint flows through lock guards and snapshot vectors.
    for _ in 0..4 {
        let mut grew = false;
        for (i, t) in toks.iter().enumerate() {
            if !is_ident(t, "let") || file.is_test_line(t.line) {
                continue;
            }
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| is_ident(n, "mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j) else {
                continue;
            };
            if name_tok.kind != TokKind::Ident || hash_names.iter().any(|n| n == &name_tok.text) {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && k < j + 100 && toks[k].text != ";" {
                // An ident preceded by `.` is a method/field selector
                // (`items.map(…)`), not a use of a tainted binding —
                // except a field of `self`, which is the field itself.
                let selector =
                    toks[k - 1].text == "." && !(k >= 2 && is_ident(toks[k - 2], "self"));
                let tainted = matches!(toks[k].text.as_str(), "HashMap" | "HashSet")
                    || (toks[k].kind == TokKind::Ident
                        && !selector
                        && hash_names.iter().any(|n| n == &toks[k].text));
                if tainted {
                    push_unique(&mut hash_names, &name_tok.text);
                    grew = true;
                    break;
                }
                k += 1;
            }
        }
        if !grew {
            break;
        }
    }
    if hash_names.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || file.is_test_line(t.line)
            || !hash_names.iter().any(|n| n == &t.text)
        {
            continue;
        }
        // name.method( where method visits entries in hash order
        if toks.get(i + 1).is_some_and(|n| n.text == ".") {
            if let Some(m) = toks.get(i + 2) {
                if HASH_ORDER_METHODS.contains(&m.text.as_str())
                    && toks.get(i + 3).is_some_and(|n| n.text == "(")
                {
                    findings.push(Finding::new(
                        &file.path,
                        t.line,
                        "D003",
                        format!(
                            "`{}.{}()` visits a hash container in nondeterministic order",
                            t.text, m.text
                        ),
                    ));
                }
            }
        }
        // `for pat in [&[mut]] name {` — direct iteration
        if i >= 1
            && (toks[i - 1].text == "&"
                || is_ident(toks[i - 1], "in")
                || is_ident(toks[i - 1], "mut"))
        {
            let mut back = i - 1;
            while back > 0 && (toks[back].text == "&" || is_ident(toks[back], "mut")) {
                back -= 1;
            }
            if is_ident(toks[back], "in") && toks.get(i + 1).is_some_and(|n| n.text == "{") {
                findings.push(Finding::new(
                    &file.path,
                    t.line,
                    "D003",
                    format!(
                        "`for … in {}` iterates a hash container in nondeterministic order",
                        t.text
                    ),
                ));
            }
        }
    }
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_string());
    }
}

/// The kind of a direct panic site, one per rule P001–P004.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.unwrap_err()` / `.unwrap_unchecked()` (P001).
    Unwrap,
    /// `.expect()` / `.expect_err()` (P002).
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` (P003).
    Macro,
    /// Slice index with unguarded arithmetic (P004).
    Index,
}

impl PanicKind {
    /// The rule id that reports this kind.
    pub const fn rule(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "P001",
            PanicKind::Expect => "P002",
            PanicKind::Macro => "P003",
            PanicKind::Index => "P004",
        }
    }

    /// Human-readable label for inventory rows and messages.
    pub const fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::Macro => "panic macro",
            PanicKind::Index => "computed index",
        }
    }
}

/// Classifies token `i` as a P001–P004 panic site, or `None`. Test code
/// is never a site. The per-file P rules and the call graph's panic
/// propagation both ask this one question, so the rules and
/// `docs/PANICS.md` cannot disagree about what panics.
pub fn panic_site(file: &SourceFile, toks: &[&Tok], i: usize) -> Option<PanicKind> {
    let t = toks[i];
    if file.is_test_line(t.line) {
        return None;
    }
    let prev = i.checked_sub(1).map(|p| toks[p]);
    let next = toks.get(i + 1).map(|n| n.text.as_str());
    let after_dot = prev.is_some_and(|p| p.text == ".");
    if t.kind == TokKind::Ident {
        return match t.text.as_str() {
            "unwrap" | "unwrap_err" | "unwrap_unchecked" if after_dot && next == Some("(") => {
                Some(PanicKind::Unwrap)
            }
            "expect" | "expect_err" if after_dot && next == Some("(") => Some(PanicKind::Expect),
            "panic" | "unreachable" | "todo" | "unimplemented" if next == Some("!") => {
                Some(PanicKind::Macro)
            }
            _ => None,
        };
    }
    // P004: indexing only — `[` directly after an ident, `)`, or `]`
    // (so attributes `#[…]` and array literals never match). Single
    // identifiers, literals, ranges, `%` and power-of-two `& mask` wrapping
    // are accepted; other arithmetic is a plausible off-by-one.
    let indexing = t.text == "["
        && prev.is_some_and(|p| p.kind == TokKind::Ident || p.text == ")" || p.text == "]");
    if !indexing {
        return None;
    }
    let mut depth = 0usize;
    let mut idx_toks: Vec<&Tok> = Vec::new();
    for (j, tok) in toks.iter().enumerate().skip(i) {
        match tok.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j > i {
            idx_toks.push(tok);
        }
    }
    if idx_toks.len() <= 1 {
        return None; // empty, single literal, or single identifier
    }
    let has_range = idx_toks
        .windows(2)
        .any(|w| w[0].text == "." && w[1].text == ".");
    let has_modulo = idx_toks.iter().any(|t| t.text == "%");
    // A trailing `& mask` bounds the index just like `%`; a leading `&`
    // is only a reference, not a mask.
    let has_mask = idx_toks.iter().skip(1).any(|t| t.text == "&");
    let has_arith = idx_toks
        .iter()
        .any(|t| matches!(t.text.as_str(), "+" | "-" | "*"));
    (has_arith && !has_range && !has_modulo && !has_mask).then_some(PanicKind::Index)
}

/// P001–P004: every [`panic_site`] in the file.
fn rule_p(file: &SourceFile, toks: &[&Tok], findings: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Some(kind) = panic_site(file, toks, i) else {
            continue;
        };
        let t = toks[i];
        let message = match kind {
            PanicKind::Unwrap | PanicKind::Expect => {
                format!("`.{}()` can panic; return a typed error instead", t.text)
            }
            PanicKind::Macro => format!(
                "`{}!` panics; prefer a typed error or prove the branch impossible",
                t.text
            ),
            PanicKind::Index => "slice index computed with unguarded arithmetic; use .get(), a checked helper, or justify with a pragma".to_string(),
        };
        findings.push(Finding::new(&file.path, t.line, kind.rule(), message));
    }
}

/// Identifier fragments that mark an expression as cycle- or
/// address-typed for rule N.
fn is_cycle_or_addr_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("cycle") || lower.contains("addr") || lower == "now" || lower == "deadline"
}

/// N001: `as u32`/`as usize`/`as u16`/`as u8` applied to an expression
/// whose postfix chain mentions a cycle- or address-typed identifier.
/// Cycle counts and addresses are 64-bit; narrowing one silently wraps
/// after ~4 × 10⁹ cycles.
fn rule_n_narrowing(file: &SourceFile, toks: &[&Tok], findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !is_ident(t, "as") || file.is_test_line(t.line) {
            continue;
        }
        let Some(ty) = toks.get(i + 1) else { continue };
        if !matches!(
            ty.text.as_str(),
            "u32" | "usize" | "u16" | "u8" | "i32" | "i16" | "i8"
        ) {
            continue;
        }
        // Walk the postfix chain backwards: idents, field/method access,
        // call/index groups. Stop at any operator or statement boundary.
        let mut j = i;
        let mut names: Vec<&str> = Vec::new();
        while j > 0 {
            j -= 1;
            match toks[j].kind {
                TokKind::Ident => {
                    if matches!(
                        toks[j].text.as_str(),
                        "let" | "in" | "if" | "while" | "match" | "return" | "as" | "mut" | "ref"
                    ) {
                        break;
                    }
                    names.push(&toks[j].text);
                }
                TokKind::Num => {}
                TokKind::Punct => match toks[j].text.as_str() {
                    "." | ":" => {}
                    ")" | "]" => {
                        // Skip the whole group; collect idents inside it too
                        // (they describe what is being cast).
                        let close = &toks[j].text;
                        let open = if close == ")" { "(" } else { "[" };
                        let mut depth = 1usize;
                        while j > 0 && depth > 0 {
                            j -= 1;
                            if toks[j].text == *close {
                                depth += 1;
                            } else if toks[j].text == open {
                                depth -= 1;
                            } else if toks[j].kind == TokKind::Ident {
                                names.push(&toks[j].text);
                            }
                        }
                    }
                    _ => break,
                },
                _ => break,
            }
        }
        if names.iter().any(|n| is_cycle_or_addr_ident(n)) {
            findings.push(Finding::new(
                &file.path,
                t.line,
                "N001",
                format!(
                    "narrowing cast `as {}` of a cycle/address-typed expression; keep 64-bit width or justify with a pragma",
                    ty.text
                ),
            ));
        }
    }
}

/// Collects literal metric names registered via `.counter("…")`,
/// `.gauge("…")` or `.histogram("…")` in non-test code.
fn collect_registrations(file: &SourceFile, toks: &[&Tok], regs: &mut Vec<Registration>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "counter" | "gauge" | "histogram")
        {
            continue;
        }
        if file.is_test_line(t.line) {
            continue;
        }
        let after_dot = i >= 1 && toks[i - 1].text == ".";
        if !after_dot
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
            || toks.get(i + 2).is_none_or(|n| n.kind != TokKind::Str)
        {
            continue;
        }
        let lit = &toks[i + 2].text;
        let name = lit.trim_matches('"');
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        {
            continue;
        }
        regs.push(Registration {
            file: file.path.clone(),
            line: t.line,
            name: name.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        let mut regs = Vec::new();
        check_file(&f, true, &mut regs)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn d001_flags_time_sources() {
        assert!(rules_of(&check("use std::time::Instant;\n")).contains(&"D001"));
        assert!(rules_of(&check("let t = SystemTime::now();\n")).contains(&"D001"));
        assert!(check("let time = 5;\n").is_empty()); // bare ident `time` ok
    }

    #[test]
    fn d002_flags_rand_paths() {
        assert!(rules_of(&check("use rand::SeedableRng;\n")).contains(&"D002"));
        assert!(check("let rand = 3;\n").is_empty());
    }

    #[test]
    fn d003_flags_hash_iteration_but_not_lookup() {
        let src = "struct S { m: HashMap<u64, u32> }\nimpl S { fn f(&self) { for v in self.m.values() {} } }\n";
        assert!(rules_of(&check(src)).contains(&"D003"));
        let ok = "struct S { m: HashMap<u64, u32> }\nimpl S { fn f(&self) -> bool { self.m.contains_key(&1) } }\n";
        assert!(check(ok).is_empty());
    }

    #[test]
    fn d003_flags_direct_for_loop() {
        let src = "fn f() { let mut s = HashSet::new(); s.insert(1); for x in &s { use_(x); } }\n";
        assert!(rules_of(&check(src)).contains(&"D003"));
    }

    #[test]
    fn d003_taint_flows_through_lock_guards() {
        let src = "\
static MEMO: OnceLock<Mutex<HashMap<K, V>>> = OnceLock::new();
fn memo() -> &'static Mutex<HashMap<K, V>> { MEMO.get_or_init(default) }
fn visit() {
    let map = memo().lock().expect(\"poisoned\");
    for (k, v) in map.iter() { use_(k, v); }
}
";
        assert!(rules_of(&check(src)).contains(&"D003"));
    }

    #[test]
    fn d003_taint_flows_through_self_field_guards() {
        let src = "\
struct S { memo: Mutex<HashMap<K, V>> }
impl S {
    fn snapshot(&self) -> Vec<(K, V)> {
        let map = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}
";
        let d003: Vec<u32> = check(src)
            .iter()
            .filter(|f| f.rule == "D003")
            .map(|f| f.line)
            .collect();
        assert_eq!(d003, [5]);
    }

    #[test]
    fn p_rules_skip_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(\"boom\"); }\n}\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn p001_p002_p003_fire_in_library_code() {
        let found = rules_of(&check(
            "fn f() { x.unwrap(); y.expect(\"msg\"); unreachable!(); }\n",
        ))
        .join(",");
        assert!(found.contains("P001") && found.contains("P002") && found.contains("P003"));
        // unwrap_or is fine
        assert!(check("fn f() { x.unwrap_or(0); }\n").is_empty());
    }

    #[test]
    fn p004_flags_arithmetic_index_only() {
        assert!(rules_of(&check("fn f() { let y = xs[i + 1]; }\n")).contains(&"P004"));
        assert!(check("fn f() { let y = xs[i]; }\n").is_empty());
        assert!(check("fn f() { let y = xs[i % n]; }\n").is_empty());
        assert!(check("fn f() { let y = &xs[a..b]; }\n").is_empty());
        // power-of-two masking bounds the index like a modulo
        assert!(check("fn f() { let y = xs[(i + off) & mask]; }\n").is_empty());
    }

    #[test]
    fn n001_flags_cycle_and_addr_narrowing() {
        assert!(rules_of(&check("fn f() { let x = now.raw() as u32; }\n")).contains(&"N001"));
        assert!(rules_of(&check("fn f() { let x = line_addr as usize; }\n")).contains(&"N001"));
        assert!(check("fn f() { let x = width as u32; }\n").is_empty());
        assert!(check("fn f() { let x = cycles as f64; }\n").is_empty()); // widening ok
    }

    #[test]
    fn registrations_are_collected_with_dotted_names() {
        let f = SourceFile::parse(
            "crates/dram/src/x.rs",
            "fn s(&self) { r.counter(\"ranks.refreshes\", 1); sink.counter(\"cycles\", 2); }\n",
        );
        let mut regs = Vec::new();
        check_file(&f, true, &mut regs);
        let names: Vec<&str> = regs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["ranks.refreshes", "cycles"]);
        assert_eq!(leaf("ranks.refreshes"), "refreshes");
    }
}
