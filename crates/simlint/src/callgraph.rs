//! Workspace symbol index and conservative call graph.
//!
//! The per-file rules (D/P/N) see one token stream at a time; the H/R
//! rule families need to know what a *call* can reach anywhere in the
//! workspace: "is this allocation reachable from `System::tick`?", "can
//! this public API transitively panic?". This module builds that view
//! from the same lexer token streams the rest of simlint uses — no
//! external parser, no type information, just names and braces.
//!
//! # Conservatism
//!
//! The graph is a deliberate *over*-approximation of the real call
//! graph (documented in `docs/LINTS.md`):
//!
//! * A method call `x.m(…)` edges to **every** method named `m` in the
//!   workspace, because the receiver's type is not known. Trait calls
//!   therefore edge to every implementation (the right answer) and
//!   unrelated same-named methods (the price).
//! * `self.m(…)` inside `impl T` edges only to `T::m` when `T` defines
//!   one — the common hot-path shape, resolved precisely.
//! * `Type::m(…)` edges to `Type`'s own `m`; an unmatched qualifier
//!   (module paths, std types) falls back to free functions named `m`.
//! * A bare call `m(…)` edges to every free function named `m`.
//! * Calls through function-typed values (closures, callbacks) produce
//!   no edges: the analysis cannot see through `dyn Fn`. Rules that
//!   depend on the graph treat such calls as silent, which is the one
//!   *under*-approximation — noted in the docs.
//! * Panic propagation ([`CallGraph::can_panic`]) follows only the
//!   *precisely*-resolved subset of edges (self calls on the own type,
//!   `Type::m`, free calls). Method-name fan-out is excluded there:
//!   with it, every `.push(…)` on a plain `Vec` would mark its caller
//!   as panicking "via `EventWheel::push`", and the generated
//!   `docs/PANICS.md` would claim every public API panics. The
//!   hot-path rules keep the full over-approximate edge set.
//!
//! # Examples
//!
//! ```
//! use stacksim_simlint::callgraph::CallGraph;
//! use stacksim_simlint::source::SourceFile;
//!
//! let file = SourceFile::parse(
//!     "crates/core/src/x.rs",
//!     "pub fn a() { b(); }\nfn b() { x.unwrap(); }\n",
//! );
//! let graph = CallGraph::build(&[("core".to_string(), &file)]);
//! let a = graph.find(None, "a")[0];
//! assert!(graph.can_panic()[a], "a reaches b's unwrap");
//! ```

use std::collections::HashMap;

use crate::lexer::{Tok, TokKind};
use crate::rules::{panic_site, PanicKind};
use crate::source::SourceFile;

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recv {
    /// Bare call `m(…)` — resolves to free functions named `m`.
    Free,
    /// `self.m(…)` — resolves to the enclosing impl type's own `m`.
    SelfRecv,
    /// `Q::m(…)` — resolves to `Q`'s method `m`, else free `m`.
    Qualified(String),
    /// `expr.m(…)` — resolves to every method named `m`.
    Method,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// How the callee is addressed.
    pub recv: Recv,
    /// 1-based source line.
    pub line: u32,
}

/// Everything a function body tells the workspace rules.
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// Every call site, in source order.
    pub calls: Vec<CallSite>,
    /// Heap-allocation sites: `(what, line)` — `Vec::new`, `vec!`,
    /// `format!`, `.to_string()`, `.collect()`, `Box::new`, ….
    pub allocs: Vec<(String, u32)>,
    /// `.clone()` call sites.
    pub clones: Vec<u32>,
    /// Direct panic sites (P001–P004, per [`panic_site`]).
    pub panics: Vec<(PanicKind, u32)>,
}

/// One indexed function or method definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Crate directory name (`core`, `dram`, …).
    pub crate_name: String,
    /// The `impl`/`trait` type the definition sits in, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the definition is `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Body-derived facts.
    pub facts: FnFacts,
}

impl FnDef {
    /// `crate::Owner::name` or `crate::name` — the identity used in the
    /// panic inventory and diagnostics.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{}::{}::{}", self.crate_name, owner, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// The workspace call graph: indexed definitions plus resolved edges.
pub struct CallGraph {
    /// All indexed functions, in deterministic (file, line) order.
    pub fns: Vec<FnDef>,
    /// `edges[i]` = indices of the functions `fns[i]` may call.
    pub edges: Vec<Vec<usize>>,
    /// The precisely-resolved subset of `edges` (no method-name fan-out,
    /// no trait fallback) — what panic propagation follows.
    pub precise_edges: Vec<Vec<usize>>,
    /// Files that contributed at least one definition.
    pub files_with_symbols: usize,
    by_name: HashMap<String, Vec<usize>>,
}

/// Identifiers that look like calls but are control flow.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "unsafe", "else",
    "impl", "where", "as", "ref", "mut", "use", "pub", "mod", "struct", "enum", "trait", "const",
    "static", "type", "dyn", "box", "Some", "Ok", "Err", "None",
];

/// Method names that allocate on the heap.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect"];

/// `Type::method` pairs that allocate.
const ALLOC_QUALIFIED: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Std panic-method names: these never create `expr.m(…)` call edges
/// (they would wire every `.lock().expect(…)` into any user type that
/// happens to define an `expect`). User-defined methods with these
/// names are still resolved through `self.`/`Type::` calls.
const PANIC_METHODS: &[&str] = &[
    "unwrap",
    "unwrap_err",
    "unwrap_unchecked",
    "expect",
    "expect_err",
];

impl CallGraph {
    /// Indexes every `(crate_name, file)` pair and resolves call edges.
    pub fn build(files: &[(String, &SourceFile)]) -> CallGraph {
        let mut fns: Vec<FnDef> = Vec::new();
        let mut files_with_symbols = 0usize;
        for (crate_name, file) in files {
            let before = fns.len();
            index_file(crate_name, file, &mut fns);
            if fns.len() > before {
                files_with_symbols += 1;
            }
        }

        // Name → definition indices, split by free/method at resolution
        // time via `owner`.
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }

        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        let mut precise_edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for f in &fns {
            let mut out: Vec<usize> = Vec::new();
            let mut precise: Vec<usize> = Vec::new();
            for call in &f.facts.calls {
                resolve(&fns, &by_name, f, call, &mut out);
                resolve_precise(&fns, &by_name, f, call, &mut precise);
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
            precise.sort_unstable();
            precise.dedup();
            precise_edges.push(precise);
        }

        CallGraph {
            fns,
            edges,
            precise_edges,
            files_with_symbols,
            by_name,
        }
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Definition indices matching `(owner, name)`; `None` owner matches
    /// free functions only.
    pub fn find(&self, owner: Option<&str>, name: &str) -> Vec<usize> {
        match self.by_name.get(name) {
            None => Vec::new(),
            Some(ids) => ids
                .iter()
                .copied()
                .filter(|&i| self.fns[i].owner.as_deref() == owner)
                .collect(),
        }
    }

    /// The indices reachable from `roots` (roots included), cycle-safe.
    pub fn reachable(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(i) = stack.pop() {
            for &j in &self.edges[i] {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen
    }

    /// `can_panic[i]`: whether `fns[i]` has a direct panic site or can
    /// reach one through the *precisely*-resolved edges (see the module
    /// docs for why method fan-out is excluded here). Fixpoint,
    /// cycle-safe.
    pub fn can_panic(&self) -> Vec<bool> {
        let mut can: Vec<bool> = self
            .fns
            .iter()
            .map(|f| !f.facts.panics.is_empty())
            .collect();
        loop {
            let mut grew = false;
            for i in 0..self.fns.len() {
                if !can[i] && self.precise_edges[i].iter().any(|&j| can[j]) {
                    can[i] = true;
                    grew = true;
                }
            }
            if !grew {
                return can;
            }
        }
    }

    /// Why `fns[i]` can panic: its first direct site's kind, or the
    /// lexicographically smallest panicking callee — deterministic, so
    /// the generated inventory is stable.
    pub fn panic_via(&self, i: usize, can: &[bool]) -> String {
        if let Some((kind, _)) = self.fns[i].facts.panics.first() {
            return kind.label().to_string();
        }
        let mut best: Option<String> = None;
        for &j in &self.precise_edges[i] {
            if can[j] {
                let q = self.fns[j].qualified();
                if best.as_ref().is_none_or(|b| q < *b) {
                    best = Some(q);
                }
            }
        }
        match best {
            Some(q) => format!("via `{q}`"),
            None => "direct".to_string(),
        }
    }
}

/// Resolves one call site to definition indices, per the conservatism
/// contract in the module docs.
fn resolve(
    fns: &[FnDef],
    by_name: &HashMap<String, Vec<usize>>,
    caller: &FnDef,
    call: &CallSite,
    out: &mut Vec<usize>,
) {
    let Some(ids) = by_name.get(&call.name) else {
        return;
    };
    match &call.recv {
        Recv::SelfRecv => {
            let owner = caller.owner.as_deref();
            let own: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&i| owner.is_some() && fns[i].owner.as_deref() == owner)
                .collect();
            if own.is_empty() {
                // `self.m()` with no `m` on the enclosing type: a trait
                // method from elsewhere — fall back to every method.
                out.extend(ids.iter().copied().filter(|&i| fns[i].owner.is_some()));
            } else {
                out.extend(own);
            }
        }
        Recv::Qualified(q) => {
            // `Self::m(…)` names the enclosing impl type.
            let q = if q == "Self" {
                caller.owner.clone().unwrap_or_else(|| q.clone())
            } else {
                q.clone()
            };
            let owned: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&i| fns[i].owner.as_deref() == Some(q.as_str()))
                .collect();
            if owned.is_empty() {
                // Module-qualified call (`runner::run_mix`): free fns.
                out.extend(ids.iter().copied().filter(|&i| fns[i].owner.is_none()));
            } else {
                out.extend(owned);
            }
        }
        Recv::Method => {
            if !PANIC_METHODS.contains(&call.name.as_str()) {
                out.extend(ids.iter().copied().filter(|&i| fns[i].owner.is_some()));
            }
        }
        Recv::Free => out.extend(ids.iter().copied().filter(|&i| fns[i].owner.is_none())),
    }
}

/// Like [`resolve`], but keeps only structurally-certain resolutions:
/// `self.m()` on the own type, `Type::m` with a matching owner,
/// module-qualified and bare free calls. `x.m(…)` fan-out and the
/// `self.m()` trait fallback resolve to nothing — the subset panic
/// propagation follows.
fn resolve_precise(
    fns: &[FnDef],
    by_name: &HashMap<String, Vec<usize>>,
    caller: &FnDef,
    call: &CallSite,
    out: &mut Vec<usize>,
) {
    let Some(ids) = by_name.get(&call.name) else {
        return;
    };
    match &call.recv {
        Recv::SelfRecv => {
            let owner = caller.owner.as_deref();
            out.extend(
                ids.iter()
                    .copied()
                    .filter(|&i| owner.is_some() && fns[i].owner.as_deref() == owner),
            );
        }
        Recv::Qualified(q) => {
            let q = if q == "Self" {
                caller.owner.clone().unwrap_or_else(|| q.clone())
            } else {
                q.clone()
            };
            let owned: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&i| fns[i].owner.as_deref() == Some(q.as_str()))
                .collect();
            if owned.is_empty() {
                out.extend(ids.iter().copied().filter(|&i| fns[i].owner.is_none()));
            } else {
                out.extend(owned);
            }
        }
        Recv::Method => {}
        Recv::Free => out.extend(ids.iter().copied().filter(|&i| fns[i].owner.is_none())),
    }
}

/// Indexes one file: finds `impl`/`trait` context, `fn` definitions and
/// their body ranges, then extracts facts from each body.
fn index_file(crate_name: &str, file: &SourceFile, out: &mut Vec<FnDef>) {
    let toks: Vec<&Tok> = file.tokens.iter().filter(|t| !t.is_comment()).collect();
    // Owner context per token index: the innermost `impl Type` / `trait
    // Type` block. A simple stack over brace depth.
    let mut owners: Vec<Option<String>> = vec![None; toks.len()];
    {
        let mut stack: Vec<(usize, Option<String>)> = Vec::new(); // (depth at open, owner)
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "impl" | "trait" if toks[i].kind == TokKind::Ident && item_position(&toks, i) => {
                    if let Some((owner, open)) = impl_owner(&toks, i) {
                        stack.push((depth, Some(owner)));
                        depth += 1;
                        i = open + 1;
                        continue;
                    }
                }
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if let Some((d, _)) = stack.last() {
                        if *d == depth {
                            stack.pop();
                        }
                    }
                }
                _ => {}
            }
            owners[i] = stack.last().and_then(|(_, o)| o.clone());
            i += 1;
        }
    }

    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
            let Some(name_tok) = toks.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokKind::Ident || file.is_test_line(toks[i].line) {
                i += 1;
                continue;
            }
            let is_pub = is_pub_before(&toks, i);
            // Find the body: the first `{` before a `;` at signature level.
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut body: Option<(usize, usize)> = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ";" if angle <= 0 => break, // trait method declaration
                    "{" if angle <= 0 => {
                        body = Some((j, matching_close(&toks, j)));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let owner = owners[i].clone();
            let facts = match body {
                Some((open, close)) => extract_facts(file, &toks, open + 1, close),
                None => FnFacts::default(),
            };
            out.push(FnDef {
                crate_name: crate_name.to_string(),
                owner,
                name: name_tok.text.clone(),
                file: file.path.clone(),
                line: toks[i].line,
                is_pub,
                facts,
            });
            // Continue *inside* the body so nested fns are indexed too
            // (their facts are also attributed to the outer fn — a
            // conservative double count).
            i += 2;
        } else {
            i += 1;
        }
    }
}

/// Whether the `impl`/`trait` keyword at `kw` sits at item position
/// (start of file, or after `}` / `;` / `{` / `]` / `unsafe`) rather
/// than in a type position such as `-> impl Iterator`.
fn item_position(toks: &[&Tok], kw: usize) -> bool {
    match kw.checked_sub(1).map(|p| toks[p].text.as_str()) {
        None => true,
        Some("}" | ";" | "{" | "]" | "unsafe" | "pub") => true,
        Some(_) => false,
    }
}

/// Parses the owner type of an `impl`/`trait` header starting at `kw`;
/// returns `(owner, index_of_open_brace)`.
fn impl_owner(toks: &[&Tok], kw: usize) -> Option<(String, usize)> {
    let mut j = kw + 1;
    let mut idents: Vec<(usize, String)> = Vec::new();
    let mut angle = 0i32;
    let mut for_at: Option<usize> = None;
    while j < toks.len() {
        let t = toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle <= 0 => {
                // `impl Trait for Type` → Type; `impl Type` → last path
                // segment before `{` (skipping generic params).
                let owner = match for_at {
                    Some(at) => idents.iter().find(|(k, _)| *k > at).map(|(_, s)| s.clone()),
                    None => idents.last().map(|(_, s)| s.clone()),
                };
                return owner.map(|o| (o, j));
            }
            ";" if angle <= 0 => return None,
            "for" if angle <= 0 => for_at = Some(j),
            "where" if angle <= 0 => {
                // Generic bounds may mention types; owner is already
                // determined by what came before.
                let owner = match for_at {
                    Some(at) => idents.iter().find(|(k, _)| *k > at).map(|(_, s)| s.clone()),
                    None => idents.last().map(|(_, s)| s.clone()),
                };
                // Skip ahead to the opening brace.
                let mut k = j;
                while k < toks.len() && toks[k].text != "{" {
                    k += 1;
                }
                return owner.map(|o| (o, k));
            }
            _ if t.kind == TokKind::Ident && angle <= 0 && t.text != "dyn" => {
                idents.push((j, t.text.clone()));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Whether the tokens immediately before a `fn` mark it `pub` (and not
/// `pub(crate)` / `pub(super)` / `pub(in …)`).
fn is_pub_before(toks: &[&Tok], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        match toks[j].text.as_str() {
            "const" | "unsafe" | "async" | "extern" => continue,
            ")" => {
                // Possibly the close of `pub(crate)`: walk to its open.
                let mut depth = 1usize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        ")" => depth += 1,
                        "(" => depth -= 1,
                        _ => {}
                    }
                }
                if j > 0 && toks[j - 1].text == "pub" {
                    return false; // pub(crate)-style restricted visibility
                }
                return false;
            }
            "pub" => return true,
            _ => {
                if toks[j].kind == TokKind::Str {
                    continue; // extern "C"
                }
                return false;
            }
        }
    }
    false
}

/// Index of the `}` matching the `{` at `open`.
fn matching_close(toks: &[&Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len() - 1
}

/// Scans a body token range `[start, end)` into [`FnFacts`].
fn extract_facts(file: &SourceFile, toks: &[&Tok], start: usize, end: usize) -> FnFacts {
    let mut facts = FnFacts::default();
    let mut i = start;
    while i < end {
        let t = toks[i];
        if let Some(kind) = panic_site(file, toks, i) {
            facts.panics.push((kind, t.line));
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let next_open = toks.get(i + 1).is_some_and(|n| n.text == "(");
        let next_bang = toks.get(i + 1).is_some_and(|n| n.text == "!");
        let after_dot = i > 0 && toks[i - 1].text == ".";
        let qualified = i >= 2 && toks[i - 1].text == ":" && toks[i - 2].text == ":";

        // Macros.
        if next_bang {
            if ALLOC_MACROS.contains(&name) {
                facts.allocs.push((format!("{name}!"), t.line));
            }
            i += 2;
            continue;
        }

        if !next_open || NOT_CALLS.contains(&name) {
            i += 1;
            continue;
        }

        // Allocation shapes.
        if after_dot && ALLOC_METHODS.contains(&name) {
            facts.allocs.push((format!(".{name}()"), t.line));
        }
        if after_dot && name == "clone" {
            facts.clones.push(t.line);
        }
        let mut qual_head: Option<String> = None;
        if qualified {
            // Walk the `::`-path back to its head segment.
            let mut k = i;
            let mut head: Option<&str> = None;
            while k >= 2 && toks[k - 1].text == ":" && toks[k - 2].text == ":" {
                // Skip turbofish closes between segments.
                let mut p = k - 2;
                if p > 0 && toks[p - 1].text == ">" {
                    let mut angle = 1i32;
                    while p > 0 && angle > 0 {
                        p -= 1;
                        match toks[p].text.as_str() {
                            ">" => angle += 1,
                            "<" => angle -= 1,
                            _ => {}
                        }
                    }
                }
                if p == 0 || toks[p - 1].kind != TokKind::Ident {
                    break;
                }
                head = Some(&toks[p - 1].text);
                k = p - 1;
                if k < 2 {
                    break;
                }
            }
            qual_head = head.map(str::to_string);
        }
        if let Some(q) = &qual_head {
            if ALLOC_QUALIFIED.contains(&(q.as_str(), name)) {
                facts.allocs.push((format!("{q}::{name}"), t.line));
            }
        }

        // A call site.
        let recv = if after_dot {
            // `self.m(` — only when the receiver really is bare `self`.
            let self_recv = i >= 2
                && toks[i - 2].text == "self"
                && (i < 3 || toks[i - 3].text != ".")
                && (i < 3 || toks[i - 3].text != ":");
            if self_recv {
                Recv::SelfRecv
            } else {
                Recv::Method
            }
        } else if let Some(q) = qual_head {
            Recv::Qualified(q)
        } else {
            Recv::Free
        };
        facts.calls.push(CallSite {
            name: name.to_string(),
            recv,
            line: t.line,
        });
        i += 1;
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[(&str, &str, &str)]) -> CallGraph {
        let files: Vec<(String, SourceFile)> = srcs
            .iter()
            .map(|(krate, path, src)| (krate.to_string(), SourceFile::parse(path, src)))
            .collect();
        let refs: Vec<(String, &SourceFile)> = files.iter().map(|(k, f)| (k.clone(), f)).collect();
        CallGraph::build(&refs)
    }

    #[test]
    fn impl_owner_and_self_calls_resolve_precisely() {
        let g = graph(&[(
            "core",
            "crates/core/src/x.rs",
            "impl System { pub fn tick(&mut self) { self.step(); } fn step(&mut self) {} }\n\
             impl Other { fn step(&mut self) { x.unwrap(); } }\n",
        )]);
        let tick = g.find(Some("System"), "tick")[0];
        let sys_step = g.find(Some("System"), "step")[0];
        let other_step = g.find(Some("Other"), "step")[0];
        assert_eq!(g.edges[tick], vec![sys_step]);
        let can = g.can_panic();
        assert!(!can[tick], "self-call must not leak to Other::step");
        assert!(can[other_step]);
    }

    #[test]
    fn method_calls_edge_to_every_same_named_method() {
        let g = graph(&[(
            "core",
            "crates/core/src/x.rs",
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
             fn drive(h: &dyn H) { h.go(); }\n",
        )]);
        let drive = g.find(None, "drive")[0];
        assert_eq!(g.edges[drive].len(), 2, "conservative trait dispatch");
    }

    #[test]
    fn cycles_terminate() {
        let g = graph(&[(
            "core",
            "crates/core/src/x.rs",
            "fn a() { b(); }\nfn b() { a(); panic!(\"x\"); }\n",
        )]);
        let a = g.find(None, "a")[0];
        let reach = g.reachable(&[a]);
        assert!(reach.iter().all(|&r| r));
        assert!(g.can_panic()[a]);
    }

    #[test]
    fn pub_detection_excludes_pub_crate() {
        let g = graph(&[(
            "core",
            "crates/core/src/x.rs",
            "pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\n",
        )]);
        assert!(g.fns[g.find(None, "a")[0]].is_pub);
        assert!(!g.fns[g.find(None, "b")[0]].is_pub);
        assert!(!g.fns[g.find(None, "c")[0]].is_pub);
    }

    #[test]
    fn trait_for_impl_owner_is_the_type() {
        let g = graph(&[(
            "store",
            "crates/store/src/lib.rs",
            "impl ResultStore for Store { fn load(&self) { self.load_result(); } }\n\
             impl Store { fn load_result(&self) { fs::read_to_string(\"x\"); } }\n",
        )]);
        let load = g.find(Some("Store"), "load")[0];
        let inner = g.find(Some("Store"), "load_result")[0];
        assert_eq!(g.edges[load], vec![inner]);
    }

    #[test]
    fn cross_crate_free_calls_resolve() {
        let g = graph(&[
            (
                "core",
                "crates/core/src/a.rs",
                "pub fn caller() { helper(); }\n",
            ),
            (
                "dram",
                "crates/dram/src/b.rs",
                "pub fn helper() { x.unwrap(); }\n",
            ),
        ]);
        let caller = g.find(None, "caller")[0];
        assert!(g.can_panic()[caller], "panic propagates across crates");
    }

    #[test]
    fn qualified_names_are_stable() {
        let g = graph(&[(
            "core",
            "crates/core/src/x.rs",
            "impl System { pub fn tick(&mut self) {} }\npub fn free() {}\n",
        )]);
        let names: Vec<String> = g.fns.iter().map(FnDef::qualified).collect();
        assert!(names.contains(&"core::System::tick".to_string()));
        assert!(names.contains(&"core::free".to_string()));
    }
}
