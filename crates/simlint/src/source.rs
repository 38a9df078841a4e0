//! Per-file analysis context: token stream, `#[cfg(test)]` / `#[test]`
//! region detection, and `simlint::allow` pragma extraction.

use crate::lexer::{lex, Tok};

/// A `// simlint::allow(RULE, reason = "…")` pragma attached to a source
/// line. A pragma on its own line covers the next non-comment line; a
/// trailing pragma covers its own line.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// Rule id the pragma suppresses (e.g. `D003`).
    pub rule: String,
    /// The justification text. Empty means the pragma is malformed.
    pub reason: String,
    /// Line the pragma comment appears on.
    pub line: u32,
    /// Line whose findings the pragma suppresses.
    pub target_line: u32,
}

/// A lexed file plus the structural facts the rules need.
pub struct SourceFile {
    /// Workspace-relative path, used in diagnostics.
    pub path: String,
    /// Token stream from [`lex`].
    pub tokens: Vec<Tok>,
    /// Inclusive line ranges that are test-only code.
    pub test_ranges: Vec<(u32, u32)>,
    /// All well-formed or malformed pragmas found in comments.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    /// Lexes and analyzes one file.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let test_ranges = find_test_ranges(&tokens);
        let pragmas = find_pragmas(&tokens);
        SourceFile {
            path: path.to_string(),
            tokens,
            test_ranges,
            pragmas,
        }
    }

    /// Whether `line` falls inside test-only code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Pragmas whose target is `line` and whose rule is `rule`.
    pub fn pragma_for(&self, line: u32, rule: &str) -> Option<&Pragma> {
        self.pragmas
            .iter()
            .find(|p| p.target_line == line && p.rule == rule && !p.reason.is_empty())
    }
}

/// Finds the inclusive line ranges of items gated by `#[cfg(test)]`,
/// `#[test]`, `#[should_panic]`, or `#[bench]` attributes.
///
/// The scan is token-level: after a test attribute, the item extends to the
/// matching close of the first `{` opened at the item's brace depth (a `mod`
/// or `fn` body), or to the first `;` for braceless items.
fn find_test_ranges(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let toks: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            let (attr_end, is_test) = scan_attribute(&toks, i + 1);
            if is_test {
                let start_line = toks[i].line;
                let end_line = item_end_line(&toks, attr_end + 1);
                ranges.push((start_line, end_line));
                // Continue *after* the whole item so nested attributes inside
                // an already-marked region don't extend it spuriously.
                while i < toks.len() && toks[i].line <= end_line {
                    i += 1;
                }
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Scans an attribute starting at the `[` index; returns the index of the
/// closing `]` and whether the attribute marks test-only code.
fn scan_attribute(toks: &[&Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut saw_not = false;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i, is_test);
                }
            }
            "cfg" | "cfg_attr" => saw_cfg = true,
            "not" if saw_cfg => saw_not = true,
            "test" if saw_cfg && !saw_not => is_test = true,
            "test" | "should_panic" | "bench" if i == open + 1 => is_test = true,
            _ => {}
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), is_test)
}

/// The last line of the item starting at token `i` (skipping further
/// attributes): the matching `}` of its first brace, or the first `;`.
fn item_end_line(toks: &[&Tok], mut i: usize) -> u32 {
    // Skip subsequent attributes (`#[test] #[ignore] fn …`).
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        let (end, _) = scan_attribute(toks, i + 1);
        i = end + 1;
    }
    let mut j = i;
    while j < toks.len() {
        match toks[j].text.as_str() {
            ";" => return toks[j].line,
            "{" => {
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return toks[j].line;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                break;
            }
            _ => j += 1,
        }
    }
    toks.last().map(|t| t.line).unwrap_or(1)
}

/// Extracts `simlint::allow` pragmas from comment tokens.
fn find_pragmas(tokens: &[Tok]) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        // Only comments that *are* pragmas count — prose or doc examples
        // that merely mention the syntax are ignored.
        let body = tok.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("simlint::allow") {
            continue;
        }
        // A pragma comment that starts a line covers the next code line;
        // a trailing pragma covers its own line.
        let own_line_has_code = tokens[..idx]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let target_line = if own_line_has_code {
            tok.line
        } else {
            tokens[idx..]
                .iter()
                .find(|t| !t.is_comment())
                .map(|t| t.line)
                .unwrap_or(tok.line)
        };
        let mut rest = tok.text.as_str();
        while let Some(at) = rest.find("simlint::allow") {
            rest = &rest[at + "simlint::allow".len()..];
            if let Some((rule, reason, tail)) = parse_allow_args(rest) {
                pragmas.push(Pragma {
                    rule,
                    reason,
                    line: tok.line,
                    target_line,
                });
                rest = tail;
            } else {
                // Malformed: record with empty reason so the engine can flag it.
                pragmas.push(Pragma {
                    rule: String::new(),
                    reason: String::new(),
                    line: tok.line,
                    target_line,
                });
                break;
            }
        }
    }
    pragmas
}

/// Parses `(RULE, reason = "…")` returning `(rule, reason, rest)`.
fn parse_allow_args(s: &str) -> Option<(String, String, &str)> {
    let s = s.trim_start();
    let s = s.strip_prefix('(')?;
    let comma = s.find(',')?;
    let rule = s[..comma].trim().to_string();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    let s = &s[comma + 1..];
    let s = s.trim_start().strip_prefix("reason")?.trim_start();
    let s = s.strip_prefix('=')?.trim_start();
    let s = s.strip_prefix('"')?;
    let close = s.find('"')?;
    let reason = s[..close].to_string();
    if reason.trim().is_empty() {
        return None;
    }
    let rest = &s[close + 1..];
    let rest = rest.trim_start().strip_prefix(')').unwrap_or(rest);
    Some((rule, reason, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mod_range_covers_body() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_fn_with_extra_attrs() {
        let src = "#[test]\n#[ignore]\nfn t() {\n    boom();\n}\nfn real() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(feature = \"x\")]\nfn a() { b(); }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.is_test_line(2));
        let src = "#[cfg(not(test))]\nfn a() { b(); }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn pragma_targets_next_code_line() {
        let src = "// simlint::allow(D003, reason = \"memo drain is order-insensitive\")\nfor k in m.keys() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let p = f
            .pragma_for(2, "D003")
            .expect("pragma should bind to line 2");
        assert_eq!(p.reason, "memo drain is order-insensitive");
    }

    #[test]
    fn trailing_pragma_targets_own_line() {
        let src = "let x = m.keys(); // simlint::allow(D003, reason = \"sorted below\")\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.pragma_for(1, "D003").is_some());
    }

    #[test]
    fn prose_mentions_are_not_pragmas() {
        let src = "//! The `simlint::allow` pragma syntax is documented elsewhere.\nfn a() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.pragmas.is_empty());
        let src = "// let x = lex(\"// simlint::allow(D003, reason = \\\"w\\\")\");\nfn a() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.pragmas.is_empty());
    }

    #[test]
    fn pragma_without_reason_is_malformed() {
        let src = "// simlint::allow(D003)\nlet x = 1;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.pragma_for(2, "D003").is_none());
        assert!(f.pragmas.iter().any(|p| p.reason.is_empty()));
    }
}
