//! Cross-check of `docs/SCENARIOS.md` against the scenario parser's
//! `ACCEPTED_KEYS` table (S family).
//!
//! The scenario parser (`crates/core/src/scenario.rs`) validates every
//! document key against its `ACCEPTED_KEYS` const, and `docs/SCENARIOS.md`
//! documents each key as the first cell of a schema table row. This module
//! extracts both sides textually and the engine compares them in both
//! directions:
//!
//! * **S001** — a key the parser accepts has no table row in the document
//!   (the schema reference is incomplete);
//! * **S002** — a documented key is not in `ACCEPTED_KEYS` (the document
//!   describes a key the parser would reject).

/// One key with the 1-based line it was found on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyEntry {
    /// Full dotted key path (e.g. `machine.memory.stacks[].mcs`).
    pub key: String,
    /// Line in the source or docs file.
    pub line: u32,
}

/// Extracts the `ACCEPTED_KEYS` string literals from the scenario parser's
/// source text, in order. Returns an empty list when no
/// `pub const ACCEPTED_KEYS` block is present.
pub fn parser_keys(source: &str) -> Vec<KeyEntry> {
    let mut keys = Vec::new();
    let mut in_table = false;
    for (i, line) in source.lines().enumerate() {
        let line_no = (i + 1) as u32;
        if !in_table {
            if line.contains("pub const ACCEPTED_KEYS") {
                in_table = true;
            }
            continue;
        }
        if line.trim_start().starts_with("];") {
            break;
        }
        // Each entry is one double-quoted literal; comments carry none.
        let mut rest = line;
        while let Some(open) = rest.find('"') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('"') else { break };
            keys.push(KeyEntry {
                key: after[..close].to_string(),
                line: line_no,
            });
            rest = &after[close + 1..];
        }
    }
    keys
}

/// Extracts the documented schema keys from the markdown text: the first
/// backtick-quoted token of each table row (lines starting with `|`),
/// keeping only key-shaped tokens — `machine`, `machine.…`, or one of the
/// top-level `schema` / `name` / `description` keys. Prose and code-block
/// mentions are deliberately ignored so error-message examples cannot
/// satisfy (or fail) the cross-check.
pub fn documented_keys(text: &str) -> Vec<KeyEntry> {
    let mut keys = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let first_cell = line.trim_start_matches('|').split('|').next().unwrap_or("");
        let Some(token) = first_backtick_token(first_cell) else {
            continue;
        };
        if is_key_shaped(&token) {
            keys.push(KeyEntry {
                key: token,
                line: (i + 1) as u32,
            });
        }
    }
    keys
}

fn first_backtick_token(cell: &str) -> Option<String> {
    let open = cell.find('`')?;
    let after = &cell[open + 1..];
    let close = after.find('`')?;
    Some(after[..close].to_string())
}

fn is_key_shaped(token: &str) -> bool {
    if matches!(token, "schema" | "name" | "description") {
        return true;
    }
    (token == "machine" || token.starts_with("machine."))
        && token
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._[]".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = r#"
/// Doc comment mentioning "not a key".
pub const ACCEPTED_KEYS: &[&str] = &[
    "schema",
    "machine.cores",
    "machine.memory.stacks[].mcs", // trailing comment
];
const OTHER: &[&str] = &["ignored"];
"#;

    #[test]
    fn parser_keys_are_extracted_in_order() {
        let keys = parser_keys(SOURCE);
        let names: Vec<&str> = keys.iter().map(|k| k.key.as_str()).collect();
        assert_eq!(
            names,
            ["schema", "machine.cores", "machine.memory.stacks[].mcs"]
        );
        assert_eq!(keys[0].line, 4);
    }

    #[test]
    fn no_table_means_no_keys() {
        assert!(parser_keys("fn main() {}").is_empty());
    }

    const DOC: &str = "\
# Scenarios

Prose mentions `machine.bogus` and `scenarios/2d.json`.

| Key | Type |
|---|---|
| `schema` | string |
| `machine.cores` | integer |
| `Machines::builtin()` | constructor |

```text
| `machine.fenced` | inside a code block, but still a table row |
```
";

    #[test]
    fn documented_keys_come_from_table_rows_only() {
        let keys = documented_keys(DOC);
        let names: Vec<&str> = keys.iter().map(|k| k.key.as_str()).collect();
        // `machine.bogus` is prose, `Machines::builtin()` is not key-shaped;
        // fenced table rows are indistinguishable from real ones, which is
        // fine — fenced examples should not document unknown keys either.
        assert_eq!(names, ["schema", "machine.cores", "machine.fenced"]);
        assert_eq!(keys[0].line, 7);
    }

    #[test]
    fn key_shapes() {
        assert!(is_key_shaped("machine"));
        assert!(is_key_shaped("machine.memory.stacks[].ranks"));
        assert!(is_key_shaped("description"));
        assert!(!is_key_shaped("machine.Foo"));
        assert!(!is_key_shaped("machines"));
        assert!(!is_key_shaped("--scenario"));
    }
}
