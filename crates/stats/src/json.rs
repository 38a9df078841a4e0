//! A minimal, dependency-free JSON value with a writer and a
//! recursive-descent parser.
//!
//! The simulator's export formats are deliberately small (flat objects,
//! arrays, strings, numbers), so a full serde stack would be dead weight —
//! this module implements exactly the subset the metrics pipeline emits and
//! reads back: the complete JSON grammar over UTF-8 strings, with object
//! member order preserved (members are stored as a `Vec`, not a map).
//!
//! # Examples
//!
//! ```
//! use stacksim_stats::Json;
//!
//! let v = Json::parse(r#"{"name": "l2", "hits": 90, "tags": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("hits").and_then(Json::as_f64), Some(90.0));
//! let text = v.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use core::fmt;

/// A JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/Infinity; the writer rejects them).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

/// A JSON parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim_stats::Json;
    ///
    /// assert_eq!(Json::parse("3.5").unwrap().as_f64(), Some(3.5));
    /// assert!(Json::parse("3.5 junk").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on other variants or a missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves a member's value out of an object, leaving `null` in its
    /// place; `None` on other variants or a missing key.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(members) => members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| core::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub const fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON with two-space indentation
    /// and a trailing newline (the on-disk format of `reproduce --out`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_json_number(out, *n),
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_compact(&mut s);
        f.write_str(&s)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a number the shortest way that round-trips: integers without a
/// fractional part (exact for counters up to 2^53), everything else via
/// Rust's shortest-roundtrip float formatting. Non-finite values render as
/// `null` per JSON's grammar.
fn write_json_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64).expect("string write");
    } else {
        write!(out, "{n}").expect("string write");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a maximal run of plain bytes in one slice.
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            s.push_str(
                core::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            s.push(self.unicode_escape()?);
                            continue; // unicode_escape advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uXXXX low.
        if (0xD800..0xDC00).contains(&code) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = core::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn take_moves_a_member_out() {
        let mut v = Json::parse(r#"{"a": 1, "c": "x"}"#).unwrap();
        assert_eq!(v.take("c"), Some(Json::Str("x".into())));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.take("nope"), None);
        assert_eq!(Json::Num(1.0).take("a"), None);
    }

    #[test]
    fn preserves_member_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("quote \" slash \\ newline \n tab \t unicode \u{1F600}".into());
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn pretty_round_trips() {
        let v =
            Json::parse(r#"{"m": {"hits": 90, "rate": 0.9}, "list": [1, 2], "e": {}}"#).unwrap();
        let pretty = v.pretty();
        assert!(pretty.contains("  \"m\": {"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", r#"{"a" 1}"#, "tru", "1 2", "{1: 2}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1, ?]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{ }").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::Obj(vec![]).pretty(), "{}\n");
    }

    #[test]
    fn control_and_unicode_heavy_strings_round_trip() {
        // Every control character, both escape styles' targets, and
        // multi-byte text — in values and in keys.
        let controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let spicy = format!("{controls} \"\\/ é λ 中文 \u{FFFD} \u{1F600}");
        let v = Json::Obj(vec![
            (spicy.clone(), Json::Str(spicy.clone())),
            ("plain".into(), Json::Str(controls)),
        ]);
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
        // The two escape spellings of the same string parse identically.
        assert_eq!(
            Json::parse(r#""Aé😀""#).unwrap(),
            Json::Str("Aé\u{1F600}".into())
        );
    }

    #[test]
    fn deep_nesting_round_trips() {
        // 256 alternating object/array levels, well past any realistic
        // metric tree, through both writers and back.
        let mut v = Json::Num(42.0);
        for depth in 0..256usize {
            v = if depth % 2 == 0 {
                Json::Arr(vec![v])
            } else {
                Json::Obj(vec![("d".into(), v)])
            };
        }
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    /// Deterministic generator state (an LCG — the crate has no RNG
    /// dependency and must not grow one for tests).
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *x >> 33
    }

    fn gen_string(x: &mut u64) -> String {
        const PALETTE: &[char] = &[
            'a',
            'Z',
            '9',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1b}',
            'é',
            'λ',
            '中',
            '\u{FFFD}',
            '\u{1F600}',
        ];
        (0..lcg(x) % 12)
            .map(|_| PALETTE[(lcg(x) as usize) % PALETTE.len()])
            .collect()
    }

    fn gen_value(x: &mut u64, depth: usize) -> Json {
        let leaf_only = depth == 0;
        match lcg(x) % if leaf_only { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(lcg(x).is_multiple_of(2)),
            2 => Json::Num(match lcg(x) % 4 {
                0 => (lcg(x) % 1_000_000) as f64,
                1 => -((lcg(x) % 1_000) as f64),
                2 => (lcg(x) % 1_000_000) as f64 / (lcg(x) % 997 + 1) as f64,
                _ => (lcg(x) % ((1 << 53) - 1)) as f64,
            }),
            3 => Json::Str(gen_string(x)),
            4 => Json::Arr((0..lcg(x) % 4).map(|_| gen_value(x, depth - 1)).collect()),
            _ => Json::Obj(
                (0..lcg(x) % 4)
                    .map(|i| (format!("k{i}{}", gen_string(x)), gen_value(x, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn seeded_generated_documents_round_trip() {
        for seed in 0..200u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let v = gen_value(&mut x, 4);
            for text in [v.to_string(), v.pretty()] {
                assert_eq!(
                    Json::parse(&text).unwrap(),
                    v,
                    "seed {seed} failed on {text:?}"
                );
            }
        }
    }

    #[test]
    fn seeded_truncations_and_mutations_never_panic() {
        for seed in 0..50u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            // Wrap in an object so every strict prefix is structurally
            // incomplete and must be rejected (not just non-panicking).
            let doc = Json::Obj(vec![("v".into(), gen_value(&mut x, 3))]).to_string();
            for end in 1..doc.len() {
                if !doc.is_char_boundary(end) {
                    continue;
                }
                assert!(
                    Json::parse(&doc[..end]).is_err(),
                    "seed {seed}: accepted truncation {:?}",
                    &doc[..end]
                );
            }
            // Single-byte splices may stay valid (inside a string) or not;
            // either way the parser must return, never panic or loop.
            let bytes = doc.as_bytes();
            for i in 0..bytes.len() {
                let mut mutated = bytes.to_vec();
                mutated[i] = b"?{}[]\",:x9\\"[i % 11];
                if let Ok(text) = String::from_utf8(mutated) {
                    let _ = Json::parse(&text);
                }
            }
        }
    }
}
