//! Minimal JSON emitter and parser shared across the workspace.
//!
//! The workspace builds fully offline, so instead of an external
//! serialization crate this small value tree, pretty/compact printers,
//! and recursive-descent parser live here, next to the JSON-lines
//! subscriber whose output they speak. Users: the bench harness's
//! archival output and the `trace_check` validator (via the
//! `accpar_bench::json` re-export), and the persistent plan cache's
//! record codec in `accpar-core`.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number. Non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks a key up in an object (`None` on missing key or non-object).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the first
    /// syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Pretty-prints with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Renders on one line with no whitespace — the JSON-lines record
    /// form. Deterministic for a given value tree (keys keep insertion
    /// order), which the plan cache relies on for checksummed records.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) if n.is_finite() => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", escape(k));
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) if n.is_finite() => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{pad}\"{}\": ", escape(k));
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash in one step. Both are ASCII, so the run ends on
            // a character boundary of the `&str` input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&rest[..run]).map_err(|_| "invalid utf-8".to_string())?,
            );
            self.pos += run;
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a backslash.
                Some(_) => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            // Unpaired surrogates decode to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Num(3.0).pretty(), "3");
        assert_eq!(Json::Num(0.25).pretty(), "0.25");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::str("a\"b\n").pretty(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn compact_is_one_line_and_roundtrips() {
        let v = Json::obj(vec![
            ("key", Json::str("a\"b")),
            ("n", Json::from(0.625)),
            ("arr", Json::from(vec![1.0, 2.0])),
            ("obj", Json::obj(vec![("x", Json::Null)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n') && !line.contains(": "));
        assert_eq!(line, "{\"key\":\"a\\\"b\",\"n\":0.625,\"arr\":[1,2],\"obj\":{\"x\":null},\"empty\":[]}");
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn parse_roundtrips_pretty_output() {
        let v = Json::obj(vec![
            ("kind", Json::str("event")),
            ("ts_ns", Json::from(12345.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("fields", Json::obj(vec![("ratio", Json::from(0.625))])),
            ("arr", Json::from(vec![1.0, 2.0])),
        ]);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        let line = "{\"name\":\"a\\\"b\\nc\",\"u\":\"\\u0041\"}";
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b\nc"));
        assert_eq!(v.get("u").and_then(Json::as_str), Some("A"));
        assert_eq!(v.get("missing"), None);
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        assert_eq!(Json::parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
    }

    #[test]
    fn multibyte_text_next_to_escapes_decodes() {
        let line = "[\"h\u{e9}\\\"llo\", \"\\n\u{65e5}\u{672c}\\t\", \"\u{1f600}\\\\\u{fc}\"]";
        let v = Json::parse(line).unwrap();
        let Json::Arr(items) = v else { panic!("not an array") };
        let strs: Vec<_> = items.iter().map(|j| j.as_str().unwrap()).collect();
        assert_eq!(strs, ["h\u{e9}\"llo", "\n\u{65e5}\u{672c}\t", "\u{1f600}\\\u{fc}"]);
        // And back through the emitter.
        assert_eq!(Json::parse(&Json::Arr(items.clone()).compact()).unwrap(), Json::Arr(items));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""\u00e9\u65E5x\u0041\ud800""#).unwrap();
        // Upper- and lowercase hex; an unpaired surrogate becomes U+FFFD.
        assert_eq!(v.as_str(), Some("\u{e9}\u{65e5}xA\u{fffd}"));
        assert!(Json::parse(r#""\u00""#).is_err(), "truncated escape");
        assert!(Json::parse(r#""\u00zz""#).is_err(), "non-hex escape");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for text in ["\"abc", "\"", "\"ab\\\"", "{\"k\":\"\u{e9}"] {
            assert_eq!(Json::parse(text), Err("unterminated string".to_string()), "{text:?}");
        }
        // A backslash with nothing after it is a broken escape.
        assert!(Json::parse("\"ab\\").is_err());
    }

    #[test]
    fn nested_structure_renders() {
        let v = Json::obj(vec![
            ("rows", Json::from(vec![1.0, 2.5])),
            ("name", Json::str("fig")),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = v.pretty();
        assert!(text.starts_with("{\n"));
        assert!(text.contains("\"rows\": [\n"));
        assert!(text.contains("2.5"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with('}'));
        // Balanced braces and brackets.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                text.matches(open).count(),
                text.matches(close).count()
            );
        }
    }
}
