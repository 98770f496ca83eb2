//! A small, dependency-free JSON document model with an emitter and a
//! parser.
//!
//! The query layer (`mcm-query`) renders every report as a
//! schema-versioned JSON document; this module is the in-tree
//! serialization substrate, so the workspace stays free of network
//! dependencies. The emitter produces canonical output (object key order
//! preserved, shortest round-tripping floats), and the parser accepts any
//! RFC 8259 document, so `parse(emit(doc)) == doc` for every document
//! whose floats are finite — the golden-file tests and the CI
//! `json-smoke` job rely on that round trip. (JSON has no NaN/infinity;
//! a non-finite [`Json::Float`] emits as `null`, so build ratio fields
//! from finite values only.)
//!
//! ## Example
//!
//! ```
//! use mcm_core::json::Json;
//!
//! let doc = Json::object([
//!     ("schema_version", Json::from(1u64)),
//!     ("models", Json::from(vec![Json::from("SC"), Json::from("TSO")])),
//! ]);
//! let text = doc.pretty();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back, doc);
//! assert_eq!(back.get("schema_version").and_then(Json::as_u64), Some(1));
//! ```

use std::fmt;

/// A JSON value: the document model shared by the emitter and parser.
///
/// Numbers are split into [`Json::Int`] and [`Json::Float`] so integer
/// counters survive a round trip exactly; the two variants never compare
/// equal, and the emitter keeps them distinct (`4` vs `4.0`).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (no decimal point or exponent in the source).
    Int(i64),
    /// A non-integer number. Only finite values are representable; the
    /// emitter writes NaN or infinity as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, with insertion order preserved (reports render their
    /// keys in a stable, documented order).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by mapping `f` over `items`.
    pub fn array_of<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> Json) -> Json {
        Json::Array(items.into_iter().map(f).collect())
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as unsigned, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The numeric payload widened to `f64` (integers included).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line rendering.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        Writer::compact(&mut out).value(self, 0);
        out
    }

    /// Pretty rendering: two-space indentation, one field or element per
    /// line, trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        Writer::pretty(&mut out).value(self, 0);
        out.push('\n');
        out
    }

    /// Removes every object field named in `keys`, at any nesting depth.
    ///
    /// Reports carry volatile wall-clock fields (`elapsed_ms`) alongside
    /// deterministic payloads; black-box harnesses that compare a served
    /// document against a directly computed one strip the volatile keys
    /// first and then demand byte identity on the rest.
    pub fn strip_keys(&mut self, keys: &[&str]) {
        match self {
            Json::Object(pairs) => {
                pairs.retain(|(k, _)| !keys.contains(&k.as_str()));
                for (_, v) in pairs.iter_mut() {
                    v.strip_keys(keys);
                }
            }
            Json::Array(items) => {
                for item in items.iter_mut() {
                    item.strip_keys(keys);
                }
            }
            _ => {}
        }
    }

    /// Parses a JSON document. The whole input must be one value plus
    /// optional trailing whitespace.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset and what went wrong.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// The emitter's one layout implementation. [`Json::compact`] and
/// [`Json::pretty`] write through it, and so does a caller that emits a
/// value too large to build as a tree first (a sweep report's verdict
/// matrix): nesting `array`/`object` calls with scalar values lays out
/// exactly the bytes that writing the equivalent [`Json`] would.
///
/// ```
/// use mcm_core::json::{Json, Writer};
///
/// let rows = [[true, false], [false, false]];
/// let mut out = String::new();
/// let mut writer = Writer::pretty(&mut out);
/// writer.object(0, 1, |w, _| {
///     w.key("rows");
///     w.array(1, rows.len(), |w, r| {
///         w.array(2, rows[r].len(), |w, c| w.value(&Json::Bool(rows[r][c]), 3));
///     });
/// });
/// let tree = Json::object([(
///     "rows",
///     Json::array_of(&rows, |row| Json::array_of(row, |&b| Json::Bool(b))),
/// )]);
/// assert_eq!(out + "\n", tree.pretty());
/// ```
pub struct Writer<'a> {
    out: &'a mut String,
    /// Spaces per nesting level; `None` is the compact layout.
    indent: Option<usize>,
}

impl<'a> Writer<'a> {
    /// The pretty layout of [`Json::pretty`], without its trailing newline.
    pub fn pretty(out: &'a mut String) -> Self {
        Writer {
            out,
            indent: Some(2),
        }
    }

    /// The single-line layout of [`Json::compact`].
    pub fn compact(out: &'a mut String) -> Self {
        Writer { out, indent: None }
    }

    /// Writes `value`, whose opening bracket sits at nesting `depth`.
    pub fn value(&mut self, value: &Json, depth: usize) {
        match value {
            Json::Null => self.out.push_str("null"),
            Json::Bool(true) => self.out.push_str("true"),
            Json::Bool(false) => self.out.push_str("false"),
            Json::Int(n) => {
                let _ = fmt::Write::write_fmt(self.out, format_args!("{n}"));
            }
            Json::Float(x) if x.is_finite() => {
                // `{:?}` for f64 is Rust's shortest round-tripping form
                // and always contains `.` or `e`, so it re-parses as Float.
                let _ = fmt::Write::write_fmt(self.out, format_args!("{x:?}"));
            }
            Json::Float(_) => self.out.push_str("null"),
            Json::Str(s) => write_string(self.out, s),
            Json::Array(items) => {
                self.array(depth, items.len(), |w, i| w.value(&items[i], depth + 1));
            }
            Json::Object(pairs) => {
                self.object(depth, pairs.len(), |w, i| {
                    w.key(&pairs[i].0);
                    w.value(&pairs[i].1, depth + 1);
                });
            }
        }
    }

    /// Writes an array of `len` elements at nesting `depth`; `item(w, i)`
    /// writes element `i` at depth `depth + 1`.
    pub fn array(&mut self, depth: usize, len: usize, item: impl FnMut(&mut Self, usize)) {
        self.seq(depth, '[', ']', len, item);
    }

    /// Writes an object of `len` fields at nesting `depth`; `field(w, i)`
    /// writes field `i`: its [`Writer::key`], then its value at depth
    /// `depth + 1`.
    pub fn object(&mut self, depth: usize, len: usize, field: impl FnMut(&mut Self, usize)) {
        self.seq(depth, '{', '}', len, field);
    }

    /// Writes an object key and its separator.
    pub fn key(&mut self, key: &str) {
        write_string(self.out, key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }

    fn seq(
        &mut self,
        depth: usize,
        open: char,
        close: char,
        len: usize,
        mut item: impl FnMut(&mut Self, usize),
    ) {
        self.out.push(open);
        if len == 0 {
            self.out.push(close);
            return;
        }
        for i in 0..len {
            if i > 0 {
                self.out.push(',');
            }
            self.line(depth + 1);
            item(self, i);
        }
        self.line(depth);
        self.out.push(close);
    }

    /// Starts a new line indented to `depth` (nothing in compact layout).
    fn line(&mut self, depth: usize) {
        const SPACES: &str = "                                ";
        if let Some(step) = self.indent {
            self.out.push('\n');
            let mut width = step * depth;
            while width > 0 {
                let run = width.min(SPACES.len());
                self.out.push_str(&SPACES[..run]);
                width -= run;
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Counters far beyond i64 do not occur in reports; saturate
        // rather than wrap if one ever does.
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

impl<T> From<Option<T>> for Json
where
    Json: From<T>,
{
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => Json::from(v),
            None => Json::Null,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

/// A parse failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: protects the recursive-descent parser from stack
/// exhaustion on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest plain run in one step.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'u' => {
                let first = self.hex4()?;
                let scalar = if (0xd800..0xdc00).contains(&first) {
                    // High surrogate: a low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    self.pos += 1;
                    let second = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&second) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
                } else {
                    first
                };
                out.push(
                    char::from_u32(scalar)
                        .ok_or_else(|| self.error("escape is not a Unicode scalar"))?,
                );
            }
            _ => return Err(self.error(format!("unknown escape `\\{}`", c as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if is_float {
            let x: f64 = text
                .parse()
                .map_err(|_| self.error(format!("invalid number `{text}`")))?;
            if !x.is_finite() {
                return Err(self.error(format!("number `{text}` out of range")));
            }
            Ok(Json::Float(x))
        } else {
            match text.parse::<i64>() {
                Ok(n) => Ok(Json::Int(n)),
                // Integer overflow: fall back to the float reading rather
                // than reject a syntactically valid document.
                Err(_) => {
                    let x: f64 = text
                        .parse()
                        .map_err(|_| self.error(format!("invalid number `{text}`")))?;
                    Ok(Json::Float(x))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Float(0.5),
            Json::Float(-1e30),
            Json::Str(String::new()),
            Json::Str("hello \"world\"\n\t\\ \u{1F600} \u{7}".to_string()),
        ] {
            let compact = doc.compact();
            assert_eq!(Json::parse(&compact).unwrap(), doc, "compact {compact}");
            let pretty = doc.pretty();
            assert_eq!(Json::parse(&pretty).unwrap(), doc, "pretty {pretty}");
        }
    }

    #[test]
    fn int_and_float_stay_distinct() {
        assert_eq!(Json::parse("4").unwrap(), Json::Int(4));
        assert_eq!(Json::parse("4.0").unwrap(), Json::Float(4.0));
        assert_ne!(Json::Int(4), Json::Float(4.0));
        assert_eq!(Json::Float(4.0).compact(), "4.0");
        assert_eq!(Json::Int(4).compact(), "4");
    }

    #[test]
    fn nested_documents_round_trip() {
        let doc = Json::object([
            ("schema_version", Json::from(1u64)),
            ("empty_obj", Json::object(Vec::<(String, Json)>::new())),
            ("empty_arr", Json::Array(vec![])),
            (
                "matrix",
                Json::Array(vec![
                    Json::Array(vec![Json::Bool(true), Json::Bool(false)]),
                    Json::Array(vec![Json::Null, Json::Int(3)]),
                ]),
            ),
            ("nested", Json::object([("k", Json::from("v"))])),
        ]);
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let compact = doc.compact();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        assert!(!compact.contains('\n'));
    }

    #[test]
    fn key_order_is_preserved() {
        let doc = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn accessors_extract_payloads() {
        let doc = Json::parse(r#"{"s": "x", "b": true, "n": 7, "f": 1.5, "a": [1], "nul": null}"#)
            .unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("n").and_then(Json::as_i64), Some(7));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert!(doc.get("nul").unwrap().is_null());
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""Aé😀""#).unwrap(),
            Json::Str("Aé😀".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate");
        assert!(Json::parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "", "{", "}", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "nul", "tru", "01x",
            "\"abc", "{\"a\":1,}x", "1 2", "--1", "1e", "\u{1F600}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must fail");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // Under the cap, fine.
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn from_impls_cover_report_building() {
        assert_eq!(Json::from(3usize), Json::Int(3));
        assert_eq!(Json::from(3u64), Json::Int(3));
        assert_eq!(Json::from(u64::MAX), Json::Int(i64::MAX));
        assert_eq!(Json::from(Some("x")), Json::Str("x".to_string()));
        assert_eq!(Json::from(None::<&str>), Json::Null);
        assert_eq!(Json::from("x".to_string()), Json::Str("x".to_string()));
        assert_eq!(Json::array_of([1i64, 2], Json::from).compact(), "[1,2]");
    }

    #[test]
    fn strip_keys_removes_fields_at_every_depth() {
        let mut doc = Json::parse(
            r#"{"elapsed_ms": 1.5, "keep": {"elapsed_ms": 2, "x": [{"elapsed_ms": 3, "y": 1}]}}"#,
        )
        .unwrap();
        doc.strip_keys(&["elapsed_ms"]);
        assert_eq!(
            doc,
            Json::parse(r#"{"keep": {"x": [{"y": 1}]}}"#).unwrap()
        );
        // Stripping a key that never occurs is a no-op.
        let before = doc.clone();
        doc.strip_keys(&["missing"]);
        assert_eq!(doc, before);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }
}
