//! A minimal, dependency-free JSON emitter and parser.
//!
//! The build container has no network access, so `serde_json` is not
//! available; the report serializer only needs to *write* JSON, and only a
//! small subset: objects, arrays, strings, integers and floats. Output is
//! deterministic (insertion order, fixed indentation, shortest round-trip
//! float formatting), which the parallel-vs-serial determinism guard in
//! [`crate::runner`] relies on.
//!
//! The matching [`parse_json`] reader re-loads what the writer emitted:
//! shard manifests on resume and merge, and `BENCH_<id>.json` artifacts in
//! the repo benchmark.

use std::fmt;
use std::fmt::Write as _;

/// Streaming JSON writer with two-space pretty printing (or single-line
/// compact output for line-oriented files such as shard manifests).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has a first element.
    stack: Vec<bool>,
    /// Set between `key()` and the value that follows it.
    pending_key: bool,
    /// Suppress all newlines and indentation (one document per line).
    compact: bool,
}

impl JsonWriter {
    /// Creates an empty pretty-printing writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that emits the whole document on a single line —
    /// the format of shard-manifest (`MANIFEST_*.jsonl`) entries, where one
    /// line is one appended record.
    pub fn compact() -> Self {
        JsonWriter {
            compact: true,
            ..Self::default()
        }
    }

    /// Consumes the writer, returning the serialized document.
    ///
    /// # Panics
    ///
    /// Panics if containers are still open (serializer bug, not input data).
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unbalanced JSON containers");
        self.out
    }

    fn newline_indent(&mut self) {
        if self.compact {
            return;
        }
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Positions the cursor for the next element (comma/indent bookkeeping).
    fn element(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
            self.newline_indent();
        }
    }

    fn close(&mut self, delim: char, was_empty: bool) {
        self.stack.pop().expect("close without open");
        if !was_empty {
            self.newline_indent();
        }
        self.out.push(delim);
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.element();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        let was_empty = !self.stack.last().copied().unwrap_or(false);
        self.close('}', was_empty);
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.element();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        let was_empty = !self.stack.last().copied().unwrap_or(false);
        self.close(']', was_empty);
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, k: &str) {
        self.element();
        self.write_escaped(k);
        self.out.push_str(": ");
        self.pending_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) {
        self.element();
        self.write_escaped(v);
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.element();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float value; non-finite values serialize as `null`.
    pub fn f64(&mut self, v: f64) {
        self.element();
        if v.is_finite() {
            // Shortest round-trip representation; deterministic for a given
            // bit pattern, which the serial-vs-parallel guard depends on.
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Convenience: `"k": "v"`.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Convenience: `"k": 42`.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// Convenience: `"k": 0.5`.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A parsed JSON value.
///
/// Objects preserve key order (the writer's order is deterministic, and
/// trajectory comparison reports drift in a stable order because of it).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced by the writer for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; parsed as `f64`, which losslessly covers every value the
    /// report writer emits (counters fit in 53 bits at any realistic scale).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A JSON parse error with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a JSON document (the subset the writer emits, plus booleans).
///
/// # Errors
///
/// Returns [`JsonParseError`] on malformed input or trailing garbage.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonParseError {
            at: pos,
            message: "trailing characters",
        });
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8, message: &'static str) -> Result<(), JsonParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonParseError { at: *pos, message })
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(JsonParseError {
            at: *pos,
            message: "unexpected end of input",
        }),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: JsonValue,
) -> Result<JsonValue, JsonParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonParseError {
            at: *pos,
            message: "invalid literal",
        })
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    expect(b, pos, b'{', "expected '{'")?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':', "expected ':' after object key")?;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            _ => {
                return Err(JsonParseError {
                    at: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    expect(b, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => {
                return Err(JsonParseError {
                    at: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(b, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(JsonParseError {
                    at: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonParseError {
                                at: *pos,
                                message: "invalid \\u escape",
                            })?;
                        // Surrogate pairs never appear in report output;
                        // lone surrogates map to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonParseError {
                            at: *pos,
                            message: "invalid escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run of plain bytes up to the next quote or
                // backslash. Both are ASCII, so the run starts and ends on
                // scalar boundaries of the `&str` `parse_json` was given.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .expect("a run of a &str between ASCII delimiters"),
                );
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| JsonParseError {
            at: start,
            message: "invalid number",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("id", "fig5");
        w.key("records");
        w.begin_array();
        w.begin_object();
        w.field_f64("ipc", 1.5);
        w.field_u64("cycles", 42);
        w.end_object();
        w.end_array();
        w.key("empty");
        w.begin_array();
        w.end_array();
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            "{\n  \"id\": \"fig5\",\n  \"records\": [\n    {\n      \"ipc\": 1.5,\n      \"cycles\": 42\n    }\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn compact_writer_stays_on_one_line() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.field_str("id", "fig5");
        w.key("records");
        w.begin_array();
        w.u64(1);
        w.f64(0.5);
        w.end_array();
        w.end_object();
        let s = w.finish();
        assert!(!s.contains('\n'), "compact output must be single-line: {s}");
        let v = parse_json(&s).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("fig5"));
    }

    #[test]
    fn escapes_control_characters() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.f64(0.25);
        w.end_array();
        assert_eq!(w.finish(), "[\n  null,\n  null,\n  0.25\n]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("id", "fig5");
        w.field_f64("ipc", 1.5);
        w.field_u64("cycles", 42);
        w.key("records");
        w.begin_array();
        w.begin_object();
        w.field_str("name", "a\"b\\c\n");
        w.field_f64("nanish", f64::NAN);
        w.end_object();
        w.end_array();
        w.end_object();
        let text = w.finish();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("fig5"));
        assert_eq!(v.get("ipc").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("cycles").and_then(JsonValue::as_f64), Some(42.0));
        let records = match v.get("records") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("records must be an array, got {other:?}"),
        };
        assert_eq!(
            records[0].get("name").and_then(JsonValue::as_str),
            Some("a\"b\\c\n")
        );
        assert_eq!(records[0].get("nanish"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_handles_literals_and_numbers() {
        let v = parse_json(" [true, false, null, -2.5e3, 0] ").unwrap();
        assert_eq!(
            v,
            JsonValue::Array(vec![
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null,
                JsonValue::Num(-2500.0),
                JsonValue::Num(0.0),
            ])
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(
            parse_json("\"a\\u0041\"").unwrap(),
            JsonValue::Str("aA".to_string())
        );
    }

    #[test]
    fn multi_byte_scalars_survive_next_to_escapes_and_at_the_end() {
        // 2-, 3- and 4-byte scalars on both sides of every kind of escape.
        let text = "\"é\\n€\\\"𝄞\\\\é\\u00e9€\\t𝄞\"";
        assert_eq!(
            parse_json(text).unwrap(),
            JsonValue::Str("é\n€\"𝄞\\éé€\t𝄞".to_string())
        );
        // The closing quote directly after a multi-byte scalar, and a
        // string that is nothing else.
        for s in ["abc€", "𝄞", "é"] {
            assert_eq!(
                parse_json(&format!("[\"{s}\", 1]")).unwrap(),
                JsonValue::Array(vec![JsonValue::Str(s.to_string()), JsonValue::Num(1.0)])
            );
        }
    }

    #[test]
    fn truncation_inside_a_string_reports_the_end_of_input() {
        let unterminated = |at| JsonParseError {
            at,
            message: "unterminated string",
        };
        assert_eq!(parse_json("\"abc"), Err(unterminated(4)));
        assert_eq!(parse_json("\"ab€"), Err(unterminated(6)));
        assert_eq!(parse_json("{\"k\": \"a\\n"), Err(unterminated(10)));
        assert_eq!(parse_json("\""), Err(unterminated(1)));
        assert_eq!(
            parse_json("\"ab\\"),
            Err(JsonParseError {
                at: 4,
                message: "invalid escape"
            })
        );
        assert_eq!(
            parse_json("\"ab\\u00"),
            Err(JsonParseError {
                at: 4,
                message: "invalid \\u escape"
            })
        );
        // A \u escape whose four bytes end inside a multi-byte scalar.
        assert_eq!(
            parse_json("\"\\u00é\""),
            Err(JsonParseError {
                at: 2,
                message: "invalid \\u escape"
            })
        );
    }

    fn emit(w: &mut JsonWriter, v: &JsonValue) {
        match v {
            JsonValue::Null => w.f64(f64::NAN),
            JsonValue::Bool(_) => panic!("the report writer emits no booleans"),
            JsonValue::Num(n) => w.f64(*n),
            JsonValue::Str(s) => w.string(s),
            JsonValue::Array(items) => {
                w.begin_array();
                items.iter().for_each(|item| emit(w, item));
                w.end_array();
            }
            JsonValue::Object(pairs) => {
                w.begin_object();
                for (k, item) in pairs {
                    w.key(k);
                    emit(w, item);
                }
                w.end_object();
            }
        }
    }

    #[test]
    fn largest_baseline_round_trips_byte_for_byte() {
        let text = include_str!("../../../baselines/BENCH_fig6.json");
        assert!(text.len() > 100_000, "fig6 is the largest baseline");
        let mut w = JsonWriter::new();
        emit(&mut w, &parse_json(text).expect("baseline parses"));
        assert_eq!(w.finish(), text.trim_end());
    }
}
