//! Minimal JSON for the one serialisation format the workspace actually
//! uses: flat `{ "pass.stat": count }` objects in LLVM `-stats-json` style
//! (string keys, unsigned-integer values). The emitter matches
//! `serde_json::to_string_pretty`'s layout (2-space indent, `": "` between
//! key and value) so downstream tooling and golden strings are unchanged;
//! the parser accepts any JSON object whose values are unsigned integers,
//! with full string-escape handling (including `\uXXXX` surrogate pairs).

use std::collections::BTreeMap;
use std::fmt;

/// Parse error: position (byte offset) and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Escape `s` as JSON string *contents* (no surrounding quotes) into `out`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serialise a flat string→u64 map as a pretty-printed JSON object,
/// byte-compatible with `serde_json::to_string_pretty` on a `BTreeMap`
/// (keys in sorted order, 2-space indent).
pub fn emit_object_pretty(map: &BTreeMap<String, u64>) -> String {
    if map.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        out.push_str(if i == 0 { "\n  \"" } else { ",\n  \"" });
        escape_into(k, &mut out);
        out.push_str("\": ");
        out.push_str(&v.to_string());
    }
    out.push_str("\n}");
    out
}

/// Parse a JSON object with string keys and unsigned-integer values.
/// Duplicate keys keep the last occurrence (matching `serde_json`).
pub fn parse_object(input: &str) -> Result<BTreeMap<String, u64>, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.parse_u64()?;
            map.insert(key, val);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(p.err_at(
                        p.pos.saturating_sub(1),
                        format!("expected ',' or '}}', found {}", show(other)),
                    ))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err_at(p.pos, "trailing characters after object".into()));
    }
    Ok(map)
}

fn show(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("{:?}", b as char),
        None => "end of input".to_string(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err_at(&self, pos: usize, msg: String) -> JsonError {
        JsonError { pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), JsonError> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(self.err_at(
                self.pos.saturating_sub(1),
                format!("expected {:?}, found {}", want as char, show(other)),
            )),
        }
    }

    fn parse_u64(&mut self) -> Result<u64, JsonError> {
        let start = self.pos;
        let mut val: u64 = 0;
        let mut any = false;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            any = true;
            val = val
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u64))
                .ok_or_else(|| self.err_at(start, "integer overflows u64".into()))?;
            self.pos += 1;
        }
        if !any {
            return Err(self.err_at(
                start,
                format!("expected unsigned integer, found {}", show(self.peek())),
            ));
        }
        Ok(val)
    }

    fn parse_hex4(&mut self) -> Result<u16, JsonError> {
        let start = self.pos;
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.next() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                other => {
                    return Err(self.err_at(
                        start,
                        format!("invalid \\u escape, found {}", show(other)),
                    ))
                }
            };
            v = v << 4 | d as u16;
        }
        Ok(v)
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.next() {
                None => return Err(self.err_at(start, "unterminated string".into())),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: must be followed by \uDC00–DFFF.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err(self
                                    .err_at(start, "unpaired high surrogate".into()));
                            }
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self
                                    .err_at(start, "invalid low surrogate".into()));
                            }
                            0x10000 + ((hi as u32 - 0xD800) << 10 | (lo as u32 - 0xDC00))
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err_at(start, "unpaired low surrogate".into()));
                        } else {
                            hi as u32
                        };
                        out.push(char::from_u32(cp).ok_or_else(|| {
                            self.err_at(start, "escape is not a valid scalar".into())
                        })?);
                    }
                    other => {
                        return Err(self.err_at(
                            start,
                            format!("invalid escape {}", show(other)),
                        ))
                    }
                },
                Some(b) if b < 0x20 => {
                    return Err(self
                        .err_at(start, "unescaped control character in string".into()))
                }
                Some(b) => {
                    // Re-decode UTF-8 starting at this byte.
                    let s = &self.bytes[start..];
                    let ch = std::str::from_utf8(&s[..utf8_len(b).min(s.len())])
                        .map_err(|_| self.err_at(start, "invalid UTF-8".into()))?
                        .chars()
                        .next()
                        .ok_or_else(|| self.err_at(start, "invalid UTF-8".into()))?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Value trees
// ---------------------------------------------------------------------------

/// A JSON value tree: objects, arrays, strings, and unsigned integers — the
/// superset needed by nested documents like the daemon's replies. The
/// flat `{string: u64}` functions above remain the stats-format fast path
/// (their emitted bytes are pinned by golden strings downstream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Look up a key in an object (`None` for other variants / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty-print with the same layout conventions as
    /// [`emit_object_pretty`]: 2-space indent, `": "` after keys, one
    /// element per line, `{}`/`[]` for empty containers.
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, 0);
        out
    }

    fn emit(&self, out: &mut String, depth: usize) {
        let indent = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.emit(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\": ");
                    v.emit(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Emit on a single line with no whitespace (`{"k":1,"a":[2,3]}`) — the
    /// JSONL record format used by the streaming telemetry sink, where one
    /// value must occupy exactly one line.
    pub fn emit_compact(&self) -> String {
        let mut out = String::new();
        self.emit_compact_into(&mut out);
        out
    }

    fn emit_compact_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_compact_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.emit_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse an arbitrary value tree (with the same grammar restrictions as
    /// the flat parser: numbers are unsigned integers).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err_at(p.pos, "trailing characters after value".into()));
        }
        Ok(v)
    }
}

impl<'a> Parser<'a> {
    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'0'..=b'9') => Ok(Value::U64(self.parse_u64()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Value::Arr(items)),
                        other => {
                            return Err(self.err_at(
                                self.pos.saturating_sub(1),
                                format!("expected ',' or ']', found {}", show(other)),
                            ))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.parse_value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Value::Obj(pairs)),
                        other => {
                            return Err(self.err_at(
                                self.pos.saturating_sub(1),
                                format!("expected ',' or '}}', found {}", show(other)),
                            ))
                        }
                    }
                }
            }
            other => Err(self.err_at(
                self.pos,
                format!("expected a JSON value, found {}", show(other)),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn pretty_format_matches_serde_json_layout() {
        let m = map(&[("mem2reg.NumPromoted", 21), ("slp.NumVectorInstructions", 14)]);
        let j = emit_object_pretty(&m);
        assert_eq!(
            j,
            "{\n  \"mem2reg.NumPromoted\": 21,\n  \"slp.NumVectorInstructions\": 14\n}"
        );
        assert_eq!(emit_object_pretty(&BTreeMap::new()), "{}");
    }

    #[test]
    fn roundtrip_plain() {
        let m = map(&[("a.b", 0), ("c.d", u64::MAX), ("e.f", 12345)]);
        assert_eq!(parse_object(&emit_object_pretty(&m)).unwrap(), m);
    }

    #[test]
    fn roundtrip_escapes() {
        // Keys exercising every escape class: quote, backslash, control
        // chars, non-ASCII, and an astral-plane char (surrogate pair in \u).
        let m = map(&[
            ("quote\"key", 1),
            ("back\\slash", 2),
            ("tab\there\nand newline", 3),
            ("bell\u{07}ctrl", 4),
            ("unicode-é-Δ-中", 5),
            ("astral-\u{1F600}", 6),
        ]);
        let j = emit_object_pretty(&m);
        assert_eq!(parse_object(&j).unwrap(), m);
    }

    #[test]
    fn parses_foreign_spacing_and_u_escapes() {
        let j = "  {\"a\\u0041.x\"  :\t7 ,\r\n \"p.q\":0}  ";
        let m = parse_object(j).unwrap();
        assert_eq!(m, map(&[("aA.x", 7), ("p.q", 0)]));
        // Surrogate-pair escape decodes to the astral char.
        let m2 = parse_object("{\"\\ud83d\\ude00\": 1}").unwrap();
        assert_eq!(m2, map(&[("\u{1F600}", 1)]));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "{}}",
            "{\"a\": }",
            "{\"a\": -1}",
            "{\"a\": 1.5}",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{\"a\": 99999999999999999999999}",
            "{\"unterminated: 1}",
            "{\"bad\\q\": 1}",
            "{\"\\ud800\": 1}",
            "not json",
        ] {
            assert!(parse_object(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let m = parse_object("{\"k\": 1, \"k\": 2}").unwrap();
        assert_eq!(m, map(&[("k", 2)]));
    }

    fn sample_tree() -> Value {
        Value::Obj(vec![
            ("passes".into(), Value::Arr(vec![Value::str("mem2reg"), Value::str("gvn")])),
            (
                "edges".into(),
                Value::Arr(vec![Value::Obj(vec![
                    ("from".into(), Value::str("mem2reg")),
                    ("to".into(), Value::str("gvn")),
                    ("count".into(), Value::U64(3)),
                ])]),
            ),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
            ("escape\"key".into(), Value::str("tab\there")),
        ])
    }

    #[test]
    fn value_roundtrip() {
        let v = sample_tree();
        let text = v.emit_pretty();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // Compact foreign spacing parses too.
        let compact = "{\"a\":[1,2,{\"b\":\"c\"}],\"d\":{}}";
        let back = Value::parse(compact).unwrap();
        assert_eq!(back.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            back.get("a").unwrap().as_arr().unwrap()[2].get("b").unwrap().as_str(),
            Some("c")
        );
    }

    #[test]
    fn value_pretty_layout_matches_flat_emitter() {
        // A Value tree that is a flat object must serialise byte-identically
        // to the dedicated stats emitter.
        let flat = map(&[("a.b", 1), ("c.d", 2)]);
        let v = Value::Obj(
            flat.iter().map(|(k, x)| (k.clone(), Value::U64(*x))).collect(),
        );
        assert_eq!(v.emit_pretty(), emit_object_pretty(&flat));
        assert_eq!(Value::Obj(vec![]).emit_pretty(), "{}");
        assert_eq!(Value::Arr(vec![]).emit_pretty(), "[]");
    }

    #[test]
    fn value_compact_is_one_line_and_roundtrips() {
        let v = sample_tree();
        let compact = v.emit_compact();
        assert!(!compact.contains('\n'), "compact emit must be a single line");
        assert!(!compact.contains(": "), "compact emit has no space after ':'");
        assert_eq!(Value::parse(&compact).unwrap(), v);
        assert_eq!(Value::Obj(vec![]).emit_compact(), "{}");
        assert_eq!(Value::Arr(vec![]).emit_compact(), "[]");
        assert_eq!(
            Value::Obj(vec![("a".into(), Value::Arr(vec![Value::U64(1), Value::U64(2)]))])
                .emit_compact(),
            "{\"a\":[1,2]}"
        );
    }

    #[test]
    fn compact_escapes_keep_control_characters_on_one_line() {
        // Strings with newlines, quotes, control chars, and non-ASCII must
        // stay on a single line after escaping (the JSONL invariant) and
        // round-trip exactly.
        for s in [
            "span\nwith\nnewlines",
            "quote\"inside",
            "back\\slash",
            "bell\u{07}and\u{01}ctl",
            "unicode-é-Δ-中-\u{1F600}",
            "\r\t\u{08}\u{0C}",
        ] {
            let v = Value::Obj(vec![(s.to_string(), Value::str(s))]);
            let line = v.emit_compact();
            assert!(!line.contains('\n') && !line.contains('\r'), "{line:?}");
            assert_eq!(Value::parse(&line).unwrap(), v, "{s:?}");
        }
    }

    #[test]
    fn value_rejects_malformed() {
        for bad in ["", "[1,]", "[1 2]", "{\"a\"}", "{\"a\":}", "[", "{\"a\":1}x", "-3"] {
            assert!(Value::parse(bad).is_err(), "should reject: {bad}");
        }
        // Accessors are variant-safe.
        assert_eq!(Value::U64(1).get("k"), None);
        assert_eq!(Value::str("s").as_u64(), None);
        assert_eq!(Value::U64(1).as_arr(), None);
    }
}
