//! A minimal JSON reader/writer for run reports.
//!
//! The build environment has no crates.io access, so there is no
//! serde; this module implements exactly the JSON subset the
//! telemetry artifacts need — objects, arrays, strings (with standard
//! escapes), finite numbers, booleans, and null — with byte-offset
//! error reporting so a corrupt report names where it broke.
//!
//! Numbers are carried as `f64`. Every numeric field the reports
//! store (nanosecond totals, event counts) stays well under 2^53, so
//! the round trip is exact in practice; [`Json::as_u64`] rejects
//! values that lost integer precision.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (finite `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it went wrong
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// The member `key` of an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
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

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an exact unsigned integer: `None` unless
    /// this is a non-negative number with no fractional part inside
    /// the `f64`-exact range (|v| ≤ 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as u64)
    }

    /// Serializes compactly (no whitespace). Object member order is
    /// preserved, so building from sorted maps yields canonical text.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    use std::fmt::Write as _;
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 64;

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

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&c) => Err(self.error(format!("unexpected character `{}`", c as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number `{text}`"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the reports never emit them.
                            let c =
                                char::from_u32(hex).ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape,
                    // or control byte. Those are ASCII, so on &str
                    // input the run ends on a character boundary, and
                    // validating just the run keeps parsing linear.
                    let start = self.pos;
                    while matches!(self.bytes.get(self.pos),
                        Some(&c) if c >= 0x20 && c != b'"' && c != b'\\')
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("[1, 2]").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        );
        let obj = Json::parse(r#"{"a": 1, "b": {"c": []}}"#).unwrap();
        assert_eq!(obj.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(obj.get("b").unwrap().get("c"), Some(&Json::Arr(vec![])));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote \" slash \\ newline \n tab \t unicode µ∆ control \u{1}";
        let json = Json::Str(original.to_string()).to_compact();
        assert_eq!(
            Json::parse(&json).unwrap().as_str().unwrap(),
            original,
            "{json}"
        );
    }

    #[test]
    fn multi_megabyte_documents_parse_in_linear_time() {
        // A Chrome-export-shaped document of ~2.4 MB: many events, each
        // with several string members, some non-ASCII. A parser that
        // re-validates the rest of the input per string character takes
        // minutes on this; a linear scan takes milliseconds, so the
        // bound below is generous even for an unoptimized build.
        let event = Json::Obj(vec![
            ("name".into(), Json::Str("sched/block µ∆ \"quoted\"".into())),
            ("cat".into(), Json::Str("sched".into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Num(123_456.0)),
        ]);
        let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(vec![event; 30_000]))]);
        let text = doc.to_compact();
        assert!(text.len() >= 2 << 20, "{} bytes", text.len());
        let t = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(parsed, doc);
        assert!(elapsed.as_secs() < 20, "parsing took {elapsed:?}");
    }

    #[test]
    fn compact_and_pretty_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("run".into())),
            ("n".into(), Json::Num(3.0)),
            (
                "xs".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Bool(false), Json::Null]),
            ),
        ]);
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        assert_eq!(
            v.to_compact(),
            r#"{"name":"run","n":3,"xs":[1,false,null]}"#
        );
    }

    #[test]
    fn large_exact_integers_survive() {
        let ns = 4_503_599_627_370_495u64; // 2^52 - 1
        let text = Json::Num(ns as f64).to_compact();
        assert_eq!(text, ns.to_string());
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(ns));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn errors_carry_offsets() {
        for (text, what) in [
            ("", "end of input"),
            ("{", "expected `\"`"),
            ("[1 2]", "expected `,`"),
            ("{\"a\" 1}", "expected `:`"),
            ("\"abc", "unterminated"),
            ("nul", "expected `null`"),
            ("1e999", "invalid number"),
            ("{} extra", "trailing"),
        ] {
            let e = Json::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(what),
                "{text:?}: {e} does not mention {what:?}"
            );
        }
    }
}
