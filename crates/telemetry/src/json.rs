//! One minimal JSON implementation for the whole workspace.
//!
//! Several components speak small amounts of JSON without wanting a
//! dependency: the sink manifest (`manifest.json` save/load), the run
//! report, and the HTTP service's request/response bodies. They all share
//! this module instead of each hand-rolling an escaper and a parser.
//!
//! Scope is deliberately narrow: a [`Json`] value tree (null, bool,
//! unsigned integer, float, string, array, object), a recursive-descent
//! [`Json::parse`], a compact [`Json::render`], and the string escape
//! helpers. Objects are [`BTreeMap`]s — key order is sorted, duplicate
//! keys keep the last value — and non-negative integers that fit `u64`
//! stay lossless ([`Json::Int`]); everything else numeric is an `f64`.
//! This is not a general-purpose JSON library (no arbitrary-precision
//! numbers, no key-order preservation), but it parses anything the
//! workspace emits and any reasonable hand-written input.

use std::collections::BTreeMap;
use std::fmt;

/// Append the escaped body of `s` (no surrounding quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Escape a JSON string body (without surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` as a quoted, escaped JSON string to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// A JSON parse or extraction failure: byte position (0 for extraction
/// errors on an already-parsed tree) and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the source where parsing failed; 0 for
    /// tree-extraction errors.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl JsonError {
    fn at(pos: usize, msg: impl Into<String>) -> Self {
        JsonError {
            pos,
            msg: msg.into(),
        }
    }

    /// An extraction (non-positional) error.
    pub fn msg(msg: impl Into<String>) -> Self {
        JsonError::at(0, msg)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pos > 0 {
            write!(f, "JSON, byte {}: {}", self.pos, self.msg)
        } else {
            write!(f, "JSON: {}", self.msg)
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept lossless
    /// (row counts, hashes-as-numbers, nanosecond timings).
    Int(u64),
    /// Any other number (negative, fractional, exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Sorted by key; duplicate keys keep the last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse `src` as one JSON document (trailing whitespace allowed,
    /// trailing content rejected).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing content after document"));
        }
        Ok(value)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is a lossless unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value (integer or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Member lookup with a missing-key error naming `key`.
    pub fn key(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing key {key:?}")))
    }

    /// The string value, or an error naming `what`.
    pub fn str_of(&self, what: &str) -> Result<&str, JsonError> {
        self.as_str()
            .ok_or_else(|| JsonError::msg(format!("{what} must be a string")))
    }

    /// The unsigned integer value, or an error naming `what`.
    pub fn u64_of(&self, what: &str) -> Result<u64, JsonError> {
        self.as_u64()
            .ok_or_else(|| JsonError::msg(format!("{what} must be an unsigned integer")))
    }

    /// The numeric value, or an error naming `what`.
    pub fn f64_of(&self, what: &str) -> Result<f64, JsonError> {
        self.as_f64()
            .ok_or_else(|| JsonError::msg(format!("{what} must be a number")))
    }

    /// The array elements, or an error naming `what`.
    pub fn arr_of(&self, what: &str) -> Result<&[Json], JsonError> {
        self.as_arr()
            .ok_or_else(|| JsonError::msg(format!("{what} must be an array")))
    }

    /// The object members, or an error naming `what`.
    pub fn obj_of(&self, what: &str) -> Result<&BTreeMap<String, Json>, JsonError> {
        self.as_obj()
            .ok_or_else(|| JsonError::msg(format!("{what} must be an object")))
    }

    /// Compact single-line rendering ([`Json::parse`] round-trips it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Int(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::at(self.pos.max(1), msg)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'0'..=b'9' | b'-') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: take the whole scalar.
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        // Lossless unsigned integers stay Int; everything else is Float.
        if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = s.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        s.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError::at(start.max(1), format!("bad number {s:?}")))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
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
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Float(-150.0));
        assert_eq!(Json::parse(r#""aA\n""#).unwrap(), Json::Str("aA\n".into()));
    }

    #[test]
    fn big_integers_stay_lossless() {
        let n = u64::MAX;
        assert_eq!(Json::parse(&n.to_string()).unwrap(), Json::Int(n));
    }

    #[test]
    fn parse_rejects_trailing_content() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn render_roundtrips() {
        let src = r#"{"a":[1,2.5,"x\"y"],"b":{"c":null,"d":true},"n":18446744073709551615}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        assert_eq!(v.render(), src);
    }

    #[test]
    fn extraction_helpers_name_the_field() {
        let v = Json::parse(r#"{"seed":"2a","n":7}"#).unwrap();
        assert_eq!(v.key("seed").unwrap().str_of("seed").unwrap(), "2a");
        assert_eq!(v.key("n").unwrap().u64_of("n").unwrap(), 7);
        let err = v.key("missing").unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        let err = v.key("n").unwrap().str_of("n").unwrap_err();
        assert!(err.to_string().contains("n must be a string"), "{err}");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }
}
