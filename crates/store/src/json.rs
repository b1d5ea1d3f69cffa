//! A minimal recursive-descent JSON parser.
//!
//! The workspace has no third-party JSON dependency, so the store reads its
//! inputs — batch files, corpus manifests, the perf-gate table — with this
//! parser. Two properties matter here:
//!
//! * object fields keep **file order** (the flat record schema is
//!   order-sensitive for humans diffing it);
//! * numbers keep their **raw source text**, so 64-bit counters round-trip
//!   exactly instead of taking a lossy detour through `f64`.
//!
//! The parser exposes its cursor to the rest of the crate so the store
//! can capture the exact byte span of each record inside a `records` array
//! — that raw text is what makes round-trips through the store
//! byte-identical.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its raw source text (see the module docs).
    Number(String),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in file order. Lookup is linear — records have a
    /// few dozen fields and are parsed far more often than queried twice.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a field up in an object; `None` for absent fields and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number with an exact unsigned
    /// integer representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What the parser expected or found instead.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value, optionally surrounded by
/// whitespace).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing data after the JSON value"));
    }
    Ok(value)
}

/// The cursor-style parser behind [`parse`]. `pub(crate)` so the store can
/// drive it manually where it needs byte spans (record arrays) or
/// streaming-style header handling (batch files).
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn slice(&self, start: usize, end: usize) -> &'a str {
        &self.text[start..end]
    }

    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    pub(crate) fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `byte` if it is next; reports whether it did.
    pub(crate) fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes `byte` or fails.
    pub(crate) fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {}",
                byte as char,
                self.describe_next()
            )))
        }
    }

    fn describe_next(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
            Some(b) => format!("byte {b:#04x}"),
            None => "end of input".to_string(),
        }
    }

    /// Parses one JSON value starting at the cursor (no leading
    /// whitespace).
    pub(crate) fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.error(format!("expected a value, found {}", self.describe_next()))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(JsonValue::Object(fields));
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(JsonValue::Array(items));
        }
    }

    pub(crate) fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(
                                self.error(format!("unsupported escape '\\{}'", other as char))
                            );
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // char boundaries are reliable).
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pairs: records never emit them (escape_json only
        // escapes ASCII controls), but accept well-formed pairs anyway.
        if (0xd800..0xdc00).contains(&code) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.error("lone high surrogate in \\u escape"));
            }
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.error("invalid low surrogate in \\u escape"));
            }
            let c = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            return char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"));
        }
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected four hex digits after \\u"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.digits() {
            return Err(self.error("expected digits in number"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.error("expected digits after decimal point"));
        }
        if self.peek() == Some(b'e') || self.peek() == Some(b'E') {
            self.pos += 1;
            if self.peek() == Some(b'+') || self.peek() == Some(b'-') {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.error("expected digits in exponent"));
            }
        }
        Ok(JsonValue::Number(self.slice(start, self.pos).to_string()))
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scalar_zoo() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse(" \"hi\" ").unwrap(), JsonValue::Str("hi".into()));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn numbers_keep_their_raw_text() {
        // 2^63 + 1 is not representable in f64; the raw text preserves it.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v, JsonValue::Number("9223372036854775809".into()));
        assert_eq!(v.as_u64(), Some(9223372036854775809));
    }

    #[test]
    fn objects_keep_field_order() {
        let v = parse(r#"{"z": 1, "a": [2, null], "m": {"x": true}}"#).unwrap();
        match &v {
            JsonValue::Object(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("expected an object, got {other:?}"),
        }
        assert_eq!(v.get("z").unwrap().as_u64(), Some(1));
        assert!(v.get("a").unwrap().as_array().unwrap()[1].is_null());
        assert_eq!(v.get("m").unwrap().get("x").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_decode() {
        assert_eq!(
            parse(r#""a\"b\\c\ndAé""#).unwrap().as_str(),
            Some("a\"b\\c\ndA\u{e9}")
        );
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
    }

    #[test]
    fn malformed_input_reports_the_offset() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.message.contains("expected a value"), "{err}");

        let err = parse("[1, 2").unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");

        let err = parse("{} trailing").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");

        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn a_real_record_line_parses() {
        let line = "{\"schema_version\": 2, \"program\": \"Quicksort\", \
                    \"params\": {\"elements\": 65536}, \"backend\": \"threaded\", \
                    \"vprocs\": 4, \"wall_clock_ns\": 34000000, \
                    \"pause_budget_us\": null, \"throughput_rps\": 0.000}";
        let v = parse(line).unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("program").unwrap().as_str(), Some("Quicksort"));
        assert_eq!(v.get("vprocs").unwrap().as_u64(), Some(4));
        assert!(v.get("pause_budget_us").unwrap().is_null());
        assert_eq!(v.get("throughput_rps").unwrap().as_f64(), Some(0.0));
    }
}
