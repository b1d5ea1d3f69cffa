//! JSON writing for the benchmark's own files. Reading goes through
//! `mgc_store::json::parse`, the repository's parser.

use mgc_store::JsonValue;
use std::fmt::Write as _;

/// Escapes a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A number with all its digits (Rust prints the shortest text that parses
/// back to the same `f64`); `null` for a value that is not finite.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// `[a, b, ...]` from already-serialised items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(", "))
}

/// Builds one JSON object field by field, handling the separators.
#[derive(Debug)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(String::from("{"))
    }

    /// Appends `"key": value`, `value` being JSON already.
    pub fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{}\": {value}", escape(key));
        self
    }

    /// Appends a number field.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    /// Appends a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{}\"", escape(value)))
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

/// The `f64` at `value[key]`, if there is one.
pub fn get_f64(value: &JsonValue, key: &str) -> Option<f64> {
    value.get(key).and_then(JsonValue::as_f64)
}

/// The fields of the object at `value[key]` (empty when absent).
pub fn get_fields<'a>(value: &'a JsonValue, key: &str) -> &'a [(String, JsonValue)] {
    match value.get(key) {
        Some(JsonValue::Object(fields)) => fields,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_through_the_repository_parser() {
        let text = Obj::new()
            .num("a", 1.5)
            .str("b", "x\"y\n")
            .raw("c", array([num(1.0), num(f64::NAN)]))
            .finish();
        let parsed = mgc_store::json::parse(&text).expect("valid JSON");
        assert_eq!(get_f64(&parsed, "a"), Some(1.5));
        assert_eq!(parsed.get("b").and_then(JsonValue::as_str), Some("x\"y\n"));
        let c = parsed.get("c").and_then(JsonValue::as_array).unwrap();
        assert_eq!(c[0].as_f64(), Some(1.0));
        assert!(c[1].is_null());
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = 0.123_456_789_012_345_67_f64;
        assert_eq!(num(v).parse::<f64>().unwrap(), v);
    }
}
