//! Minimal in-tree JSON front-end for the serde shim, behind the
//! `to_string_pretty` / `to_string` / `from_str` entry points the
//! workspace uses.
//!
//! The grammar (number formatting, escaping, `"NaN"`/`"inf"`/`"-inf"`
//! markers for non-finite floats, surrogate-pair handling) lives in
//! [`serde::json`]; this crate is a thin shell over it. Compact encoding
//! streams through [`serde::Serialize::write_json`] and decoding through
//! [`serde::json::JsonReader`], which caps nesting at
//! [`serde::MAX_DEPTH`] — a 100k-deep `[[[[…` body is a parse error, not
//! a stack overflow. Pretty output indents the [`Value`] that
//! [`serde::Serialize::to_value`] reads back from the binary encoding,
//! which keeps every f64 bit.

use serde::json::JsonReader;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON encode/decode failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialises `value` as compact JSON.
///
/// # Errors
///
/// Infallible in this shim; the `Result` mirrors the real API.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    value.write_json(&mut out);
    Ok(String::from_utf8(out).expect("write_json emits UTF-8"))
}

/// Serialises `value` as 2-space-indented JSON.
///
/// # Errors
///
/// Infallible in this shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_pretty(&value.to_value(), &mut out, 0);
    Ok(String::from_utf8(out).expect("write_pretty emits UTF-8"))
}

/// Parses JSON text into any shim-`Deserialize` type, streaming straight
/// into the type.
///
/// # Errors
///
/// Returns a parse error with byte position, or the type's own
/// deserialization error.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = JsonReader::new(text);
    let value = T::read_from(&mut reader).map_err(|e| Error::new(e.to_string()))?;
    reader.expect_end().map_err(|e| Error::new(e.to_string()))?;
    Ok(value)
}

/// Parses JSON text into a raw [`Value`].
///
/// # Errors
///
/// Returns a parse error with byte position.
pub fn parse_value_str(text: &str) -> Result<Value, Error> {
    from_str(text)
}

/// 2-space-indented rendering of a [`Value`] tree. Pretty output is for
/// humans (golden files, CLI dumps), not the wire, but it shares the
/// escape/number formatters with the compact path.
/// Depth is bounded by the tree that produced it, which decoding caps
/// at [`serde::MAX_DEPTH`].
fn write_pretty(v: &Value, out: &mut Vec<u8>, depth: usize) {
    let pad = |out: &mut Vec<u8>, depth: usize| {
        out.push(b'\n');
        out.extend(std::iter::repeat_n(b' ', 2 * depth));
    };
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Num(n) => serde::json::write_f64(*n, out),
        Value::Str(s) => serde::json::write_escaped(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"[]");
                return;
            }
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                pad(out, depth + 1);
                write_pretty(item, out, depth + 1);
            }
            pad(out, depth);
            out.push(b']');
        }
        Value::Obj(entries) => {
            if entries.is_empty() {
                out.extend_from_slice(b"{}");
                return;
            }
            out.push(b'{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                pad(out, depth + 1);
                serde::json::write_escaped(k, out);
                out.extend_from_slice(b": ");
                write_pretty(item, out, depth + 1);
            }
            pad(out, depth);
            out.push(b'}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a": [1, 2.5, "x\n", null, true], "b": {"c": -3}}"#;
        let v = parse_value_str(text).unwrap();
        let compact = to_string(&v).unwrap();
        assert_eq!(parse_value_str(&compact).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value_str("{not json").is_err());
        assert!(parse_value_str("[1,]").is_err());
        assert!(parse_value_str("").is_err());
        assert!(parse_value_str("[1] trailing").is_err());
    }

    #[test]
    fn typed_roundtrip() {
        let v: Vec<(String, usize)> = vec![("a".into(), 1), ("b".into(), 2)];
        let text = to_string_pretty(&v).unwrap();
        let back: Vec<(String, usize)> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_crash() {
        let hostile = "[".repeat(100_000);
        let err = parse_value_str(&hostile).expect_err("must not overflow the stack");
        assert!(err.0.contains("nesting deeper"), "{err}");
    }
}
