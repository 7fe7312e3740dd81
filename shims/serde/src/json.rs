//! Streaming compact-JSON support for the shim's data model: emit
//! helpers that append straight to a byte buffer, and an event-driven
//! [`JsonReader`] that walks JSON text without materialising a
//! [`Value`] tree.
//!
//! Both halves are the single source of truth for the shim's JSON
//! grammar — `serde_json`, the derived and built-in `write_json` /
//! `read_from` impls and the [`Value`] writer ([`write_value`]) all
//! route through here.
//!
//! Wire limits and number formatting:
//!
//! * nesting is capped at [`crate::MAX_DEPTH`] containers (matching the
//!   binary codec), so adversarially deep `[[[[…` input is a parse
//!   error, never a stack overflow;
//! * finite whole numbers with magnitude below `9e15` print as
//!   integers (`3`, not `3.0`); every such value is exactly
//!   representable in an `i64` (the cutoff is below 2^53). Negative
//!   zero prints as `-0` so the sign survives a round-trip;
//! * non-finite numbers encode as the strings `"NaN"`, `"inf"` and
//!   `"-inf"`;
//! * `\uXXXX` escapes decode surrogate pairs to one scalar; a lone
//!   surrogate half is a parse error.

use crate::{DeError, Peek, Reader, Value};
use std::borrow::Cow;
use std::io::Write as _;

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_escaped(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x00..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.extend_from_slice(escape);
        }
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

/// Appends the canonical number rendering: integers without a fraction
/// below `9e15` as `i64` digits (negative zero keeps its sign), other
/// finite values shortest-roundtrip, non-finite as marker strings.
pub fn write_f64(n: f64, out: &mut Vec<u8>) {
    if n.is_nan() {
        out.extend_from_slice(b"\"NaN\"");
    } else if n == f64::INFINITY {
        out.extend_from_slice(b"\"inf\"");
    } else if n == f64::NEG_INFINITY {
        out.extend_from_slice(b"\"-inf\"");
    } else if n.fract() == 0.0 && n.abs() < 9e15 && !(n == 0.0 && n.is_sign_negative()) {
        // Exact for the whole range: 9e15 < 2^53.
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest representation that round-trips (prints `-0` for
        // negative zero, which parses back sign-intact).
        let _ = write!(out, "{n}");
    }
}

/// Appends the compact (no whitespace) encoding of a [`Value`] tree —
/// `Value`'s own [`crate::Serialize::write_json`], and the default for
/// impls that only build a tree.
pub fn write_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::Num(n) => write_f64(*n, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Arr(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(item, out);
            }
            out.push(b']');
        }
        Value::Obj(entries) => {
            out.push(b'{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_escaped(key, out);
                out.push(b':');
                write_value(item, out);
            }
            out.push(b'}');
        }
    }
}

/// Event-driven JSON reader over a borrowed text slice.
///
/// Strings without escapes are handed out as borrows of the input;
/// nesting deeper than [`crate::MAX_DEPTH`] is a parse error. Errors
/// carry the byte offset they were detected at.
#[derive(Debug)]
pub struct JsonReader<'de> {
    bytes: &'de [u8],
    pos: usize,
    /// Per-open-container element counts; the length is the nesting
    /// depth, which [`crate::MAX_DEPTH`] caps.
    counts: Vec<usize>,
}

impl<'de> JsonReader<'de> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        JsonReader {
            bytes: text.as_bytes(),
            pos: 0,
            counts: Vec::new(),
        }
    }

    /// Asserts only trailing whitespace remains.
    ///
    /// # Errors
    ///
    /// Fails if any non-whitespace input follows the value just read.
    pub fn expect_end(&mut self) -> Result<(), DeError> {
        self.ws();
        if self.pos != self.bytes.len() {
            return Err(DeError::custom(format!(
                "trailing content at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect_lit(&mut self, lit: &str) -> Result<(), DeError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(DeError::custom(format!(
                "expected `{lit}` at byte {}",
                self.pos
            )))
        }
    }

    fn begin(&mut self, open: u8) -> Result<(), DeError> {
        self.ws();
        if self.bytes.get(self.pos) != Some(&open) {
            return Err(DeError::custom(format!(
                "expected `{}` at byte {}",
                open as char, self.pos
            )));
        }
        if self.counts.len() >= crate::MAX_DEPTH {
            return Err(DeError::custom(format!(
                "nesting deeper than {} at byte {}",
                crate::MAX_DEPTH,
                self.pos
            )));
        }
        self.pos += 1;
        self.counts.push(0);
        Ok(())
    }

    /// `true` the first time an element of the innermost container is
    /// read, bumping the element count.
    fn first_element(&mut self) -> bool {
        let count = self.counts.last_mut().expect("element outside a container");
        let first = *count == 0;
        *count += 1;
        first
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let bad = || DeError::custom("bad \\u escape".to_string());
        let hex = self.bytes.get(self.pos..self.pos + 4).ok_or_else(bad)?;
        let text = std::str::from_utf8(hex).map_err(|_| bad())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| bad())?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<Cow<'de, str>, DeError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(DeError::custom(format!(
                "expected string at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        let start = self.pos;
        // Fast path: no escapes, borrow straight from the input.
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(DeError::custom("unterminated string".to_string())),
                Some(b'"') => {
                    let raw = utf8(&self.bytes[start..self.pos])?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(raw));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        // Slow path: at least one escape, accumulate into an owned
        // string.
        let mut out = String::new();
        out.push_str(utf8(&self.bytes[start..self.pos])?);
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(DeError::custom("unterminated string".to_string())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(DeError::custom("bad escape".to_string())),
                    }
                }
                Some(_) => {
                    // Copy the raw run up to the next quote/backslash.
                    let run = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(utf8(&self.bytes[run..self.pos])?);
                }
            }
        }
    }

    /// Decodes the `XXXX` of a `\uXXXX` escape (the `\u` is already
    /// consumed), combining a surrogate pair into its one scalar and
    /// rejecting unpaired halves.
    fn unicode_escape(&mut self) -> Result<char, DeError> {
        let code = self.hex4()?;
        let lone =
            |code: u32| DeError::custom(format!("unpaired surrogate \\u{code:04x} in string"));
        if (0xD800..=0xDBFF).contains(&code) {
            // High half: the low half must follow immediately.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(lone(code));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(lone(code));
            }
            let scalar = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            Ok(char::from_u32(scalar).expect("combined surrogate pair is a valid scalar"))
        } else if (0xDC00..=0xDFFF).contains(&code) {
            Err(lone(code))
        } else {
            Ok(char::from_u32(code).expect("non-surrogate BMP code point is a valid scalar"))
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<&str, DeError> {
    std::str::from_utf8(bytes).map_err(|_| DeError::custom("invalid UTF-8 in string".to_string()))
}

impl<'de> Reader<'de> for JsonReader<'de> {
    fn peek(&mut self) -> Result<Peek, DeError> {
        self.ws();
        match self.bytes.get(self.pos) {
            None => Err(DeError::custom("unexpected end of input".to_string())),
            Some(b'n') => Ok(Peek::Null),
            Some(b't' | b'f') => Ok(Peek::Bool),
            Some(b'"') => Ok(Peek::Str),
            Some(b'[') => Ok(Peek::Arr),
            Some(b'{') => Ok(Peek::Obj),
            // Anything else is number-or-garbage; `read_f64` settles it.
            Some(_) => Ok(Peek::Num),
        }
    }

    fn read_null(&mut self) -> Result<(), DeError> {
        self.ws();
        self.expect_lit("null")
    }

    fn read_bool(&mut self) -> Result<bool, DeError> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b't') => self.expect_lit("true").map(|()| true),
            Some(b'f') => self.expect_lit("false").map(|()| false),
            _ => Err(DeError::custom(format!(
                "expected bool at byte {}",
                self.pos
            ))),
        }
    }

    fn read_f64(&mut self) -> Result<f64, DeError> {
        self.ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(DeError::custom(format!("expected value at byte {start}")));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| DeError::custom(format!("bad number at byte {start}")))
    }

    fn read_str(&mut self) -> Result<Cow<'de, str>, DeError> {
        self.ws();
        self.parse_string()
    }

    fn begin_array(&mut self) -> Result<(), DeError> {
        self.begin(b'[')
    }

    fn array_next(&mut self) -> Result<bool, DeError> {
        self.ws();
        match self.bytes.get(self.pos) {
            None => Err(DeError::custom("unexpected end of input".to_string())),
            Some(b']') => {
                self.pos += 1;
                self.counts.pop();
                Ok(false)
            }
            Some(_) => {
                if !self.first_element() {
                    self.expect_lit(",")?;
                }
                Ok(true)
            }
        }
    }

    fn begin_object(&mut self) -> Result<(), DeError> {
        self.begin(b'{')
    }

    fn object_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError> {
        self.ws();
        match self.bytes.get(self.pos) {
            None => Err(DeError::custom("unexpected end of input".to_string())),
            Some(b'}') => {
                self.pos += 1;
                self.counts.pop();
                Ok(None)
            }
            Some(_) => {
                if !self.first_element() {
                    self.expect_lit(",")?;
                    self.ws();
                }
                let key = self.parse_string()?;
                self.ws();
                self.expect_lit(":")?;
                Ok(Some(key))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deserialize;

    fn json_of(value: &Value) -> String {
        let mut out = Vec::new();
        write_value(value, &mut out);
        String::from_utf8(out).expect("valid UTF-8")
    }

    fn parse(text: &str) -> Result<Value, DeError> {
        let mut reader = JsonReader::new(text);
        let value = Value::read_from(&mut reader)?;
        reader.expect_end()?;
        Ok(value)
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let mut out = Vec::new();
        write_f64(-0.0, &mut out);
        assert_eq!(out, b"-0");
        let Value::Num(back) = parse("-0").unwrap() else {
            panic!("number expected");
        };
        assert_eq!(back, 0.0);
        assert!(back.is_sign_negative());
        // Positive zero is untouched.
        let mut out = Vec::new();
        write_f64(0.0, &mut out);
        assert_eq!(out, b"0");
    }

    #[test]
    fn integer_formatting_boundary_is_exact() {
        // Everything below the 9e15 cutoff takes the i64 fast path and
        // is exactly representable; at and past the cutoff the float
        // formatter prints the same digits for whole values.
        for (n, expect) in [
            (9e15 - 2.0, "8999999999999998"),
            (9e15, "9000000000000000"),
            (9.007199254740992e15, "9007199254740992"), // 2^53
            (-9e15, "-9000000000000000"),
            (-(9e15 - 2.0), "-8999999999999998"),
        ] {
            let mut out = Vec::new();
            write_f64(n, &mut out);
            assert_eq!(out, expect.as_bytes(), "formatting {n}");
            assert_eq!(parse(expect).unwrap(), Value::Num(n));
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // "😀" is the escaped UTF-16 pair for U+1F600.
        let escaped = "\"\\ud83d\\ude00\"";
        assert_eq!(parse(escaped).unwrap(), Value::Str("\u{1F600}".to_string()));
        // Raw astral UTF-8 passes through both ways.
        assert_eq!(
            parse("\"\u{1F600}\"").unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        assert_eq!(json_of(&Value::Str("\u{1F600}".into())), "\"\u{1F600}\"");
    }

    #[test]
    fn lone_surrogates_are_parse_errors() {
        for text in [
            r#""\ud800""#,       // high half, nothing after
            r#""\ud800x""#,      // high half, raw char after
            r#""\ud800\n""#,     // high half, non-\u escape after
            r#""\ud800\ud800""#, // high half, non-low \u after
            r#""\udc00""#,       // low half alone
            r#""a\udfff tail""#, // low half mid-string
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.0.contains("surrogate"), "{text}: {err}");
        }
    }

    #[test]
    fn depth_cap_mirrors_the_binary_codec() {
        let legal = format!(
            "{}null{}",
            "[".repeat(crate::MAX_DEPTH),
            "]".repeat(crate::MAX_DEPTH)
        );
        assert!(parse(&legal).is_ok());
        let deep = "[".repeat(crate::MAX_DEPTH + 1);
        let err = parse(&deep).expect_err("past the cap");
        assert!(err.0.contains("nesting deeper"), "{err}");
        // 100k-deep input dies at the cap, not the stack.
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).is_err());
    }

    #[test]
    fn control_chars_roundtrip_escaped() {
        let s = "a\u{1}b\tc\nd\"e\\f\u{7f}";
        let encoded = json_of(&Value::Str(s.into()));
        assert_eq!(parse(&encoded).unwrap(), Value::Str(s.into()));
        assert!(encoded.contains("\\u0001"));
    }
}
