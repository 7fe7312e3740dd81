//! Streaming support for the compact binary value encoding used by the
//! server's wire codec: tagged scalars, LEB128 varints, and
//! length-prefixed containers (see `abbd_server::codec` for the frame
//! layout around this payload encoding).
//!
//! Like [`crate::json`], this module is the single source of truth for
//! the byte format: derived and built-in `write_binary` impls and the
//! [`Value`] writer ([`write_value`]) all emit through the same helpers,
//! and [`BinReader`] is the one decoder.
//! Decoding is hardened: every length is checked against the remaining
//! buffer before it is trusted, and nesting is capped at
//! [`crate::MAX_DEPTH`].

use crate::{DeError, Peek, Reader, Value};
use std::borrow::Cow;

/// Tag byte for `null`.
pub const TAG_NULL: u8 = 0x00;
/// Tag byte for `false`.
pub const TAG_FALSE: u8 = 0x01;
/// Tag byte for `true`.
pub const TAG_TRUE: u8 = 0x02;
/// Tag byte for a number (f64 bits, little-endian).
pub const TAG_NUM: u8 = 0x03;
/// Tag byte for a string (varint length + UTF-8 bytes).
pub const TAG_STR: u8 = 0x04;
/// Tag byte for an array (varint count + elements).
pub const TAG_ARR: u8 = 0x05;
/// Tag byte for an object (varint count + key/value entries).
pub const TAG_OBJ: u8 = 0x06;

/// Appends `n` as a LEB128 varint (7 bits per byte, little-endian,
/// high bit = continue).
pub fn write_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7f) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends the `null` encoding.
pub fn write_null(out: &mut Vec<u8>) {
    out.push(TAG_NULL);
}

/// Appends a boolean.
pub fn write_bool(b: bool, out: &mut Vec<u8>) {
    out.push(if b { TAG_TRUE } else { TAG_FALSE });
}

/// Appends a number (tag + f64 bits, NaN payloads preserved).
pub fn write_f64(n: f64, out: &mut Vec<u8>) {
    out.push(TAG_NUM);
    out.extend_from_slice(&n.to_bits().to_le_bytes());
}

/// Appends a string value (tag + varint length + bytes).
pub fn write_str(s: &str, out: &mut Vec<u8>) {
    out.push(TAG_STR);
    write_key(s, out);
}

/// Appends an object key (varint length + bytes, no tag).
pub fn write_key(key: &str, out: &mut Vec<u8>) {
    write_varint(key.len() as u64, out);
    out.extend_from_slice(key.as_bytes());
}

/// Opens an array of exactly `len` elements; the caller appends them.
pub fn write_arr(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_ARR);
    write_varint(len as u64, out);
}

/// Opens an object of exactly `len` entries; the caller appends
/// [`write_key`]/value pairs.
pub fn write_obj(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_OBJ);
    write_varint(len as u64, out);
}

/// Appends the encoding of a whole [`Value`] tree — `Value`'s own
/// [`crate::Serialize::write_binary`], and the default for impls that
/// only build a tree.
pub fn write_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => write_null(out),
        Value::Bool(b) => write_bool(*b, out),
        Value::Num(n) => write_f64(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            write_arr(items.len(), out);
            for item in items {
                write_value(item, out);
            }
        }
        Value::Obj(entries) => {
            write_obj(entries.len(), out);
            for (key, item) in entries {
                write_key(key, out);
                write_value(item, out);
            }
        }
    }
}

/// Event-driven reader over one binary-encoded value payload (no frame
/// header), borrowing strings straight from the buffer.
#[derive(Debug)]
pub struct BinReader<'de> {
    buf: &'de [u8],
    pos: usize,
    /// Remaining element counts of the open containers; the length is
    /// the nesting depth, which [`crate::MAX_DEPTH`] caps.
    remaining: Vec<u64>,
}

impl<'de> BinReader<'de> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'de [u8]) -> Self {
        BinReader {
            buf,
            pos: 0,
            remaining: Vec::new(),
        }
    }

    /// Asserts the whole buffer was consumed.
    ///
    /// # Errors
    ///
    /// Fails if any bytes follow the value just read.
    pub fn expect_end(&self) -> Result<(), DeError> {
        if self.pos != self.buf.len() {
            return Err(DeError::custom(
                "trailing bytes after the framed value".to_string(),
            ));
        }
        Ok(())
    }

    fn take(&mut self, len: usize) -> Result<&'de [u8], DeError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| DeError::custom("length runs past the end of the frame".to_string()))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn tag(&mut self, expected: u8, what: &str) -> Result<(), DeError> {
        let Some(&tag) = self.buf.get(self.pos) else {
            return Err(DeError::custom("truncated value".to_string()));
        };
        if tag != expected {
            return Err(DeError::custom(format!(
                "expected {what} tag, found 0x{tag:02x}"
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn varint(&mut self) -> Result<u64, DeError> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let Some(&byte) = self.buf.get(self.pos) else {
                return Err(DeError::custom("truncated varint".to_string()));
            };
            self.pos += 1;
            n |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(n);
            }
        }
        Err(DeError::custom("varint too long".to_string()))
    }

    fn str_bytes(&mut self) -> Result<&'de str, DeError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| DeError::custom("string length overflows"))?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| DeError::custom("non-UTF-8 string bytes".to_string()))
    }

    fn begin(&mut self, tag: u8, what: &str) -> Result<(), DeError> {
        self.tag(tag, what)?;
        let count = self.varint()?;
        // Each element costs at least one byte, so an honest count
        // never exceeds what is left — refuse it up front.
        if count > (self.buf.len() - self.pos) as u64 {
            return Err(DeError::custom(format!(
                "{what} length runs past the end of the frame"
            )));
        }
        if self.remaining.len() >= crate::MAX_DEPTH {
            return Err(DeError::custom("nesting too deep".to_string()));
        }
        self.remaining.push(count);
        Ok(())
    }

    /// Decrements the innermost remaining-count; `true` while elements
    /// are left, popping the container at zero.
    fn next_element(&mut self) -> bool {
        let left = self
            .remaining
            .last_mut()
            .expect("element outside a container");
        if *left == 0 {
            self.remaining.pop();
            false
        } else {
            *left -= 1;
            true
        }
    }
}

impl<'de> Reader<'de> for BinReader<'de> {
    fn peek(&mut self) -> Result<Peek, DeError> {
        match self.buf.get(self.pos) {
            None => Err(DeError::custom("truncated value".to_string())),
            Some(&TAG_NULL) => Ok(Peek::Null),
            Some(&(TAG_FALSE | TAG_TRUE)) => Ok(Peek::Bool),
            Some(&TAG_NUM) => Ok(Peek::Num),
            Some(&TAG_STR) => Ok(Peek::Str),
            Some(&TAG_ARR) => Ok(Peek::Arr),
            Some(&TAG_OBJ) => Ok(Peek::Obj),
            Some(&other) => Err(DeError::custom(format!("unknown value tag 0x{other:02x}"))),
        }
    }

    fn read_null(&mut self) -> Result<(), DeError> {
        self.tag(TAG_NULL, "null")
    }

    fn read_bool(&mut self) -> Result<bool, DeError> {
        match self.buf.get(self.pos) {
            Some(&TAG_FALSE) => {
                self.pos += 1;
                Ok(false)
            }
            Some(&TAG_TRUE) => {
                self.pos += 1;
                Ok(true)
            }
            Some(&other) => Err(DeError::custom(format!(
                "expected bool tag, found 0x{other:02x}"
            ))),
            None => Err(DeError::custom("truncated value".to_string())),
        }
    }

    fn read_f64(&mut self) -> Result<f64, DeError> {
        self.tag(TAG_NUM, "number")?;
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn read_str(&mut self) -> Result<Cow<'de, str>, DeError> {
        self.tag(TAG_STR, "string")?;
        Ok(Cow::Borrowed(self.str_bytes()?))
    }

    fn begin_array(&mut self) -> Result<(), DeError> {
        self.begin(TAG_ARR, "array")
    }

    fn array_next(&mut self) -> Result<bool, DeError> {
        Ok(self.next_element())
    }

    fn begin_object(&mut self) -> Result<(), DeError> {
        self.begin(TAG_OBJ, "object")
    }

    fn object_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError> {
        if !self.next_element() {
            return Ok(None);
        }
        Ok(Some(Cow::Borrowed(self.str_bytes()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deserialize;

    fn round_trip(value: &Value) -> Value {
        let mut out = Vec::new();
        write_value(value, &mut out);
        let mut reader = BinReader::new(&out);
        let back = Value::read_from(&mut reader).expect("decodes");
        reader.expect_end().expect("fully consumed");
        back
    }

    #[test]
    fn values_round_trip() {
        for value in [
            Value::Null,
            Value::Bool(true),
            Value::Num(-0.0),
            Value::Str("π ≈ 3".into()),
            Value::Arr(vec![Value::Num(1.0), Value::Null]),
            Value::Obj(vec![("k".into(), Value::Arr(vec![]))]),
        ] {
            assert_eq!(round_trip(&value), value);
        }
        // Negative zero keeps its bits (binary numbers are raw f64).
        let Value::Num(z) = round_trip(&Value::Num(-0.0)) else {
            panic!("number expected");
        };
        assert!(z.is_sign_negative());
    }

    #[test]
    fn depth_cap_holds() {
        let mut payload = Vec::new();
        for _ in 0..crate::MAX_DEPTH + 2 {
            payload.extend_from_slice(&[TAG_ARR, 1]);
        }
        payload.push(TAG_NULL);
        let mut reader = BinReader::new(&payload);
        let err = Value::read_from(&mut reader).expect_err("depth cap");
        assert!(err.0.contains("deep"), "{err}");
    }

    #[test]
    fn truncation_is_an_error() {
        for junk in [&b"\x04\xff"[..], b"\x05\xff\xff\xff\xff\x0f", b"\x99"] {
            let mut reader = BinReader::new(junk);
            assert!(Value::read_from(&mut reader).is_err(), "{junk:?}");
        }
    }
}
