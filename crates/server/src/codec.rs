//! The compact binary wire codec: versioned, length-prefixed frames
//! over the same data model the JSON codec serialises.
//!
//! JSON stays the service default; a client opts into this codec per
//! request by sending `content-type: application/x-abbd-binary`
//! ([`CONTENT_TYPE`]) for its body and/or `accept:` the same type for
//! the reply. Because both codecs are total maps over the identical
//! value model (and the JSON shim prints floats shortest-roundtrip),
//! **decoding either wire form yields the same value** — the proptest
//! in `tests/codec.rs` pins that equivalence on arbitrary requests and
//! reports.
//!
//! The payload encoding itself lives in [`serde::binary`]; this module
//! adds the frame header and the typed entry points. Encoding streams
//! through [`serde::Serialize::write_binary`] ([`frame_into`] /
//! [`to_frame`]) and decoding through [`serde::binary::BinReader`]
//! ([`decode_frame`] / [`from_frame`]). A caller that wants the dynamic
//! tree decodes into `T = serde::Value`; `tests/codec.rs` pins that a
//! typed frame read back as a `Value` re-encodes to the same bytes.
//!
//! ## Frame layout
//!
//! ```text
//! frame   := magic("aB", 2 bytes) version(1 byte, = 1) length(u32 LE) payload
//! payload := value
//! value   := 0x00                                 null
//!          | 0x01                                 false
//!          | 0x02                                 true
//!          | 0x03 f64-LE(8 bytes)                 number
//!          | 0x04 varint(n) utf8[n]               string
//!          | 0x05 varint(n) value*n               array
//!          | 0x06 varint(n) (varint(k) utf8[k] value)*n   object
//! ```
//!
//! `varint` is LEB128 (7 bits per byte, little-endian, high bit =
//! continue). The `length` prefix counts payload bytes only, so a
//! reader can frame a stream without decoding it — the streaming
//! row-oriented `diagnose_batch` body is exactly a sequence of these
//! frames, one per row, never one giant document.
//!
//! Decoding is hardened for the fuzz harness: every length is checked
//! against the remaining buffer before allocation, nesting depth is
//! capped at [`MAX_DEPTH`] (shared with the JSON reader), and every
//! failure is an error value — junk frames at worst cost the client a
//! `400`.

use serde::binary::BinReader;
use serde::{Deserialize, Serialize};

/// Hard cap on value nesting (shared with the JSON reader), so
/// adversarial frames cannot overflow the decoder's stack.
pub use serde::MAX_DEPTH;

/// The negotiated media type for this codec.
pub const CONTENT_TYPE: &str = "application/x-abbd-binary";
/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"aB";
/// The codec version this build writes (and the only one it reads).
pub const VERSION: u8 = 1;

/// Why a frame could not be decoded (maps to `400 bad_request` at the
/// service boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(message: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(message.into()))
}

/// Appends one whole frame (header + payload) to `out`, streaming the
/// payload through [`Serialize::write_binary`].
pub fn frame_into<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    let length_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    value.write_binary(out);
    let payload = (out.len() - length_at - 4) as u32;
    out[length_at..length_at + 4].copy_from_slice(&payload.to_le_bytes());
}

/// Validates the frame header at `*pos`, advancing past it; returns
/// the payload's end offset.
fn frame_header(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let end = pos.checked_add(7).filter(|&end| end <= buf.len());
    let Some(header_end) = end else {
        return err("length runs past the end of the frame");
    };
    let header = &buf[*pos..header_end];
    if header[..2] != MAGIC {
        return err("bad frame magic");
    }
    if header[2] != VERSION {
        return err(format!("unsupported codec version {}", header[2]));
    }
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&header[3..7]);
    let payload_len = u32::from_le_bytes(raw) as usize;
    *pos = header_end;
    let payload_end = pos.checked_add(payload_len).filter(|&end| end <= buf.len());
    let Some(payload_end) = payload_end else {
        return err("frame length runs past the end of the buffer");
    };
    Ok(payload_end)
}

/// Reads one frame starting at `*pos` straight into a
/// serde-deserialisable type, advancing `*pos` past it.
///
/// # Errors
///
/// Fails on a bad magic/version, a length prefix running past the end
/// of `buf`, trailing payload garbage, a malformed value encoding, or a
/// shape mismatch from the target type's `Deserialize`.
pub fn decode_frame<T: Deserialize>(buf: &[u8], pos: &mut usize) -> Result<T, CodecError> {
    let payload_end = frame_header(buf, pos)?;
    let mut reader = BinReader::new(&buf[*pos..payload_end]);
    let value = T::read_from(&mut reader).map_err(|e| CodecError(e.0))?;
    reader.expect_end().map_err(|e| CodecError(e.0))?;
    *pos = payload_end;
    Ok(value)
}

/// Encodes any serde-serialisable value as one binary frame, streaming
/// through [`frame_into`].
pub fn to_frame<T: Serialize>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    frame_into(value, &mut out);
    out
}

/// Decodes exactly one binary frame into a serde-deserialisable value
/// (trailing bytes after the frame are an error — this is the
/// whole-body form; use [`decode_frame`] for streams of frames).
///
/// # Errors
///
/// Propagates [`decode_frame`] failures plus shape mismatches from the
/// target type's `Deserialize`.
pub fn from_frame<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut pos = 0usize;
    let value = decode_frame(bytes, &mut pos)?;
    if pos != bytes.len() {
        return err("trailing bytes after the frame");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::binary::{TAG_ARR, TAG_NULL};
    use serde::Value;

    fn round_trip(value: &Value) -> Value {
        let mut out = Vec::new();
        frame_into(value, &mut out);
        let mut pos = 0;
        let back = decode_frame::<Value>(&out, &mut pos).expect("frame decodes");
        assert_eq!(pos, out.len(), "frame fully consumed");
        back
    }

    #[test]
    fn scalars_and_composites_round_trip() {
        for value in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Num(0.0),
            Value::Num(-1.5),
            Value::Num(f64::MIN_POSITIVE),
            Value::Str(String::new()),
            Value::Str("delta".into()),
            Value::Arr(vec![Value::Num(1.0), Value::Str("x".into()), Value::Null]),
            Value::Obj(vec![
                ("a".into(), Value::Arr(vec![])),
                (
                    "b".into(),
                    Value::Obj(vec![("c".into(), Value::Bool(true))]),
                ),
            ]),
        ] {
            assert_eq!(round_trip(&value), value);
        }
    }

    #[test]
    fn frames_concatenate_into_streams() {
        let mut out = Vec::new();
        frame_into(&1u8, &mut out);
        frame_into("row", &mut out);
        let mut pos = 0;
        assert_eq!(
            decode_frame::<Value>(&out, &mut pos).unwrap(),
            Value::Num(1.0)
        );
        assert_eq!(
            decode_frame::<String>(&out, &mut pos).unwrap(),
            "row".to_string()
        );
        assert_eq!(pos, out.len());
    }

    #[test]
    fn junk_is_an_error_not_a_panic() {
        for junk in [
            &b""[..],
            b"aB",
            b"xx\x01\x00\x00\x00\x00",
            b"aB\x02\x00\x00\x00\x00",         // wrong version
            b"aB\x01\xff\xff\xff\xff\x00",     // length past the end
            b"aB\x01\x01\x00\x00\x00\x99",     // unknown tag
            b"aB\x01\x02\x00\x00\x00\x00\x00", // trailing payload bytes
            b"aB\x01\x02\x00\x00\x00\x04\xff", // truncated string length
            b"aB\x01\x06\x00\x00\x00\x05\xff\xff\xff\xff\x0f", // huge array count
        ] {
            let mut pos = 0;
            assert!(decode_frame::<Value>(junk, &mut pos).is_err(), "{junk:?}");
        }
    }

    #[test]
    fn deep_nesting_is_capped() {
        // MAX_DEPTH+2 nested single-element arrays: tag+count each.
        let mut payload = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            payload.extend_from_slice(&[TAG_ARR, 1]);
        }
        payload.push(TAG_NULL);
        let mut framed = Vec::new();
        framed.extend_from_slice(&MAGIC);
        framed.push(VERSION);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        let mut pos = 0;
        let error = decode_frame::<Value>(&framed, &mut pos).expect_err("depth cap holds");
        assert!(error.0.contains("deep"), "{error}");
    }
}
