//! Minimal in-tree replacement for the `serde` crate.
//!
//! The workspace builds offline, so this shim carries its own small data
//! model and one data path per direction:
//!
//! * [`Serialize::write_json`] / [`Serialize::write_binary`] stream a
//!   type straight into a byte buffer;
//! * [`Deserialize::read_from`] decodes it from an event-driven
//!   [`Reader`] ([`json::JsonReader`] or [`binary::BinReader`]).
//!
//! The derive macros (re-exported from `serde_derive`) generate exactly
//! those three methods for plain structs and enums, honouring
//! `#[serde(default)]` and `#[serde(skip)]`.
//!
//! [`Value`] is the dynamic, self-describing form of the same model. It
//! implements both traits, so any encoding can be read into a tree
//! (`Value::read_from`) and any tree written back out. Two readers need
//! one: `serde_json::to_string_pretty`, which indents a tree, and callers
//! that inspect a body of unknown shape. [`Serialize::to_value`] builds
//! it for any type by streaming the binary encoding and reading it back,
//! which keeps every f64 bit.
//!
//! Wire limits: both readers cap container nesting at [`MAX_DEPTH`], so
//! adversarial input fails with a parse error instead of exhausting the
//! decoder's stack.
//!
//! Maps serialize as arrays of `[key, value]` pairs regardless of key type,
//! which keeps the encoding self-consistent for non-string keys (the real
//! serde_json would reject those).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub mod binary;
pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// Hard cap on container nesting for both wire readers, so adversarial
/// `[[[[…` input (JSON or binary) cannot overflow the decoder's stack.
pub const MAX_DEPTH: usize = 128;

/// The dynamic, self-describing form of the data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (f64 is exact for every integer the workspace stores).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object with insertion order preserved.
    Obj(Vec<(String, Value)>),
}

/// Deserialization failure: what was expected, where.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// An "expected X while deserializing Y" error.
    pub fn expected(what: &str, ty: &str) -> Self {
        DeError(format!("expected {what} while deserializing {ty}"))
    }

    /// A missing-field error.
    pub fn missing(field: &str, ty: &str) -> Self {
        DeError(format!("missing field `{field}` while deserializing {ty}"))
    }

    /// A free-form error.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// What kind of value sits next in a [`Reader`]'s input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peek {
    /// A `null`.
    Null,
    /// A boolean.
    Bool,
    /// A number (for JSON: any token that is not one of the others —
    /// `read_f64` settles whether it actually parses).
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// An event-driven decoder over a borrowed input slice — the common
/// interface [`Deserialize::read_from`] is written against, implemented
/// by [`json::JsonReader`] and [`binary::BinReader`].
///
/// Containers are symmetric state machines: `begin_array` then
/// `array_next` until it returns `false`; `begin_object` then
/// `object_key` until it returns `None`. Strings borrow from the input
/// (`'de`) whenever the encoding allows.
pub trait Reader<'de> {
    /// Classifies the next value without consuming it.
    ///
    /// # Errors
    ///
    /// Fails on exhausted input (or, for binary, an unknown tag).
    fn peek(&mut self) -> Result<Peek, DeError>;

    /// Consumes a `null`.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not `null`.
    fn read_null(&mut self) -> Result<(), DeError>;

    /// Consumes a boolean.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not a boolean.
    fn read_bool(&mut self) -> Result<bool, DeError>;

    /// Consumes a number.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not a number.
    fn read_f64(&mut self) -> Result<f64, DeError>;

    /// Consumes a string, borrowing from the input when possible.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not a (well-formed) string.
    fn read_str(&mut self) -> Result<Cow<'de, str>, DeError>;

    /// Opens an array.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not an array, or the nesting depth
    /// exceeds [`MAX_DEPTH`].
    fn begin_array(&mut self) -> Result<(), DeError>;

    /// `true` if another element follows (read it next); `false` closes
    /// the array.
    ///
    /// # Errors
    ///
    /// Fails on malformed input (e.g. a missing `,`).
    fn array_next(&mut self) -> Result<bool, DeError>;

    /// Opens an object.
    ///
    /// # Errors
    ///
    /// Fails if the next value is not an object, or the nesting depth
    /// exceeds [`MAX_DEPTH`].
    fn begin_object(&mut self) -> Result<(), DeError>;

    /// The next entry's key (read its value next), or `None` closing
    /// the object.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    fn object_key(&mut self) -> Result<Option<Cow<'de, str>>, DeError>;

    /// Consumes and discards one whole value (any shape) — how struct
    /// decoding skips unknown fields. Depth-capped like everything
    /// else.
    ///
    /// # Errors
    ///
    /// Propagates any parse failure inside the skipped value.
    fn skip_value(&mut self) -> Result<(), DeError>
    where
        Self: Sized,
    {
        match self.peek()? {
            Peek::Null => self.read_null(),
            Peek::Bool => self.read_bool().map(drop),
            Peek::Num => self.read_f64().map(drop),
            Peek::Str => self.read_str().map(drop),
            Peek::Arr => {
                self.begin_array()?;
                while self.array_next()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Peek::Obj => {
                self.begin_object()?;
                while self.object_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// Consumes one whole value into a [`Value`] tree — how
    /// [`Value::read_from`] and the default [`Serialize::to_value`] read
    /// a stream whose shape no type fixes.
    ///
    /// # Errors
    ///
    /// Propagates any parse failure.
    fn read_value(&mut self) -> Result<Value, DeError>
    where
        Self: Sized,
    {
        match self.peek()? {
            Peek::Null => {
                self.read_null()?;
                Ok(Value::Null)
            }
            Peek::Bool => Ok(Value::Bool(self.read_bool()?)),
            Peek::Num => Ok(Value::Num(self.read_f64()?)),
            Peek::Str => Ok(Value::Str(self.read_str()?.into_owned())),
            Peek::Arr => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.array_next()? {
                    items.push(self.read_value()?);
                }
                Ok(Value::Arr(items))
            }
            Peek::Obj => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.object_key()? {
                    let item = self.read_value()?;
                    entries.push((key.into_owned(), item));
                }
                Ok(Value::Obj(entries))
            }
        }
    }
}

/// Streams `self` into a byte buffer, in either encoding.
///
/// An impl overrides either both writers — what the derive does — or
/// [`Serialize::to_value`], for a hand-written tree. Each default calls
/// the other side, so an impl that overrides neither recurses forever.
pub trait Serialize {
    /// The [`Value`] tree of `self`. The default streams
    /// [`Serialize::write_binary`] and reads the bytes back, which is
    /// lossless: binary numbers are raw f64 bits.
    ///
    /// # Panics
    ///
    /// If `self` nests deeper than [`MAX_DEPTH`], which the reader
    /// refuses.
    fn to_value(&self) -> Value {
        let mut bytes = Vec::new();
        self.write_binary(&mut bytes);
        binary::BinReader::new(&bytes)
            .read_value()
            .expect("write_binary emits one well-formed value")
    }

    /// Appends the compact JSON encoding of `self` to `out`. The default
    /// encodes [`Serialize::to_value`].
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_value(&self.to_value(), out);
    }

    /// Appends the compact binary encoding of `self` to `out`. The
    /// default encodes [`Serialize::to_value`].
    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_value(&self.to_value(), out);
    }
}

/// Decodes `Self` from a streaming [`Reader`].
pub trait Deserialize: Sized {
    /// Parses `Self` out of `reader`, event by event.
    ///
    /// # Errors
    ///
    /// Propagates reader parse failures and shape mismatches.
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut Vec<u8>) {
        (**self).write_json(out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        (**self).write_binary(out);
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_value(self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_value(self, out);
    }
}

impl Deserialize for Value {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        reader.read_value()
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut Vec<u8>) {
                json::write_f64(*self as f64, out);
            }

            fn write_binary(&self, out: &mut Vec<u8>) {
                binary::write_f64(*self as f64, out);
            }
        }
        impl Deserialize for $t {
            fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
                let n = reader.read_f64()?;
                // `as` truncates fractions and saturates out-of-range
                // values, so accept only whole numbers in [MIN, MAX + 1).
                // `MAX as f64 + 1.0` is exactly MAX + 1, a power of two:
                // for 64-bit types `MAX` is not representable and rounds
                // up to it, absorbing the added 1.0.
                if n.fract() == 0.0 && n >= <$t>::MIN as f64 && n < <$t>::MAX as f64 + 1.0 {
                    Ok(n as $t)
                } else {
                    Err(DeError::expected("integer in range", stringify!($t)))
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_f64(*self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_f64(*self, out);
    }
}

impl Deserialize for f64 {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        match reader.peek()? {
            Peek::Num => reader.read_f64(),
            // NaN/inf arrive as null / string markers from the JSON
            // encoding.
            Peek::Null => {
                reader.read_null()?;
                Ok(f64::NAN)
            }
            Peek::Str => match reader.read_str()?.as_ref() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => Err(DeError::expected("number", "f64")),
            },
            _ => Err(DeError::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_f64(f64::from(*self), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        f64::read_from(reader).map(|n| n as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_bool(*self, out);
    }
}

impl Deserialize for bool {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        reader.read_bool()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_escaped(self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(self, out);
    }
}

impl Deserialize for String {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        Ok(reader.read_str()?.into_owned())
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_escaped(self, out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut Vec<u8>) {
        json::write_escaped(self.encode_utf8(&mut [0u8; 4]), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_str(self.encode_utf8(&mut [0u8; 4]), out);
    }
}

impl Deserialize for char {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        let s = reader.read_str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::expected("single-character string", "char")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut Vec<u8>) {
        match self {
            None => out.extend_from_slice(b"null"),
            Some(v) => v.write_json(out),
        }
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        match self {
            None => binary::write_null(out),
            Some(v) => v.write_binary(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        if reader.peek()? == Peek::Null {
            reader.read_null()?;
            Ok(None)
        } else {
            T::read_from(reader).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.as_slice().write_json(out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        self.as_slice().write_binary(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        reader.begin_array()?;
        let mut items = Vec::new();
        while reader.array_next()? {
            items.push(T::read_from(reader)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.write_json(out);
        }
        out.push(b']');
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_arr(self.len(), out);
        for item in self {
            item.write_binary(out);
        }
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut Vec<u8>) {
                out.push(b'[');
                let mut first = true;
                $(
                    if !::std::mem::replace(&mut first, false) {
                        out.push(b',');
                    }
                    self.$n.write_json(out);
                )+
                out.push(b']');
            }

            fn write_binary(&self, out: &mut Vec<u8>) {
                binary::write_arr([$( stringify!($n) ),+].len(), out);
                $( self.$n.write_binary(out); )+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
                reader.begin_array()?;
                let expected = [$( stringify!($n) ),+].len();
                let short = || DeError::custom(format!(
                    "tuple length mismatch: expected {expected}"
                ));
                let out = ($(
                    {
                        let _ = $n;
                        if !reader.array_next()? {
                            return Err(short());
                        }
                        $t::read_from(reader)?
                    },
                )+);
                if reader.array_next()? {
                    return Err(short());
                }
                Ok(out)
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_pairs_json(self.iter(), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        write_pairs_binary(self.len(), self.iter(), out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        read_pairs(reader, BTreeMap::new(), |map, k, v| {
            map.insert(k, v);
        })
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_pairs_json(sorted_hash_pairs(self).into_iter(), out);
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        write_pairs_binary(self.len(), sorted_hash_pairs(self).into_iter(), out);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn read_from<'de, R: Reader<'de>>(reader: &mut R) -> Result<Self, DeError> {
        read_pairs(reader, HashMap::new(), |map, k, v| {
            map.insert(k, v);
        })
    }
}

/// A deterministic pair order for a `HashMap`: sorted by the debug
/// rendering of each key's [`Value`].
fn sorted_hash_pairs<K: Serialize, V>(map: &HashMap<K, V>) -> Vec<(&K, &V)> {
    let mut pairs: Vec<(String, (&K, &V))> = map
        .iter()
        .map(|(k, v)| (format!("{:?}", k.to_value()), (k, v)))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs.into_iter().map(|(_, kv)| kv).collect()
}

/// Streams a map's `[[k, v], ...]` pair-array JSON encoding.
fn write_pairs_json<'m, K: Serialize + 'm, V: Serialize + 'm>(
    pairs: impl Iterator<Item = (&'m K, &'m V)>,
    out: &mut Vec<u8>,
) {
    out.push(b'[');
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        k.write_json(out);
        out.push(b',');
        v.write_json(out);
        out.push(b']');
    }
    out.push(b']');
}

/// Streams a map's `[[k, v], ...]` pair-array binary encoding.
fn write_pairs_binary<'m, K: Serialize + 'm, V: Serialize + 'm>(
    len: usize,
    pairs: impl Iterator<Item = (&'m K, &'m V)>,
    out: &mut Vec<u8>,
) {
    binary::write_arr(len, out);
    for (k, v) in pairs {
        binary::write_arr(2, out);
        k.write_binary(out);
        v.write_binary(out);
    }
}

/// Streams a map's pair-array decoding into `map` via `insert`.
fn read_pairs<'de, R: Reader<'de>, K: Deserialize, V: Deserialize, M>(
    reader: &mut R,
    mut map: M,
    insert: impl Fn(&mut M, K, V),
) -> Result<M, DeError> {
    let pair_error = || DeError::expected("[key, value] pair", "map");
    reader.begin_array()?;
    while reader.array_next()? {
        reader.begin_array()?;
        if !reader.array_next()? {
            return Err(pair_error());
        }
        let k = K::read_from(reader)?;
        if !reader.array_next()? {
            return Err(pair_error());
        }
        let v = V::read_from(reader)?;
        if reader.array_next()? {
            return Err(pair_error());
        }
        insert(&mut map, k, v);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_read<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut reader = json::JsonReader::new(text);
        let v = T::read_from(&mut reader)?;
        reader.expect_end()?;
        Ok(v)
    }

    fn binary_read<T: Deserialize>(bytes: &[u8]) -> Result<T, DeError> {
        let mut reader = binary::BinReader::new(bytes);
        let v = T::read_from(&mut reader)?;
        reader.expect_end()?;
        Ok(v)
    }

    /// `v` survives both writers and both readers.
    fn round_trips<T: Serialize + Deserialize + PartialEq + fmt::Debug>(v: &T) {
        let (mut js, mut bs) = (vec![], vec![]);
        v.write_json(&mut js);
        v.write_binary(&mut bs);
        assert_eq!(
            &json_read::<T>(std::str::from_utf8(&js).unwrap()).unwrap(),
            v
        );
        assert_eq!(&binary_read::<T>(&bs).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        round_trips(&42u32);
        round_trips(&1.5f64);
        round_trips(&"hi".to_string());
        round_trips(&Option::<u8>::None);
        round_trips(&(3u8, "x".to_string()));
    }

    #[test]
    fn maps_encode_as_pairs() {
        let mut m = BTreeMap::new();
        m.insert(2u32, "b".to_string());
        m.insert(1u32, "a".to_string());
        round_trips(&m);
        let mut js = Vec::new();
        m.write_json(&mut js);
        assert_eq!(js, br#"[[1,"a"],[2,"b"]]"#);
    }

    /// A hand-written tree impl, shaped like a batch header frame: it
    /// overrides only `to_value`, so both writers take the default path.
    struct TreeOnly;

    impl Serialize for TreeOnly {
        fn to_value(&self) -> Value {
            Value::Obj(vec![("deduction".to_string(), Value::Null)])
        }
    }

    /// A binary encoding read back as a [`Value`] re-encodes to the same
    /// bytes in both codecs, and is what `to_value` returns — so the tree
    /// `to_string_pretty` prints is exactly what the writers stream.
    #[test]
    fn streaming_writers_match_the_value_path() {
        fn check<T: Serialize>(v: &T) {
            let (mut js, mut bs) = (vec![], vec![]);
            v.write_json(&mut js);
            v.write_binary(&mut bs);
            let tree: Value = binary_read(&bs).expect("binary reads back as a Value");
            let (mut tree_js, mut tree_bs, mut to_value_bs) = (vec![], vec![], vec![]);
            json::write_value(&tree, &mut tree_js);
            binary::write_value(&tree, &mut tree_bs);
            // Compared as bytes: `Value::Num(NaN)` is not `==` itself.
            binary::write_value(&v.to_value(), &mut to_value_bs);
            assert_eq!(tree_js, js);
            assert_eq!(tree_bs, bs);
            assert_eq!(to_value_bs, bs);
        }
        check(&42u32);
        check(&-7i64);
        check(&1.5f64);
        check(&f64::NAN);
        check(&-0.0f64);
        check(&true);
        check(&'π');
        check(&"a\"b\\c\n".to_string());
        check(&Option::<u8>::None);
        check(&Some(3u8));
        check(&Vec::<u8>::new());
        check(&vec![1u8, 2, 3]);
        check(&(1u8, "two".to_string(), 3.0f64));
        let mut bt = BTreeMap::new();
        bt.insert("k".to_string(), vec![1u32]);
        check(&bt);
        let mut hm = HashMap::new();
        hm.insert("b".to_string(), 2u32);
        hm.insert("a".to_string(), 1u32);
        check(&hm);
        check(&TreeOnly);
        let mut js = Vec::new();
        TreeOnly.write_json(&mut js);
        assert_eq!(js, br#"{"deduction":null}"#);
    }

    /// The streaming readers accept the documented leniencies (NaN/inf
    /// markers for f64) and refuse malformed shapes. An integer takes
    /// only whole numbers its type can hold: `as` would truncate or
    /// saturate the rest into a valid-looking value.
    #[test]
    fn streaming_readers_match_the_value_path() {
        assert_eq!(json_read::<u32>("42"), Ok(42));
        assert!(json_read::<u32>("1.5").is_err());
        assert!(json_read::<f64>("null").unwrap().is_nan());
        assert_eq!(json_read::<f64>("\"inf\""), Ok(f64::INFINITY));
        assert_eq!(json_read::<Option<bool>>("null"), Ok(None));
        assert_eq!(
            json_read::<(u8, String)>("[3,\"x\"]"),
            Ok((3, "x".to_string()))
        );
        assert!(json_read::<(u8, u8)>("[1]").is_err());
        assert!(json_read::<(u8, u8)>("[1,2,3]").is_err());
        let m: HashMap<String, u32> = json_read("[[\"a\",1],[\"b\",2]]").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m["b"], 2);

        assert!(json_read::<usize>("-1").is_err());
        assert!(json_read::<Vec<(String, usize)>>(r#"[["out",-1]]"#).is_err());
        assert!(json_read::<u8>("256").is_err());
        assert!(json_read::<u32>("4294967296").is_err());
        // 2^64 and 2^63 are `u64::MAX as f64` and `i64::MAX as f64`.
        assert!(json_read::<u64>("18446744073709551616").is_err());
        assert!(json_read::<i64>("9223372036854775808").is_err());
        assert!(json_read::<i8>("-129").is_err());
        assert!(json_read::<u32>("\"NaN\"").is_err());
        let mut negative = Vec::new();
        binary::write_f64(-2.0, &mut negative);
        assert!(binary_read::<usize>(&negative).is_err());
        assert_eq!(json_read::<i64>("-9223372036854775808"), Ok(i64::MIN));
        assert_eq!(json_read::<i8>("-128"), Ok(i8::MIN));
        assert_eq!(json_read::<u8>("255"), Ok(u8::MAX));
        assert_eq!(json_read::<u32>("4294967295"), Ok(u32::MAX));
        // The largest f64 below 2^64.
        assert_eq!(
            json_read::<u64>("18446744073709549568"),
            Ok(18_446_744_073_709_549_568)
        );
    }
}
