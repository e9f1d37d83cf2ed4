//! The self-describing value model and its typed accessors.

use crate::Decode;
use std::collections::BTreeMap;

/// A self-describing value: the common shape every persisted struct
/// lowers into before hitting a byte format.
///
/// Maps are ordered (`BTreeMap`), so encoding is deterministic: the
/// same value always produces the same JSON bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// IEEE-754 double. Non-finite values are representable in memory
    /// but rejected by the JSON encoder (JSON has no NaN/±inf).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes; JSON-encoded as the `{"$bytes": "<base64>"}` marker.
    Bytes(Vec<u8>),
    /// Ordered sequence.
    Seq(Vec<Value>),
    /// String-keyed map with deterministic (sorted) iteration order.
    Map(BTreeMap<String, Value>),
}

/// A value had the wrong shape for the type being decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    /// Builds an error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        DecodeError {
            message: message.into(),
        }
    }

    /// A "field `name` missing" error.
    pub fn missing_field(name: &str) -> Self {
        DecodeError::new(format!("missing field '{name}'"))
    }

    /// Prefixes the message with a field context, so nested decode
    /// errors read as a path (`field 'train': field 'feature': ...`).
    #[must_use]
    pub fn in_field(self, name: &str) -> Self {
        DecodeError::new(format!("field '{name}': {}", self.message))
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

impl Value {
    /// A one-word name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::Seq(_) => "seq",
            Value::Map(_) => "map",
        }
    }

    fn expected(&self, what: &str) -> DecodeError {
        DecodeError::new(format!("expected {what}, found {}", self.kind()))
    }

    /// Builds a map value from `(field, value)` pairs — the encoder-side
    /// counterpart of [`Value::get`].
    ///
    /// # Panics
    ///
    /// Panics if two fields share a name (a bug in the calling `Encode`
    /// implementation, not a data condition).
    pub fn record<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        let mut map = BTreeMap::new();
        for (name, value) in fields {
            let clash = map.insert(name.to_owned(), value);
            assert!(clash.is_none(), "duplicate record field '{name}'");
        }
        Value::Map(map)
    }

    /// The boolean payload.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a [`Value::Bool`].
    pub fn as_bool(&self) -> Result<bool, DecodeError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.expected("bool")),
        }
    }

    /// The integer payload.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a [`Value::Int`].
    pub fn as_i64(&self) -> Result<i64, DecodeError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(other.expected("int")),
        }
    }

    /// The float payload; integers widen losslessly (JSON `3` and `3.0`
    /// both decode into an `f64` field).
    ///
    /// # Errors
    ///
    /// Errors when the value is neither a float nor an int.
    pub fn as_f64(&self) -> Result<f64, DecodeError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(other.expected("float")),
        }
    }

    /// The string payload.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a [`Value::Str`].
    pub fn as_str(&self) -> Result<&str, DecodeError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.expected("str")),
        }
    }

    /// The bytes payload.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Result<&[u8], DecodeError> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(other.expected("bytes")),
        }
    }

    /// The sequence payload.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a [`Value::Seq`].
    pub fn as_seq(&self) -> Result<&[Value], DecodeError> {
        match self {
            Value::Seq(s) => Ok(s),
            other => Err(other.expected("seq")),
        }
    }

    /// The map payload.
    ///
    /// # Errors
    ///
    /// Errors when the value is not a [`Value::Map`].
    pub fn as_map(&self) -> Result<&BTreeMap<String, Value>, DecodeError> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(other.expected("map")),
        }
    }

    /// The raw value of map field `name`.
    ///
    /// # Errors
    ///
    /// Errors when `self` is not a map or the field is absent.
    pub fn field(&self, name: &str) -> Result<&Value, DecodeError> {
        self.as_map()?
            .get(name)
            .ok_or_else(|| DecodeError::missing_field(name))
    }

    /// Decodes map field `name` into `T` — the workhorse of hand-written
    /// [`Decode`] implementations. Errors carry the field name.
    ///
    /// # Errors
    ///
    /// Errors when `self` is not a map, the field is absent, or its
    /// value does not decode as `T`.
    pub fn get<T: Decode>(&self, name: &str) -> Result<T, DecodeError> {
        T::decode(self.field(name)?).map_err(|e| e.in_field(name))
    }

    /// Decodes map field `name`, defaulting when absent or null — for
    /// schema evolution: fields added in later revisions decode from
    /// older artifacts via their default.
    ///
    /// # Errors
    ///
    /// Errors when `self` is not a map or a *present* field fails to
    /// decode.
    pub fn get_or<T: Decode>(&self, name: &str, default: T) -> Result<T, DecodeError> {
        match self.as_map()?.get(name) {
            None | Some(Value::Null) => Ok(default),
            Some(v) => T::decode(v).map_err(|e| e.in_field(name)),
        }
    }
}

// ---------------------------------------------------------------------
// Base64 (standard alphabet, padded) — the bytes ↔ JSON bridge.
// ---------------------------------------------------------------------

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Byte → six-bit value reverse table (0xFF = not in the alphabet);
/// decoding a model artifact walks megabytes of base64, so the lookup
/// must be O(1) per character, not a scan of the alphabet.
const BASE64_REVERSE: [u8; 256] = {
    let mut table = [0xFFu8; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes bytes as standard padded base64.
pub fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let idx = [(n >> 18) & 63, (n >> 12) & 63, (n >> 6) & 63, n & 63];
        for (i, &ix) in idx.iter().enumerate() {
            if i <= chunk.len() {
                out.push(BASE64_ALPHABET[ix as usize] as char);
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// Decodes standard padded base64.
///
/// # Errors
///
/// Errors on characters outside the alphabet, bad padding, or a length
/// that is not a multiple of four.
pub fn base64_decode(text: &str) -> Result<Vec<u8>, DecodeError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(DecodeError::new("base64 length not a multiple of 4"));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (chunk_idx, chunk) in bytes.chunks(4).enumerate() {
        let is_last = (chunk_idx + 1) * 4 == bytes.len();
        let mut n = 0u32;
        let mut pad = 0usize;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' {
                // Padding only in the last chunk's final positions.
                if !is_last || i < 2 || chunk[i..].iter().any(|&t| t != b'=') {
                    return Err(DecodeError::new("misplaced base64 padding"));
                }
                pad += 1;
                0
            } else {
                match BASE64_REVERSE[c as usize] {
                    0xFF => return Err(DecodeError::new("invalid base64 character")),
                    v => u32::from(v),
                }
            };
            n = (n << 6) | v;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let v = Value::record([("a", Value::Int(1)), ("b", Value::Str("x".into()))]);
        assert_eq!(v.get::<i64>("a").unwrap(), 1);
        assert_eq!(v.get::<String>("b").unwrap(), "x");
        let err = v.get::<i64>("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        let err = v.get::<i64>("b").unwrap_err();
        assert!(err.to_string().contains("field 'b'"), "{err}");
    }

    #[test]
    fn get_or_defaults_only_when_absent_or_null() {
        let v = Value::record([("present", Value::Int(5)), ("nulled", Value::Null)]);
        assert_eq!(v.get_or("present", 0i64).unwrap(), 5);
        assert_eq!(v.get_or("nulled", 7i64).unwrap(), 7);
        assert_eq!(v.get_or("absent", 9i64).unwrap(), 9);
        assert!(v.get_or("present", String::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate record field")]
    fn record_rejects_duplicate_fields() {
        Value::record([("a", Value::Int(1)), ("a", Value::Int(2))]);
    }

    #[test]
    fn ints_widen_to_floats_but_not_conversely() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert!(Value::Float(3.0).as_i64().is_err());
    }

    #[test]
    fn base64_known_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        for v in [&b""[..], b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar"] {
            assert_eq!(base64_decode(&base64_encode(v)).unwrap(), v);
        }
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("Zg=").is_err(), "bad length");
        assert!(base64_decode("Z!==").is_err(), "bad alphabet");
        assert!(base64_decode("=g==").is_err(), "padding first");
        assert!(base64_decode("Zg=A").is_err(), "padding mid-chunk");
        assert!(base64_decode("Zg==Zg==").is_err(), "padding before end");
    }

    #[test]
    fn base64_roundtrips_binary() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
    }
}
