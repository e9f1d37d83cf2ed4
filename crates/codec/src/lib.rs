//! Self-describing serialization for GesturePrint artifacts.
//!
//! The workspace's persisted state — model weights, the feature and
//! preprocessor configurations that must match at inference time, and
//! the evaluation reports that justify deployment — flows through this
//! crate. It replaces the vendored no-op `serde` markers with a small
//! working stack:
//!
//! * [`Value`] — a self-describing data model (null / bool / int /
//!   float / str / bytes / seq / map) every persisted struct lowers
//!   into,
//! * [`json`] — a compact JSON encoder and a *strict* decoder for that
//!   model: full string escapes, a nesting limit, duplicate-key
//!   rejection, and precise `f64` round-tripping (every finite float
//!   survives encode → decode bit-exactly),
//! * [`binary`] — a canonical CBOR-style byte backend over the same
//!   model: raw bytes instead of base64, varint integers, strict
//!   sorted-key maps; interchangeable with JSON for every value JSON
//!   can express,
//! * [`Encode`] / [`Decode`] — the traits persistence-shaped APIs
//!   accept. Implementations are hand-written per struct (the workspace
//!   has no proc-macro budget for a real derive) and live next to the
//!   type they serialise.
//!
//! Bytes have no native JSON representation; [`Value::Bytes`] encodes
//! as the single-key object `{"$bytes": "<base64>"}` and the decoder
//! maps that marker back. The key `$bytes` is therefore reserved: maps
//! with exactly that one key cannot be expressed (the encoder rejects
//! them rather than corrupt a decode).
//!
//! ```
//! use gp_codec::{json, Decode, DecodeError, Encode, Value};
//!
//! struct Point { x: f64, tags: Vec<String> }
//!
//! impl Encode for Point {
//!     fn encode(&self) -> Value {
//!         Value::record([("x", self.x.encode()), ("tags", self.tags.encode())])
//!     }
//! }
//! impl Decode for Point {
//!     fn decode(value: &Value) -> Result<Self, DecodeError> {
//!         Ok(Point { x: value.get("x")?, tags: value.get("tags")? })
//!     }
//! }
//!
//! let p = Point { x: 1.5, tags: vec!["a".into()] };
//! let text = json::to_json(&p.encode()).unwrap();
//! assert_eq!(text, r#"{"tags":["a"],"x":1.5}"#);
//! let back = Point::decode(&json::from_json(&text).unwrap()).unwrap();
//! assert_eq!(back.x, 1.5);
//! ```

#![forbid(unsafe_code)]

pub mod binary;
pub mod framing;
pub mod json;
pub mod value;

pub use binary::{decode_from_binary, encode_to_binary, from_binary, to_binary};
pub use framing::{encode_frame, FrameDecoder, FrameError};
pub use json::{from_json, to_json, EncodeError, JsonError};
pub use value::{DecodeError, Value};

/// Lowers a type into the self-describing [`Value`] model.
pub trait Encode {
    /// The value representation of `self`.
    fn encode(&self) -> Value;
}

/// Rebuilds a type from a [`Value`].
pub trait Decode: Sized {
    /// Decodes `value` into `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when `value` has the wrong shape.
    fn decode(value: &Value) -> Result<Self, DecodeError>;
}

/// Encodes a value straight to its compact JSON text.
///
/// # Errors
///
/// Returns [`EncodeError`] for non-finite floats, reserved-key maps, or
/// nesting beyond the codec limit.
pub fn encode_to_json<T: Encode>(value: &T) -> Result<String, EncodeError> {
    json::to_json(&value.encode())
}

/// Decodes a type from JSON text.
///
/// # Errors
///
/// Returns the JSON parse error or the value-shape error as a string —
/// callers that need to distinguish parse from shape errors should call
/// [`json::from_json`] and [`Decode::decode`] separately.
pub fn decode_from_json<T: Decode>(text: &str) -> Result<T, DecodeError> {
    let value = json::from_json(text).map_err(|e| DecodeError::new(format!("bad JSON: {e}")))?;
    T::decode(&value)
}

// ---------------------------------------------------------------------
// Primitive and container implementations.
// ---------------------------------------------------------------------

impl Encode for Value {
    fn encode(&self) -> Value {
        self.clone()
    }
}

impl Decode for Value {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(value.clone())
    }
}

impl Encode for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Decode for bool {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        value.as_bool()
    }
}

impl Encode for i64 {
    fn encode(&self) -> Value {
        Value::Int(*self)
    }
}

impl Decode for i64 {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        value.as_i64()
    }
}

impl Encode for u32 {
    fn encode(&self) -> Value {
        Value::Int(i64::from(*self))
    }
}

impl Decode for u32 {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        u32::try_from(value.as_i64()?).map_err(|_| DecodeError::new("integer out of range for u32"))
    }
}

impl Encode for u64 {
    fn encode(&self) -> Value {
        // The full u64 range is legal (seeds are arbitrary u64 bit
        // patterns); values past i64::MAX ride as a decimal string so
        // encoding never panics and never loses bits.
        match i64::try_from(*self) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Str(self.to_string()),
        }
    }
}

impl Decode for u64 {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        match value {
            Value::Str(s) => s
                .parse::<u64>()
                .map_err(|_| DecodeError::new(format!("'{s}' is not a u64"))),
            other => u64::try_from(other.as_i64()?)
                .map_err(|_| DecodeError::new("negative integer for u64")),
        }
    }
}

impl Encode for usize {
    fn encode(&self) -> Value {
        (*self as u64).encode()
    }
}

impl Decode for usize {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        usize::try_from(u64::decode(value)?)
            .map_err(|_| DecodeError::new("integer out of range for usize"))
    }
}

impl Encode for f64 {
    fn encode(&self) -> Value {
        Value::Float(*self)
    }
}

impl Decode for f64 {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        value.as_f64()
    }
}

impl Encode for f32 {
    fn encode(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Decode for f32 {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        let wide = value.as_f64()?;
        let narrow = wide as f32;
        if narrow.is_finite() || !wide.is_finite() {
            Ok(narrow)
        } else {
            Err(DecodeError::new("float out of range for f32"))
        }
    }
}

impl Encode for String {
    fn encode(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Decode for String {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(value.as_str()?.to_owned())
    }
}

impl Encode for str {
    fn encode(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self) -> Value {
        Value::Seq(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        value.as_seq()?.iter().map(T::decode).collect()
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self) -> Value {
        Value::Seq(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self) -> Value {
        match self {
            Some(v) => v.encode(),
            None => Value::Null,
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        match value {
            Value::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self) -> Value {
        Value::Seq(vec![self.0.encode(), self.1.encode()])
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        let seq = value.as_seq()?;
        if seq.len() != 2 {
            return Err(DecodeError::new(format!(
                "expected a 2-element seq, found {} elements",
                seq.len()
            )));
        }
        Ok((A::decode(&seq[0])?, B::decode(&seq[1])?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert!(bool::decode(&true.encode()).unwrap());
        assert_eq!(i64::decode(&(-7i64).encode()).unwrap(), -7);
        assert_eq!(usize::decode(&42usize.encode()).unwrap(), 42);
        assert_eq!(f64::decode(&1.25f64.encode()).unwrap(), 1.25);
        assert_eq!(f32::decode(&1.25f32.encode()).unwrap(), 1.25);
        assert_eq!(String::decode(&"hi".encode()).unwrap(), "hi");
        assert_eq!(
            Vec::<i64>::decode(&vec![1i64, 2].encode()).unwrap(),
            vec![1, 2]
        );
        assert_eq!(Option::<i64>::decode(&Value::Null).unwrap(), None);
        assert_eq!(Option::<i64>::decode(&Value::Int(3)).unwrap(), Some(3));
        assert_eq!(
            <(f64, f64)>::decode(&(0.25, 0.75).encode()).unwrap(),
            (0.25, 0.75)
        );
    }

    #[test]
    fn narrowing_is_checked() {
        assert!(u32::decode(&Value::Int(-1)).is_err());
        assert!(u64::decode(&Value::Int(-1)).is_err());
        assert!(usize::decode(&Value::Int(-1)).is_err());
        assert!(bool::decode(&Value::Int(1)).is_err());
        assert!(f32::decode(&Value::Float(1e300)).is_err());
    }

    #[test]
    fn full_u64_range_roundtrips_without_panicking() {
        for v in [0u64, 7, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let encoded = v.encode();
            assert_eq!(u64::decode(&encoded).unwrap(), v, "{v}");
            // The wide half rides as a string; the narrow half as an int.
            match encoded {
                Value::Int(_) => assert!(v <= i64::MAX as u64),
                Value::Str(_) => assert!(v > i64::MAX as u64),
                other => panic!("unexpected encoding {other:?}"),
            }
        }
        assert!(u64::decode(&Value::Str("not a number".into())).is_err());
        assert_eq!(
            usize::decode(&u64::MAX.encode()).unwrap(),
            u64::MAX as usize
        );
    }

    #[test]
    fn json_convenience_roundtrip() {
        let v = vec![1.5f64, -2.25];
        let text = encode_to_json(&v).unwrap();
        let back: Vec<f64> = decode_from_json(&text).unwrap();
        assert_eq!(back, v);
    }
}
