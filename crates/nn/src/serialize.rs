//! Flat binary (de)serialisation of parameter vectors.
//!
//! Trained models are saved as a simple tagged stream: magic, version,
//! tensor count, then `len: u32` + little-endian `f32` payload per
//! tensor. Loading requires the exact same architecture (tensor count and
//! shapes), which the loader verifies.

use crate::Parameterized;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x4750_4E4E; // "GPNN"
const VERSION: u32 = 1;

/// Serialises all parameters of `model` into a byte buffer.
///
/// Export is read-only ([`Parameterized::visit_params`]): saving a
/// trained model does not require `&mut` access to it.
pub fn save_params(model: &dyn Parameterized) -> Bytes {
    // One pass sizes the stream, the second writes it: the weights are
    // copied once, straight into the buffer.
    let (mut count, mut len) = (0usize, 12usize);
    model.visit_params(&mut |p| {
        count += 1;
        len += 4 + p.len() * 4;
    });
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(count as u32);
    model.visit_params(&mut |p| {
        buf.put_u32_le(p.len() as u32);
        for &v in p {
            buf.put_f32_le(v);
        }
    });
    buf.freeze()
}

/// Errors from [`load_params`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadParamsError {
    /// The buffer does not start with the expected magic/version.
    BadHeader,
    /// The buffer ended early or tensor sizes disagree with the model.
    ShapeMismatch {
        /// Index of the offending tensor.
        tensor: usize,
    },
    /// The stream had a different number of tensors than the model.
    TensorCountMismatch {
        /// Tensors in the stream.
        stored: usize,
        /// Tensors in the model.
        expected: usize,
    },
}

impl std::fmt::Display for LoadParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadParamsError::BadHeader => write!(f, "bad header magic or version"),
            LoadParamsError::ShapeMismatch { tensor } => {
                write!(f, "tensor {tensor} size mismatch or truncated stream")
            }
            LoadParamsError::TensorCountMismatch { stored, expected } => {
                write!(f, "stream has {stored} tensors, model expects {expected}")
            }
        }
    }
}

impl std::error::Error for LoadParamsError {}

/// Loads parameters saved by [`save_params`] into `model`.
///
/// # Errors
///
/// Returns [`LoadParamsError`] when the stream is malformed or its shapes
/// do not match the model's parameters.
pub fn load_params(model: &mut dyn Parameterized, bytes: &[u8]) -> Result<(), LoadParamsError> {
    let mut buf = bytes;
    if buf.remaining() < 12 {
        return Err(LoadParamsError::BadHeader);
    }
    if buf.get_u32_le() != MAGIC || buf.get_u32_le() != VERSION {
        return Err(LoadParamsError::BadHeader);
    }
    let count = buf.get_u32_le() as usize;

    // Validate the untrusted header count against the model before any
    // count-sized allocation, so a corrupt file errors instead of
    // requesting absurd capacity.
    let mut shapes = Vec::new();
    model.visit_params(&mut |p| shapes.push(p.len()));
    if shapes.len() != count {
        return Err(LoadParamsError::TensorCountMismatch {
            stored: count,
            expected: shapes.len(),
        });
    }

    // Parse and verify every tensor before mutating anything.
    let mut tensors: Vec<Vec<f32>> = Vec::with_capacity(count);
    for (i, &expected) in shapes.iter().enumerate() {
        if buf.remaining() < 4 {
            return Err(LoadParamsError::ShapeMismatch { tensor: i });
        }
        let len = buf.get_u32_le() as usize;
        if len != expected || buf.remaining() < len * 4 {
            return Err(LoadParamsError::ShapeMismatch { tensor: i });
        }
        let mut t = Vec::with_capacity(len);
        for _ in 0..len {
            t.push(buf.get_f32_le());
        }
        tensors.push(t);
    }

    let mut iter = tensors.into_iter();
    model.for_each_param(&mut |p, _| {
        let t = iter.next().expect("count verified");
        p.copy_from_slice(&t);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Linear::new(6, 4, &mut rng);
        let bytes = save_params(&a);
        let mut b = Linear::new(6, 4, &mut StdRng::seed_from_u64(99));
        load_params(&mut b, &bytes).unwrap();
        let x = crate::Matrix::from_rows(&[vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]]);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Linear::new(6, 4, &mut rng);
        let bytes = save_params(&a);
        let mut b = Linear::new(5, 4, &mut rng);
        assert!(matches!(
            load_params(&mut b, &bytes),
            Err(LoadParamsError::ShapeMismatch { tensor: 0 })
        ));
    }

    #[test]
    fn rejects_garbage() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Linear::new(2, 2, &mut rng);
        assert_eq!(
            load_params(&mut a, b"nonsense"),
            Err(LoadParamsError::BadHeader)
        );
        assert_eq!(load_params(&mut a, &[]), Err(LoadParamsError::BadHeader));
    }

    #[test]
    fn rejects_absurd_tensor_count_header() {
        // A corrupt 12-byte file announcing u32::MAX tensors must error,
        // not attempt a count-sized allocation.
        let mut a = Linear::new(2, 2, &mut StdRng::seed_from_u64(1));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            load_params(&mut a, &bytes),
            Err(LoadParamsError::TensorCountMismatch { stored, .. }) if stored == u32::MAX as usize
        ));
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Linear::new(4, 4, &mut rng);
        let bytes = save_params(&a);
        let truncated = &bytes[..bytes.len() - 8];
        assert!(matches!(
            load_params(&mut a, truncated),
            Err(LoadParamsError::ShapeMismatch { .. })
        ));
    }
}
