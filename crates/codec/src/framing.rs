//! Length-prefixed wire framing for streaming transports.
//!
//! `gp-net` carries gp-codec payloads over TCP / Unix-domain byte
//! streams; this module defines the frame envelope and an incremental
//! decoder that never desyncs on a *payload*-level problem:
//!
//! ```text
//!   ┌───────┬─────────┬──────────────┬──────────────┬───────────┐
//!   │ "GP"  │ version │ len (u32 BE) │ fnv32(payld) │  payload  │
//!   │ 2 B   │ 1 B     │ 4 B          │ 4 B          │  len B    │
//!   └───────┴─────────┴──────────────┴──────────────┴───────────┘
//! ```
//!
//! Error taxonomy (the part protocol robustness hangs on):
//!
//! * **Truncated** frames are not errors at all — [`FrameDecoder::next`]
//!   returns `Ok(None)` until the remaining bytes arrive.
//! * **Corrupt** payloads (checksum mismatch) are *recoverable*: the
//!   header told us the length, so the decoder skips exactly that
//!   payload, reports [`FrameError::Corrupt`] once, and the next call
//!   resumes at the following frame — the stream stays in sync.
//! * **Oversized** lengths and **bad magic/version** are *fatal*
//!   ([`FrameError::desyncs`]): a length past the cap is
//!   indistinguishable from garbage (trusting it could swallow the
//!   whole stream), so the connection must be dropped.
//!
//! The checksum is FNV-1a (32-bit): not cryptographic, just enough to
//! turn silent payload corruption into a counted, skippable error.

/// Leading magic bytes of every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"GP";
/// Wire protocol version this codec emits and accepts.
pub const FRAME_VERSION: u8 = 1;
/// Envelope bytes preceding the payload.
pub const FRAME_HEADER_LEN: usize = 11;

/// FNV-1a 32-bit checksum over `bytes`.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// A framing problem in an incoming byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream did not start a frame with [`FRAME_MAGIC`] — the
    /// decoder has lost sync and the connection cannot be salvaged.
    BadMagic { found: [u8; 2] },
    /// A frame declared an unsupported protocol version.
    BadVersion { found: u8 },
    /// A frame declared a payload longer than the decoder's cap. The
    /// length cannot be trusted, so this is fatal.
    Oversized { len: usize, max: usize },
    /// A complete frame's payload failed its checksum. The envelope was
    /// intact, so the frame was skipped and decoding can continue.
    Corrupt { len: usize },
}

impl FrameError {
    /// Whether the stream is unrecoverable after this error (the caller
    /// must drop the connection rather than keep decoding).
    pub fn desyncs(&self) -> bool {
        !matches!(self, FrameError::Corrupt { .. })
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02X?} (stream desynced)")
            }
            FrameError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported frame version {found} (expected {FRAME_VERSION})"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap {max}")
            }
            FrameError::Corrupt { len } => {
                write!(f, "checksum mismatch on {len}-byte payload (frame skipped)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps `payload` in the wire envelope.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when `payload` exceeds `max` — the
/// sender-side mirror of the decoder cap, so an oversized message is
/// refused before it poisons the stream.
pub fn encode_frame(payload: &[u8], max: usize) -> Result<Vec<u8>, FrameError> {
    if payload.len() > max || payload.len() > u32::MAX as usize {
        return Err(FrameError::Oversized {
            len: payload.len(),
            max,
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&checksum(payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental frame decoder over an arbitrary chunking of the stream.
///
/// Feed bytes with [`FrameDecoder::extend`] as they arrive; pull
/// complete payloads with [`FrameDecoder::next`]. Chunk boundaries are
/// invisible: any split of the byte stream yields the same sequence of
/// payloads and errors.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted opportunistically).
    pos: usize,
    max_frame: usize,
    /// Set once a desyncing error was returned: all further input is
    /// garbage by definition.
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder rejecting payloads longer than `max_frame` bytes.
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// Appends newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by one
        // frame plus one read chunk.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete payload, if the buffer holds one.
    ///
    /// `Ok(None)` means "truncated — need more bytes". After an error
    /// with [`FrameError::desyncs`]` == false` (a skipped corrupt
    /// frame), the decoder continues with the following frame; after a
    /// desyncing error every further call returns that same error.
    #[allow(
        clippy::should_implement_trait,
        reason = "not an iterator: an error does not end the stream, and \
                  the end-to-end benchmark calls this name"
    )]
    pub fn next(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic { found: *b"??" });
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        if avail[0..2] != FRAME_MAGIC {
            self.poisoned = true;
            return Err(FrameError::BadMagic {
                found: [avail[0], avail[1]],
            });
        }
        if avail[2] != FRAME_VERSION {
            self.poisoned = true;
            return Err(FrameError::BadVersion { found: avail[2] });
        }
        let len = u32::from_be_bytes([avail[3], avail[4], avail[5], avail[6]]) as usize;
        if len > self.max_frame {
            self.poisoned = true;
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        if avail.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let declared = u32::from_be_bytes([avail[7], avail[8], avail[9], avail[10]]);
        let payload = &avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let ok = checksum(payload) == declared;
        let payload = ok.then(|| payload.to_vec());
        self.pos += FRAME_HEADER_LEN + len;
        match payload {
            Some(p) => Ok(Some(p)),
            None => Err(FrameError::Corrupt { len }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        encode_frame(payload, 1 << 20).unwrap()
    }

    #[test]
    fn roundtrip_single_frame() {
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&framed(b"hello"));
        assert_eq!(dec.next().unwrap(), Some(b"hello".to_vec()));
        assert_eq!(dec.next().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn empty_payload_is_legal() {
        let mut dec = FrameDecoder::new(16);
        dec.extend(&framed(b""));
        assert_eq!(dec.next().unwrap(), Some(Vec::new()));
    }

    #[test]
    fn byte_at_a_time_chunking_is_invisible() {
        let stream: Vec<u8> = [framed(b"one"), framed(b"two"), framed(b"three")].concat();
        let mut dec = FrameDecoder::new(64);
        let mut out = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(p) = dec.next().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(
            out,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn corrupt_payload_is_skipped_without_desync() {
        let mut bad = framed(b"corrupt-me");
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let stream: Vec<u8> = [framed(b"first"), bad, framed(b"after")].concat();
        let mut dec = FrameDecoder::new(64);
        dec.extend(&stream);
        assert_eq!(dec.next().unwrap(), Some(b"first".to_vec()));
        let err = dec.next().unwrap_err();
        assert_eq!(err, FrameError::Corrupt { len: 10 });
        assert!(!err.desyncs(), "corrupt frames are recoverable");
        assert_eq!(dec.next().unwrap(), Some(b"after".to_vec()));
    }

    #[test]
    fn oversized_and_bad_magic_are_fatal() {
        let mut dec = FrameDecoder::new(4);
        dec.extend(&encode_frame(b"tiny!", 64).unwrap());
        let err = dec.next().unwrap_err();
        assert_eq!(err, FrameError::Oversized { len: 5, max: 4 });
        assert!(err.desyncs());
        // The decoder stays poisoned even across more (valid) input.
        dec.extend(&framed(b"ok"));
        assert!(dec.next().is_err());

        let mut dec = FrameDecoder::new(64);
        dec.extend(b"XXjunk-that-is-long-enough");
        assert!(dec.next().unwrap_err().desyncs());
    }

    #[test]
    fn sender_refuses_oversized_payloads() {
        assert_eq!(
            encode_frame(&[0u8; 9], 8),
            Err(FrameError::Oversized { len: 9, max: 8 })
        );
    }

    #[test]
    fn bad_version_is_fatal() {
        let mut frame = framed(b"x");
        frame[2] = FRAME_VERSION + 1;
        let mut dec = FrameDecoder::new(64);
        dec.extend(&frame);
        let err = dec.next().unwrap_err();
        assert_eq!(
            err,
            FrameError::BadVersion {
                found: FRAME_VERSION + 1
            }
        );
        assert!(err.desyncs());
    }
}
