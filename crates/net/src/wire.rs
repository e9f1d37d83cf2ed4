//! The gp-net wire protocol: messages carried inside
//! [`gp_codec::framing`] envelopes.
//!
//! [`ClientMsg::Frame`], the message a sensor sends thousands of times
//! a second, travels in a fixed binary layout (below) that decodes in
//! one bounds-checked pass straight into a [`Frame`]. Every other
//! message, and every [`ServerMsg`], is gp-codec JSON: a map with a
//! `"type"` tag. Both forms are float-exact (a frame's timestamps and
//! point kinematics survive the wire bit for bit, so a socket replay
//! segments identically to an in-process replay), and the decoders
//! reject unknown tags, malformed shapes and non-finite frame values
//! with a [`gp_codec::DecodeError`], never a panic. [`to_wire`] and
//! [`from_wire`] are the one entry pair for both message types.
//!
//! Client → server: [`ClientMsg::Hello`] (protocol handshake), a stream
//! of [`ClientMsg::Frame`]s (with [`ClientMsg::StatsQuery`],
//! [`ClientMsg::Enroll`], and [`ClientMsg::Identify`] allowed at any
//! point mid-stream), then [`ClientMsg::Close`]. Server → client:
//! [`ServerMsg::Welcome`], zero or more [`ServerMsg::Result`]s, one
//! [`ServerMsg::EnrollAck`] per accepted enrollment switch, one
//! [`ServerMsg::Stats`] per query, and a final [`ServerMsg::Bye`]
//! carrying the session's admission ledger — or [`ServerMsg::Error`]
//! before a fatal disconnect.
//!
//! # Versioning
//!
//! Wire version 2 added the identity plane (`Enroll`/`Identify`/
//! `EnrollAck`, the optional `identity` payload on `Result`, and the
//! `enrolled` ledger field). Wire version 3 moved `Frame` from JSON to
//! the binary layout below; nothing else changed. The server speaks
//! version 3 only: a `Hello` for version 1 or 2 gets a typed `Error`
//! and the connection closes, since those peers send JSON frames.
//!
//! A frame payload is exactly `13 + 40·n` bytes, every number
//! little-endian:
//!
//! | offset | bytes | field |
//! |---|---|---|
//! | 0 | 1 | tag `0xFF` (never the first byte of UTF-8 text, so of no JSON payload) |
//! | 1 | 8 | timestamp `t`, `f64` |
//! | 9 | 4 | point count `n`, `u32` |
//! | 13 + 40·i | 40 | point `i`: `x`, `y`, `z`, `doppler`, `snr`, each `f64` |
//!
//! Floats are their exact IEEE-754 bits. NaN and ±∞ are refused in all
//! six slots, so no non-finite value reaches segmentation or DBSCAN
//! from the wire (JSON cannot carry them either). A payload whose
//! length is not `13 + 40·n` is refused before anything is allocated.

use gp_codec::{Decode, DecodeError, Encode, Value};
use gp_pointcloud::{Point, PointCloud, Vec3};
use gp_radar::Frame;
use gp_serve::IdentityOutcome;
use gp_telemetry::TelemetrySnapshot;

/// Application-protocol version, carried in [`ClientMsg::Hello`]
/// (independent of the byte-framing version).
pub const WIRE_VERSION: u32 = 3;

/// Oldest client protocol version the server speaks. Versions 1 and 2
/// sent frames as JSON, which this crate no longer decodes.
pub const MIN_WIRE_VERSION: u32 = 3;

/// First byte of a frame payload.
const FRAME_TAG: u8 = 0xFF;
/// Frame payload bytes before the first point: tag, `t` and `n`.
const FRAME_HEAD: usize = 13;
/// Frame payload bytes per point: five `f64`s.
const POINT_BYTES: usize = 40;
/// A point's five `f64` slots, as error messages name them.
const POINT_SLOTS: [&str; 5] = ["x", "y", "z", "doppler", "snr"];

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake: must be the first message on a connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
    },
    /// One radar frame of the session's stream.
    Frame(Frame),
    /// Ask for a live [`ServerMsg::Stats`] telemetry snapshot. Valid
    /// any time mid-stream; the reply is ordered with surrounding
    /// results.
    StatsQuery,
    /// Switch the session into enrollment mode: every *subsequently
    /// completed* segment's embedding is folded into `user`'s gallery
    /// template. Acknowledged with [`ServerMsg::EnrollAck`]; fatal if
    /// the server has no identity store. Segments already in flight
    /// keep the mode they were enqueued under.
    Enroll {
        /// The user label to enroll under.
        user: String,
    },
    /// Switch the session into open-set identification mode: results
    /// carry an identity verdict (accepted user or rejection) alongside
    /// the gesture. Fatal if the server has no identity store.
    Identify,
    /// End of stream: the server flushes the session and answers with
    /// remaining results plus [`ServerMsg::Bye`].
    Close,
}

/// Per-session admission ledger reported in [`ServerMsg::Bye`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireLedger {
    /// Frames admitted into the session.
    pub admitted: u64,
    /// Frames shed by the session's own admission budget.
    pub shed_budget: u64,
    /// Frames shed by engine saturation.
    pub shed_capacity: u64,
    /// Frames deferred (admitted late) under engine saturation.
    pub deferred: u64,
    /// Segments detected (including noise-canceled ones).
    pub segments: u64,
    /// Classified results published.
    pub results: u64,
    /// Results the server dropped because this client read too slowly.
    pub dropped_results: u64,
    /// Gallery enrollments performed by this session (wire v2; absent
    /// from version-1 ledgers and decoded as 0).
    pub enrolled: u64,
}

impl Encode for WireLedger {
    fn encode(&self) -> Value {
        Value::record([
            ("admitted", self.admitted.encode()),
            ("shed_budget", self.shed_budget.encode()),
            ("shed_capacity", self.shed_capacity.encode()),
            ("deferred", self.deferred.encode()),
            ("segments", self.segments.encode()),
            ("results", self.results.encode()),
            ("dropped_results", self.dropped_results.encode()),
            ("enrolled", self.enrolled.encode()),
        ])
    }
}

impl Decode for WireLedger {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(WireLedger {
            admitted: value.get("admitted")?,
            shed_budget: value.get("shed_budget")?,
            shed_capacity: value.get("shed_capacity")?,
            deferred: value.get("deferred")?,
            segments: value.get("segments")?,
            results: value.get("results")?,
            dropped_results: value.get("dropped_results")?,
            enrolled: value.get_or("enrolled", 0)?,
        })
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake reply: the stream was accepted as `session`.
    Welcome {
        /// The engine session id assigned to this connection.
        session: u64,
    },
    /// One classified gesture segment.
    Result {
        /// Dispatch sequence number (ascending per session).
        seq: u64,
        /// Segment start, absolute frame index in the session.
        start: u64,
        /// Segment end (exclusive), absolute frame index.
        end: u64,
        /// Recognised gesture class.
        gesture: u64,
        /// Identified user class.
        user: u64,
        /// Segment-detected → result-published latency, microseconds.
        latency_us: u64,
        /// Identity verdict for sessions in enroll/identify mode
        /// (wire v2). `None` for plain classification sessions and on
        /// version-1 streams.
        identity: Option<IdentityOutcome>,
    },
    /// Acknowledges a [`ClientMsg::Enroll`] mode switch (wire v2):
    /// segments completing from here on enroll `user`.
    EnrollAck {
        /// The user label now being enrolled.
        user: String,
    },
    /// Reply to [`ClientMsg::StatsQuery`]: the server's current
    /// telemetry registry export (independently versioned via
    /// [`gp_telemetry::TELEMETRY_SCHEMA_VERSION`]).
    Stats(TelemetrySnapshot),
    /// End of session: the final admission ledger. Closes the stream.
    Bye(WireLedger),
    /// Fatal protocol error; the server closes the connection after
    /// sending this.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

fn tagged(tag: &str, mut fields: Vec<(&'static str, Value)>) -> Value {
    fields.push(("type", Value::Str(tag.to_owned())));
    Value::record(fields)
}

/// Writes `frame`'s payload in the wire-v3 layout, or `None` for a
/// cloud of more than `u32::MAX` points.
fn frame_payload(frame: &Frame) -> Option<Vec<u8>> {
    let n = u32::try_from(frame.cloud.len()).ok()?;
    let mut out = Vec::with_capacity(FRAME_HEAD + POINT_BYTES * frame.cloud.len());
    out.push(FRAME_TAG);
    out.extend_from_slice(&frame.timestamp.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    for p in frame.cloud.iter() {
        for v in [p.position.x, p.position.y, p.position.z, p.doppler, p.snr] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Some(out)
}

/// The little-endian `f64` at `bytes[at..at + 8]`.
fn f64_at(bytes: &[u8], at: usize) -> f64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    f64::from_le_bytes(raw)
}

fn non_finite(slot: &str, point: Option<usize>) -> DecodeError {
    let at = point.map_or(String::new(), |i| format!(" of point {i}"));
    DecodeError::new(format!("frame {slot}{at} is not finite"))
}

/// Decodes a wire-v3 frame payload (tag byte included). The length is
/// checked against `n` before the cloud is allocated.
fn frame_from_payload(payload: &[u8]) -> Result<Frame, DecodeError> {
    let Some(head) = payload.get(..FRAME_HEAD) else {
        return Err(DecodeError::new(format!(
            "frame payload of {} bytes is shorter than its {FRAME_HEAD}-byte head",
            payload.len()
        )));
    };
    let n = u32::from_le_bytes([head[9], head[10], head[11], head[12]]) as usize;
    let body = &payload[FRAME_HEAD..];
    if n.checked_mul(POINT_BYTES) != Some(body.len()) {
        return Err(DecodeError::new(format!(
            "frame of {n} points carries {} body bytes, not {n} × {POINT_BYTES}",
            body.len()
        )));
    }
    let timestamp = f64_at(head, 1);
    if !timestamp.is_finite() {
        return Err(non_finite("t", None));
    }
    let mut cloud = PointCloud::with_capacity(n);
    for (i, row) in body.chunks_exact(POINT_BYTES).enumerate() {
        let v = [0, 8, 16, 24, 32].map(|at| f64_at(row, at));
        if let Some(slot) = v.iter().position(|x| !x.is_finite()) {
            return Err(non_finite(POINT_SLOTS[slot], Some(i)));
        }
        cloud.push(Point::new(Vec3::new(v[0], v[1], v[2]), v[3], v[4]));
    }
    Ok(Frame::new(timestamp, cloud))
}

/// Parses a JSON payload into its value tree.
fn json_value(payload: &[u8]) -> Result<Value, DecodeError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| DecodeError::new("wire payload is not UTF-8"))?;
    gp_codec::from_json(text).map_err(|e| DecodeError::new(format!("bad JSON: {e}")))
}

/// A message type that crosses the wire: [`ClientMsg`] or
/// [`ServerMsg`]. [`to_wire`] and [`from_wire`] frame and unframe it.
pub trait Message: Sized {
    /// The message's payload, or `None` if it holds a value its
    /// encoding cannot carry (a non-finite float in a JSON message).
    fn to_payload(&self) -> Option<Vec<u8>>;

    /// Decodes one deframed payload.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for bytes that are not a message of
    /// this type.
    fn from_payload(payload: &[u8]) -> Result<Self, DecodeError>;
}

impl ClientMsg {
    /// The message's name in error texts, e.g. `"frame"`; also the
    /// JSON `"type"` tag of every message but `Frame`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ClientMsg::Hello { .. } => "hello",
            ClientMsg::Frame(_) => "frame",
            ClientMsg::StatsQuery => "stats_query",
            ClientMsg::Enroll { .. } => "enroll",
            ClientMsg::Identify => "identify",
            ClientMsg::Close => "close",
        }
    }
}

impl Message for ClientMsg {
    fn to_payload(&self) -> Option<Vec<u8>> {
        let fields = match self {
            ClientMsg::Frame(frame) => return frame_payload(frame),
            ClientMsg::Hello { version } => vec![("version", version.encode())],
            ClientMsg::Enroll { user } => vec![("user", user.encode())],
            ClientMsg::StatsQuery | ClientMsg::Identify | ClientMsg::Close => vec![],
        };
        let json = gp_codec::to_json(&tagged(self.kind(), fields)).ok()?;
        Some(json.into_bytes())
    }

    fn from_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        if payload.first() == Some(&FRAME_TAG) {
            return frame_from_payload(payload).map(ClientMsg::Frame);
        }
        let value = json_value(payload)?;
        let tag: String = value.get("type")?;
        match tag.as_str() {
            "hello" => Ok(ClientMsg::Hello {
                version: value.get("version")?,
            }),
            "stats_query" => Ok(ClientMsg::StatsQuery),
            "enroll" => Ok(ClientMsg::Enroll {
                user: value.get("user")?,
            }),
            "identify" => Ok(ClientMsg::Identify),
            "close" => Ok(ClientMsg::Close),
            other => Err(DecodeError::new(format!(
                "unknown client message type '{other}'"
            ))),
        }
    }
}

/// Encodes an identity verdict as a self-describing nested map (the
/// `identity` field of a `result` message).
fn identity_to_value(identity: &IdentityOutcome) -> Value {
    match identity {
        IdentityOutcome::Enrolled { user, samples } => Value::record([
            ("event", Value::Str("enrolled".into())),
            ("user", user.encode()),
            ("samples", samples.encode()),
        ]),
        IdentityOutcome::Identified { user, distance } => Value::record([
            ("event", Value::Str("identified".into())),
            ("user", user.encode()),
            ("distance", distance.encode()),
        ]),
        IdentityOutcome::Unknown { distance } => Value::record([
            ("event", Value::Str("unknown".into())),
            (
                "distance",
                match distance {
                    Some(d) => d.encode(),
                    None => Value::Null,
                },
            ),
        ]),
    }
}

/// Decodes the optional `identity` field of a `result` message. Absent
/// or `null` (every version-1 result) is `None`, never an error.
fn identity_from_value(value: &Value) -> Result<Option<IdentityOutcome>, DecodeError> {
    let raw = match value.as_map()?.get("identity") {
        None | Some(Value::Null) => return Ok(None),
        Some(raw) => raw,
    };
    let event: String = raw.get("event")?;
    let identity = match event.as_str() {
        "enrolled" => IdentityOutcome::Enrolled {
            user: raw.get("user")?,
            samples: raw.get("samples")?,
        },
        "identified" => IdentityOutcome::Identified {
            user: raw.get("user")?,
            distance: raw.get("distance")?,
        },
        "unknown" => IdentityOutcome::Unknown {
            distance: match raw.as_map()?.get("distance") {
                None | Some(Value::Null) => None,
                Some(d) => Some(d.as_f64().map_err(|e| e.in_field("distance"))?),
            },
        },
        other => {
            return Err(
                DecodeError::new(format!("unknown identity event '{other}'")).in_field("identity"),
            )
        }
    };
    Ok(Some(identity))
}

impl ServerMsg {
    /// The message's wire `"type"` tag, e.g. `"enroll_ack"`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ServerMsg::Welcome { .. } => "welcome",
            ServerMsg::Result { .. } => "result",
            ServerMsg::EnrollAck { .. } => "enroll_ack",
            ServerMsg::Stats(_) => "stats",
            ServerMsg::Bye(_) => "bye",
            ServerMsg::Error { .. } => "error",
        }
    }
}

impl Encode for ServerMsg {
    fn encode(&self) -> Value {
        let fields = match self {
            ServerMsg::Welcome { session } => vec![("session", session.encode())],
            ServerMsg::Result {
                seq,
                start,
                end,
                gesture,
                user,
                latency_us,
                identity,
            } => {
                let mut fields = vec![
                    ("seq", seq.encode()),
                    ("start", start.encode()),
                    ("end", end.encode()),
                    ("gesture", gesture.encode()),
                    ("user", user.encode()),
                    ("latency_us", latency_us.encode()),
                ];
                // Omitted (not null) when absent, so a v1-shaped result
                // stays byte-for-byte what a v1 server produced.
                if let Some(identity) = identity {
                    fields.push(("identity", identity_to_value(identity)));
                }
                fields
            }
            ServerMsg::EnrollAck { user } => vec![("user", user.encode())],
            ServerMsg::Stats(snapshot) => vec![("snapshot", snapshot.encode())],
            ServerMsg::Bye(ledger) => vec![("ledger", ledger.encode())],
            ServerMsg::Error { message } => vec![("message", message.encode())],
        };
        tagged(self.kind(), fields)
    }
}

impl Decode for ServerMsg {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        let tag: String = value.get("type")?;
        match tag.as_str() {
            "welcome" => Ok(ServerMsg::Welcome {
                session: value.get("session")?,
            }),
            "result" => Ok(ServerMsg::Result {
                seq: value.get("seq")?,
                start: value.get("start")?,
                end: value.get("end")?,
                gesture: value.get("gesture")?,
                user: value.get("user")?,
                latency_us: value.get("latency_us")?,
                identity: identity_from_value(value)?,
            }),
            "enroll_ack" => Ok(ServerMsg::EnrollAck {
                user: value.get("user")?,
            }),
            "stats" => Ok(ServerMsg::Stats(value.get("snapshot")?)),
            "bye" => Ok(ServerMsg::Bye(value.get("ledger")?)),
            "error" => Ok(ServerMsg::Error {
                message: value.get("message")?,
            }),
            other => Err(DecodeError::new(format!(
                "unknown server message type '{other}'"
            ))),
        }
    }
}

impl Message for ServerMsg {
    fn to_payload(&self) -> Option<Vec<u8>> {
        gp_codec::to_json(&self.encode())
            .ok()
            .map(String::into_bytes)
    }

    fn from_payload(payload: &[u8]) -> Result<Self, DecodeError> {
        ServerMsg::decode(&json_value(payload)?)
    }
}

/// Encodes a message to its framed wire bytes.
///
/// # Panics
///
/// Panics if the encoded payload exceeds `max_frame` — sender-side
/// messages are built from bounded radar frames, so exceeding the cap
/// is a configuration bug, not a data condition. The server encodes its
/// replies through a fallible twin instead, because some echo client
/// bytes.
pub fn to_wire<T: Message>(msg: &T, max_frame: usize) -> Vec<u8> {
    try_to_wire(msg, max_frame).expect("wire message exceeds frame cap")
}

/// Encodes a message to its framed wire bytes, or `None` if it cannot
/// be framed: its payload exceeds `max_frame`, or it holds a value its
/// encoding cannot carry.
pub(crate) fn try_to_wire<T: Message>(msg: &T, max_frame: usize) -> Option<Vec<u8>> {
    gp_codec::encode_frame(&msg.to_payload()?, max_frame).ok()
}

/// Encodes one radar frame to the framed bytes of
/// [`ClientMsg::Frame`], from a borrowed frame.
///
/// # Panics
///
/// As [`to_wire`].
pub(crate) fn frame_to_wire(frame: &Frame, max_frame: usize) -> Vec<u8> {
    frame_payload(frame)
        .and_then(|payload| gp_codec::encode_frame(&payload, max_frame).ok())
        .expect("wire message exceeds frame cap")
}

/// Decodes one deframed payload into a message.
///
/// # Errors
///
/// Returns a [`DecodeError`] for a frame payload that breaks the
/// layout or carries a non-finite value, and for non-UTF-8 bytes,
/// malformed JSON, or a well-formed value of the wrong shape.
pub fn from_wire<T: Message>(payload: &[u8]) -> Result<T, DecodeError> {
    T::from_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: &ClientMsg) -> ClientMsg {
        let bytes = to_wire(msg, 1 << 16);
        let mut dec = gp_codec::FrameDecoder::new(1 << 16);
        dec.extend(&bytes);
        let payload = dec.next().unwrap().expect("one full frame");
        from_wire(&payload).unwrap()
    }

    #[test]
    fn client_messages_roundtrip() {
        let cloud: PointCloud = vec![
            Point::new(Vec3::new(0.125, -1.5, 2.0), 0.25, 15.5),
            Point::new(Vec3::new(1e-12, 0.0, -3.5), -0.75, 1.0),
        ]
        .into_iter()
        .collect();
        for msg in [
            ClientMsg::Hello {
                version: WIRE_VERSION,
            },
            ClientMsg::Frame(Frame::new(1.7, cloud)),
            ClientMsg::StatsQuery,
            ClientMsg::Enroll {
                user: "alice".into(),
            },
            ClientMsg::Identify,
            ClientMsg::Close,
        ] {
            assert_eq!(roundtrip_client(&msg), msg);
        }
    }

    #[test]
    fn server_messages_roundtrip() {
        let mut snapshot = TelemetrySnapshot::new();
        snapshot.counters.insert("net.accepted".into(), 3);
        let mut hist = gp_telemetry::Histogram::new();
        hist.record(1500);
        hist.record(90_000);
        snapshot
            .histograms
            .insert("serve.stage.inference".into(), hist);
        for msg in [
            ServerMsg::Welcome { session: 42 },
            ServerMsg::Result {
                seq: 7,
                start: 10,
                end: 35,
                gesture: 3,
                user: 1,
                latency_us: 1500,
                identity: None,
            },
            ServerMsg::Result {
                seq: 8,
                start: 35,
                end: 60,
                gesture: 2,
                user: 0,
                latency_us: 900,
                identity: Some(IdentityOutcome::Enrolled {
                    user: "alice".into(),
                    samples: 3,
                }),
            },
            ServerMsg::Result {
                seq: 9,
                start: 60,
                end: 80,
                gesture: 1,
                user: 2,
                latency_us: 800,
                identity: Some(IdentityOutcome::Identified {
                    user: "bob".into(),
                    distance: 0.625,
                }),
            },
            ServerMsg::Result {
                seq: 10,
                start: 80,
                end: 95,
                gesture: 0,
                user: 4,
                latency_us: 700,
                identity: Some(IdentityOutcome::Unknown {
                    distance: Some(3.5),
                }),
            },
            ServerMsg::Result {
                seq: 11,
                start: 95,
                end: 110,
                gesture: 5,
                user: 3,
                latency_us: 650,
                identity: Some(IdentityOutcome::Unknown { distance: None }),
            },
            ServerMsg::EnrollAck {
                user: "alice".into(),
            },
            ServerMsg::Stats(snapshot),
            ServerMsg::Bye(WireLedger {
                admitted: 100,
                shed_budget: 20,
                shed_capacity: 3,
                deferred: 5,
                segments: 4,
                results: 3,
                dropped_results: 1,
                enrolled: 2,
            }),
            ServerMsg::Error {
                message: "bad \"frame\"".into(),
            },
        ] {
            let bytes = to_wire(&msg, 1 << 16);
            let mut dec = gp_codec::FrameDecoder::new(1 << 16);
            dec.extend(&bytes);
            let payload = dec.next().unwrap().unwrap();
            assert_eq!(from_wire::<ServerMsg>(&payload).unwrap(), msg);
        }
    }

    #[test]
    fn version_one_shapes_still_decode() {
        // A wire-v1 result has no identity field: decodes as None.
        let v1_result = br#"{"type":"result","seq":1,"start":0,"end":20,"gesture":2,"user":1,"latency_us":500}"#;
        let msg: ServerMsg = from_wire(v1_result).unwrap();
        assert_eq!(
            msg,
            ServerMsg::Result {
                seq: 1,
                start: 0,
                end: 20,
                gesture: 2,
                user: 1,
                latency_us: 500,
                identity: None,
            }
        );
        // A wire-v1 ledger has no enrolled field: decodes as 0.
        let v1_bye = br#"{"type":"bye","ledger":{"admitted":9,"shed_budget":1,"shed_capacity":0,"deferred":0,"segments":2,"results":2,"dropped_results":0}}"#;
        let ServerMsg::Bye(ledger) = from_wire(v1_bye).unwrap() else {
            panic!("expected Bye");
        };
        assert_eq!(ledger.enrolled, 0);
        assert_eq!(ledger.admitted, 9);
        // An identity verdict from a *future* version fails typed.
        let future = br#"{"type":"result","seq":1,"start":0,"end":20,"gesture":2,"user":1,"latency_us":500,"identity":{"event":"teleported"}}"#;
        let err = from_wire::<ServerMsg>(future).unwrap_err();
        assert!(err.to_string().contains("identity event"));
    }

    #[test]
    fn unknown_tags_and_bad_shapes_fail_typed() {
        assert!(from_wire::<ClientMsg>(br#"{"type":"warp"}"#).is_err());
        assert!(from_wire::<ClientMsg>(b"\xFF\xFE").is_err());
        assert!(
            from_wire::<ClientMsg>(br#"{"type":"frame","frame":{"t":0.0,"points":[[1]]}}"#)
                .is_err()
        );
        assert!(from_wire::<ServerMsg>(br#"[1,2,3]"#).is_err());
        // A snapshot from a future schema fails typed, not silently.
        let future = br#"{"type":"stats","snapshot":{"schema_version":99,"counters":{},"gauges":{},"histograms":{},"attrs":{}}}"#;
        let err = from_wire::<ServerMsg>(future).unwrap_err();
        assert!(err.to_string().contains("newer than supported"));
    }

    /// Every `f64` a frame carries, as raw bits (`==` on floats would
    /// equate `0.0` and `-0.0`).
    fn frame_bits(frame: &Frame) -> Vec<u64> {
        std::iter::once(frame.timestamp)
            .chain(
                frame
                    .cloud
                    .iter()
                    .flat_map(|p| [p.position.x, p.position.y, p.position.z, p.doppler, p.snr]),
            )
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn frames_roundtrip_bit_for_bit() {
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            0.1,
        ];
        // Each edge value lands in every slot of some point.
        let cloud: PointCloud = (0..edges.len())
            .map(|i| {
                let v = |k: usize| edges[(i + k) % edges.len()];
                Point::new(Vec3::new(v(0), v(1), v(2)), v(3), v(4))
            })
            .collect();
        let mut frames: Vec<Frame> = edges
            .iter()
            .map(|&t| Frame::new(t, PointCloud::new()))
            .collect();
        frames.push(Frame::new(-0.0, cloud));
        for frame in frames {
            let wire = to_wire(&ClientMsg::Frame(frame.clone()), 1 << 16);
            assert_eq!(frame_to_wire(&frame, 1 << 16), wire);
            let payload = &wire[gp_codec::framing::FRAME_HEADER_LEN..];
            assert_eq!(payload.len(), FRAME_HEAD + POINT_BYTES * frame.len());
            let ClientMsg::Frame(back) = roundtrip_client(&ClientMsg::Frame(frame.clone())) else {
                panic!("a frame payload decodes as a frame");
            };
            assert_eq!(frame_bits(&back), frame_bits(&frame));
        }
    }

    #[test]
    fn malformed_frames_fail_typed() {
        let frame = Frame::new(
            0.5,
            [
                Point::new(Vec3::new(1.0, 2.0, 3.0), 0.25, 9.0),
                Point::new(Vec3::new(-1.0, 0.5, 1.5), -0.75, 4.0),
            ]
            .into_iter()
            .collect(),
        );
        let good = frame_payload(&frame).expect("two points");
        assert!(from_wire::<ClientMsg>(&good).is_ok());

        // NaN and ±∞ in each of the six slots: `t`, then the second
        // point's five.
        let slots = std::iter::once(("t", 1)).chain(
            POINT_SLOTS
                .iter()
                .enumerate()
                .map(|(k, &slot)| (slot, FRAME_HEAD + POINT_BYTES + 8 * k)),
        );
        for (slot, at) in slots {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut bytes = good.clone();
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let err = from_wire::<ClientMsg>(&bytes).expect_err("non-finite value");
                let text = err.to_string();
                assert!(
                    text.contains(&format!("frame {slot}")) && text.contains("not finite"),
                    "{value} in {slot}: {text}"
                );
            }
        }

        let mut huge = good[..FRAME_HEAD + POINT_BYTES].to_vec();
        huge[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        for (case, bytes) in [
            ("one byte long", [good.as_slice(), &[0]].concat()),
            ("one byte short", good[..good.len() - 1].to_vec()),
            ("u32::MAX points, one point of body", huge),
            ("tag alone", vec![FRAME_TAG]),
        ] {
            let err = from_wire::<ClientMsg>(&bytes).expect_err(case);
            assert!(err.to_string().starts_with("frame"), "{case}: {err}");
        }
    }
}
