//! The gp-net wire protocol: messages carried inside
//! [`gp_codec::framing`] envelopes.
//!
//! Payloads are gp-codec JSON — self-describing, deterministic, and
//! float-precise (a frame's timestamps and point kinematics survive the
//! wire bit-exactly, so a socket replay segments identically to an
//! in-process replay). Every message is a map with a `"type"` tag; the
//! decoder rejects unknown tags and malformed shapes with a
//! [`gp_codec::DecodeError`], never a panic.
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
//! `enrolled` ledger field). Every addition is backward compatible:
//! the server still accepts version-1 clients (which simply never send
//! identity messages), and a version-1 decoder reading this crate's
//! `Result`/`Bye` shapes sees the new fields as absent-with-default.

use gp_codec::{Decode, DecodeError, Encode, Value};
use gp_pointcloud::{Point, PointCloud, Vec3};
use gp_radar::Frame;
use gp_serve::IdentityOutcome;
use gp_telemetry::TelemetrySnapshot;

/// Application-protocol version, carried in [`ClientMsg::Hello`]
/// (independent of the byte-framing version).
pub const WIRE_VERSION: u32 = 2;

/// Oldest client protocol version the server still speaks. Version-1
/// peers predate the identity plane and never see its messages.
pub const MIN_WIRE_VERSION: u32 = 1;

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

fn frame_to_value(frame: &Frame) -> Value {
    // Compact row-per-point layout: [x, y, z, doppler, snr].
    let points: Vec<Value> = frame
        .cloud
        .iter()
        .map(|p| {
            Value::Seq(vec![
                p.position.x.encode(),
                p.position.y.encode(),
                p.position.z.encode(),
                p.doppler.encode(),
                p.snr.encode(),
            ])
        })
        .collect();
    Value::record([
        ("t", frame.timestamp.encode()),
        ("points", Value::Seq(points)),
    ])
}

fn frame_from_value(value: &Value) -> Result<Frame, DecodeError> {
    let timestamp: f64 = value.get("t")?;
    let rows = value.field("points")?.as_seq()?;
    let mut cloud = PointCloud::with_capacity(rows.len());
    for row in rows {
        let row = row.as_seq()?;
        if row.len() != 5 {
            return Err(DecodeError::new(format!(
                "expected a 5-element point row, found {} elements",
                row.len()
            )));
        }
        cloud.push(Point::new(
            Vec3::new(row[0].as_f64()?, row[1].as_f64()?, row[2].as_f64()?),
            row[3].as_f64()?,
            row[4].as_f64()?,
        ));
    }
    Ok(Frame::new(timestamp, cloud))
}

impl ClientMsg {
    /// The message's wire `"type"` tag, e.g. `"frame"`.
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

impl Encode for ClientMsg {
    fn encode(&self) -> Value {
        let fields = match self {
            ClientMsg::Hello { version } => vec![("version", version.encode())],
            ClientMsg::Frame(frame) => vec![("frame", frame_to_value(frame))],
            ClientMsg::Enroll { user } => vec![("user", user.encode())],
            ClientMsg::StatsQuery | ClientMsg::Identify | ClientMsg::Close => vec![],
        };
        tagged(self.kind(), fields)
    }
}

impl Decode for ClientMsg {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        let tag: String = value.get("type")?;
        match tag.as_str() {
            "hello" => Ok(ClientMsg::Hello {
                version: value.get("version")?,
            }),
            "frame" => Ok(ClientMsg::Frame(frame_from_value(value.field("frame")?)?)),
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

/// Encodes a message to its framed wire bytes.
///
/// # Panics
///
/// Panics if the encoded payload exceeds `max_frame` — sender-side
/// messages are built from bounded radar frames, so exceeding the cap
/// is a configuration bug, not a data condition. The server encodes its
/// replies through a fallible twin instead, because some echo client
/// bytes.
pub fn to_wire<T: Encode>(msg: &T, max_frame: usize) -> Vec<u8> {
    try_to_wire(msg, max_frame).expect("wire message exceeds frame cap")
}

/// Encodes a message to its framed wire bytes, or `None` if it cannot
/// be framed: its payload exceeds `max_frame`, or it holds a value JSON
/// cannot carry.
pub(crate) fn try_to_wire<T: Encode>(msg: &T, max_frame: usize) -> Option<Vec<u8>> {
    let json = gp_codec::to_json(&msg.encode()).ok()?;
    gp_codec::encode_frame(json.as_bytes(), max_frame).ok()
}

/// Decodes one deframed payload into a message.
///
/// # Errors
///
/// Returns a [`DecodeError`] for non-UTF-8 bytes, malformed JSON, or a
/// well-formed value of the wrong shape.
pub fn from_wire<T: Decode>(payload: &[u8]) -> Result<T, DecodeError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| DecodeError::new("wire payload is not UTF-8"))?;
    gp_codec::decode_from_json(text)
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
}
