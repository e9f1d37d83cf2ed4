//! Hostile bytes into every decoder a peer or a file reaches: the wire
//! messages (`from_wire` for `ClientMsg`, whose frames are binary, and
//! `ServerMsg`), gp-codec's JSON and binary value decoders, telemetry
//! snapshots, and model and system artifacts in both byte formats.
//!
//! Inputs are arbitrary bytes and mutations of valid encodings: bit
//! flips, truncations, inserted digits and inserted JSON tokens, one to
//! three edits per input. They come from an inline xorshift stream, so
//! every run sees the same cases. Each decoder must return `Ok` or a
//! typed error; a panic fails the test and names the case and its
//! seed. The byte framing (`FrameDecoder`) and the gallery decoder
//! have their own suites.

use gestureprint_core::{
    train_classifier, ArtifactFormat, GesturePrint, ModelKind, TrainConfig, TrainedModel,
};
use gp_codec::framing::FRAME_HEADER_LEN;
use gp_codec::{Encode, Value};
use gp_net::wire::{from_wire, to_wire};
use gp_net::{ClientMsg, IdentityOutcome, ServerMsg, TelemetrySnapshot, WireLedger};
use gp_pointcloud::{Point, Vec3};
use gp_radar::Frame;
use gp_telemetry::Registry;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A xorshift64 stream.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A draw from `0..n`; `n` must be above 0.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Tokens that change a JSON document's shape or stretch a number past
/// its type: structure, escapes, an overflowing exponent, a negative
/// zero, `u64::MAX + 1` and a byte that is never valid UTF-8.
const TOKENS: [&[u8]; 16] = [
    b"\"",
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"-",
    b".",
    b"e",
    b"\\",
    b"null",
    b"1e999",
    b"-0",
    b"18446744073709551616",
    b"\xff",
];

/// `valid` with one to three edits: a bit flip, a truncation, one to
/// three inserted digits, or an inserted [`TOKENS`] entry.
fn mutate(valid: &[u8], rng: &mut Xorshift) -> Vec<u8> {
    let mut out = valid.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(out.len() + 1);
        match rng.below(4) {
            0 if at < out.len() => out[at] ^= 1 << rng.below(8),
            1 => out.truncate(at),
            2 => {
                let digits: Vec<u8> = (0..1 + rng.below(3))
                    .map(|_| b'0' + rng.below(10) as u8)
                    .collect();
                out.splice(at..at, digits);
            }
            _ => {
                let token = TOKENS[rng.below(TOKENS.len())];
                out.splice(at..at, token.iter().copied());
            }
        }
    }
    out
}

/// Feeds `cases` inputs to `decode`, which reports whether the input
/// decoded: every fourth input is up to 256 arbitrary bytes, the rest
/// mutate one of `valid`. Every `valid` encoding must decode, and no
/// input may panic.
fn fuzz(name: &str, seed: u64, cases: usize, valid: &[Vec<u8>], decode: impl Fn(&[u8]) -> bool) {
    for (i, bytes) in valid.iter().enumerate() {
        assert!(decode(bytes), "{name}: valid encoding {i} does not decode");
    }
    let mut rng = Xorshift::new(seed);
    for case in 0..cases {
        let input = if case % 4 == 0 {
            let len = rng.below(257);
            rng.bytes(len)
        } else {
            mutate(&valid[rng.below(valid.len())], &mut rng)
        };
        if catch_unwind(AssertUnwindSafe(|| decode(&input))).is_err() {
            let shown = String::from_utf8_lossy(&input[..input.len().min(300)]);
            panic!(
                "{name}: case {case} of seed {seed} panicked on {} bytes: {shown:?}",
                input.len()
            );
        }
    }
}

/// Text decoders see bytes as UTF-8, with invalid sequences replaced.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn json(value: &Value) -> Vec<u8> {
    gp_codec::to_json(value)
        .expect("finite, shallow value")
        .into_bytes()
}

fn frame() -> Frame {
    Frame::new(
        12.5,
        [
            Point::new(Vec3::new(0.125, 1.5, -0.25), 0.75, 14.0),
            Point::new(Vec3::new(-1e-9, 2.0, 1.0), -1.25, 3.5),
        ]
        .into_iter()
        .collect(),
    )
}

fn snapshot() -> TelemetrySnapshot {
    let registry = Registry::new();
    registry.counter("net.decoded_frames").add(3000);
    registry.gauge("serve.sessions").set(-2);
    let hist = registry.histogram("serve.stage.inference");
    for us in [1, 90, 1_280, 65_000, u32::MAX as u64] {
        hist.record(us);
    }
    registry.set_attr("workload", Value::Str("point_socket".into()));
    registry.snapshot()
}

fn client_msgs() -> Vec<ClientMsg> {
    [
        ClientMsg::Hello { version: 2 },
        ClientMsg::Frame(frame()),
        ClientMsg::StatsQuery,
        ClientMsg::Enroll {
            user: "ada \"lovelace\" é".into(),
        },
        ClientMsg::Identify,
        ClientMsg::Close,
    ]
    .into()
}

/// A client message's payload: a frame in its binary layout, the rest
/// JSON.
fn payload(msg: &ClientMsg) -> Vec<u8> {
    to_wire(msg, 1 << 20)[FRAME_HEADER_LEN..].to_vec()
}

/// [`frame`] in the JSON shape frames had up to wire v2, so the
/// gp-codec corpus keeps a frame-shaped value.
fn frame_value() -> Value {
    let frame = frame();
    let rows = frame
        .cloud
        .iter()
        .map(|p| {
            Value::Seq(
                [p.position.x, p.position.y, p.position.z, p.doppler, p.snr]
                    .iter()
                    .map(Encode::encode)
                    .collect(),
            )
        })
        .collect();
    Value::record([
        ("type", Value::Str("frame".into())),
        (
            "frame",
            Value::record([
                ("t", frame.timestamp.encode()),
                ("points", Value::Seq(rows)),
            ]),
        ),
    ])
}

fn server_msgs() -> Vec<Vec<u8>> {
    let result = |identity| ServerMsg::Result {
        seq: 7,
        start: 120,
        end: 146,
        gesture: 12,
        user: 2,
        latency_us: 1_830,
        identity,
    };
    [
        ServerMsg::Welcome { session: 41 },
        result(None),
        result(Some(IdentityOutcome::Enrolled {
            user: "u1".into(),
            samples: 3,
        })),
        result(Some(IdentityOutcome::Identified {
            user: "u2".into(),
            distance: 0.4375,
        })),
        result(Some(IdentityOutcome::Unknown {
            distance: Some(2.5),
        })),
        result(Some(IdentityOutcome::Unknown { distance: None })),
        ServerMsg::EnrollAck { user: "u1".into() },
        ServerMsg::Stats(snapshot()),
        ServerMsg::Bye(WireLedger {
            admitted: 3000,
            shed_budget: 4,
            shed_capacity: 1,
            deferred: 9,
            segments: 40,
            results: 39,
            dropped_results: 1,
            enrolled: 2,
        }),
        ServerMsg::Error {
            message: "bad frame".into(),
        },
    ]
    .iter()
    .map(|m| json(&m.encode()))
    .collect()
}

#[test]
fn wire_messages_never_panic() {
    let client: Vec<Vec<u8>> = client_msgs().iter().map(payload).collect();
    fuzz("ClientMsg", 0xC11E, 100_000, &client, |b| {
        from_wire::<ClientMsg>(b).is_ok()
    });
    fuzz("ServerMsg", 0x5E4E, 100_000, &server_msgs(), |b| {
        from_wire::<ServerMsg>(b).is_ok()
    });
}

#[test]
fn codec_values_never_panic() {
    let json_client: Vec<Vec<u8>> = client_msgs()
        .iter()
        .filter(|m| !matches!(m, ClientMsg::Frame(_)))
        .map(payload)
        .collect();
    let values: Vec<Value> = json_client
        .iter()
        .chain(&server_msgs())
        .map(|b| gp_codec::from_json(&text(b)).expect("valid JSON"))
        .chain([frame_value()])
        .chain([Value::Seq(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Bytes(vec![0, 0xFF, 0x80]),
        ])])
        .collect();
    let as_json: Vec<Vec<u8>> = values.iter().map(json).collect();
    fuzz("from_json", 0x7E47, 100_000, &as_json, |b| {
        gp_codec::from_json(&text(b)).is_ok()
    });
    let as_binary: Vec<Vec<u8>> = values
        .iter()
        .map(|v| gp_codec::to_binary(v).expect("shallow value"))
        .collect();
    fuzz("from_binary", 0xB1B1, 100_000, &as_binary, |b| {
        gp_codec::from_binary(b).is_ok()
    });
}

#[test]
fn telemetry_snapshots_never_panic() {
    let valid = [snapshot().to_json().into_bytes()];
    fuzz("TelemetrySnapshot", 0x7E1E, 50_000, &valid, |b| {
        TelemetrySnapshot::from_json(&text(b)).is_ok()
    });
}

/// One trained model of every architecture, on the toy cohorts, in
/// both byte formats.
fn model_artifacts() -> Vec<Vec<u8>> {
    let points = gp_testkit::toy_labeled_samples(1);
    let point_pairs: Vec<_> = points.iter().map(|s| (s, s.user)).collect();
    let rd = gp_testkit::toy_rd_samples(1);
    let rd_pairs: Vec<_> = rd.iter().map(|s| (s, s.user)).collect();
    let mut out = Vec::new();
    for kind in ModelKind::ALL {
        let model = if kind.is_rd() {
            let config = TrainConfig {
                epochs: 1,
                ..gp_testkit::quick_rd_train()
            };
            train_classifier(&rd_pairs, 2, &config, None)
        } else {
            let config = TrainConfig {
                model: kind,
                epochs: 1,
                augment: None,
                ..TrainConfig::default()
            };
            train_classifier(&point_pairs, 2, &config, None)
        };
        for format in [ArtifactFormat::Json, ArtifactFormat::Binary] {
            out.push(model.save_artifact_with(format));
        }
    }
    out
}

#[test]
fn model_artifacts_never_panic() {
    fuzz("TrainedModel", 0xA271, 3_000, &model_artifacts(), |b| {
        TrainedModel::load_artifact(b).is_ok()
    });
}

#[test]
fn system_artifacts_never_panic() {
    let mut valid = Vec::new();
    for system in [gp_testkit::toy_system(), gp_testkit::toy_rd_system()] {
        for format in [ArtifactFormat::Json, ArtifactFormat::Binary] {
            valid.push(system.save_artifact_with(format));
        }
    }
    fuzz("GesturePrint", 0x5757, 800, &valid, |b| {
        GesturePrint::load_artifact(b).is_ok()
    });
}
