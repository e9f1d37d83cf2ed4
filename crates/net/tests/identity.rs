//! End-to-end identity over the socket front: enrollment builds the
//! gallery from live streams, calibration bounds the false-accept rate,
//! and open-set identification accepts enrolled users while rejecting a
//! stranger — all through real TCP connections.
//!
//! The fixture system is the toy 2-class cohort, whose embeddings on
//! radar captures are arbitrary-but-deterministic — so each template is
//! built from one recording and genuine attempts replay that exact
//! recording (frames cross the wire bit-exactly, so the serve-side
//! embedding reproduces bit-for-bit). Impostor recordings land at
//! strictly positive gallery distance, which is what calibration
//! separates. Statistical gallery quality is covered by gp-store's own
//! calibration tests on controlled embeddings.

use gp_datasets::{presets, Scale};
use gp_net::{IdentityOutcome, NetClient, NetConfig, NetListener, NetServer};
use gp_radar::{Environment, Frame};
use gp_serve::{IdentityStore, RegistryConfig, ServeConfig, ServeEngine, SessionMode};
use gp_testkit::{stream_capture, toy_system, GestureStream};
use std::sync::Arc;

const MAX_FRAME: usize = 1 << 20;
const TARGET_FAR: f64 = 0.05;

/// A continuous single-gesture recording by cohort user `user`. One
/// gesture per stream keeps every embedding in one identifier's fusion
/// space (serialized mode taps a per-gesture identifier).
fn user_stream(user: usize, seed: u64) -> GestureStream {
    stream_capture(
        &presets::gestureprint(Environment::Office, Scale::Small),
        user,
        &[12],
        seed,
    )
}

/// Runs each stream through the *serve* pipeline (in process) into a
/// scratch gallery, returning one embedding per stream — the exact
/// vectors the socket server computes for those frames.
fn serve_embeddings(dir: &std::path::Path, streams: &[&GestureStream]) -> Vec<Vec<f32>> {
    let scratch =
        Arc::new(IdentityStore::open(dir, RegistryConfig::default()).expect("open scratch store"));
    let engine = ServeEngine::with_store(toy_system(), ServeConfig::default(), scratch.clone());
    for (k, stream) in streams.iter().enumerate() {
        let session = engine.open_session();
        assert!(engine.set_session_mode(session, SessionMode::Enroll(format!("probe-{k}"))));
        for frame in &stream.frames {
            engine.push_frame(session, frame.clone());
        }
        engine.close_session(session);
    }
    engine.drain();
    let gallery = scratch.gallery_snapshot();
    (0..streams.len())
        .map(|k| {
            let entry = gallery
                .entry(&format!("probe-{k}"))
                .expect("every probe stream must enroll at least one segment");
            assert_eq!(entry.count(), 1, "single-gesture stream yields one segment");
            entry.centroid()
        })
        .collect()
}

/// Closed-set predictions for a stream: `(start, end, gesture)` per
/// result of a plain in-process replay, in seq order.
fn closed_set_replay(stream: &GestureStream) -> Vec<(u64, u64, u64)> {
    let engine = ServeEngine::new(toy_system(), ServeConfig::default());
    let session = engine.open_session();
    for frame in &stream.frames {
        engine.push_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine
        .drain()
        .into_iter()
        .map(|e| {
            (
                e.segment.start as u64,
                e.segment.end as u64,
                e.inference.gesture as u64,
            )
        })
        .collect()
}

#[test]
fn enroll_calibrate_identify_over_the_socket() {
    let dir = std::env::temp_dir().join(format!("gp-net-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("scratch")).expect("store dirs");

    let store = Arc::new(
        IdentityStore::open(dir.join("store"), RegistryConfig::default())
            .expect("open identity store"),
    );
    let engine = Arc::new(ServeEngine::with_store(
        toy_system(),
        ServeConfig::default(),
        store.clone(),
    ));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let server =
        NetServer::spawn(engine.clone(), listener, NetConfig::default()).expect("spawn server");
    let addr = server.local_addr().expect("tcp address");

    // Phase 1 — enrollment: two users stream a gesture each under
    // enrollment mode; every completed segment joins their template,
    // and the session ledger accounts each enrollment.
    let enrolled = [("alice", 0usize, 21u64), ("bob", 1, 22)];
    let mut streams: Vec<(&str, GestureStream)> = Vec::new();
    for &(label, user, seed) in &enrolled {
        let stream = user_stream(user, seed);
        let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
        client.enroll(label).expect("enroll ack");
        for frame in &stream.frames {
            client.send_frame(frame).expect("send frame");
        }
        let report = client.close().expect("graceful close");
        assert!(!report.results.is_empty(), "{label}'s stream must segment");
        for r in &report.results {
            match &r.identity {
                Some(IdentityOutcome::Enrolled { user, .. }) => assert_eq!(user, label),
                other => panic!("expected an enrollment verdict, got {other:?}"),
            }
        }
        assert_eq!(report.ledger.enrolled, report.results.len() as u64);
        streams.push((label, stream));
    }
    assert_eq!(store.users(), 2, "both users live in the gallery");

    // Phase 2 — calibration: genuine probes are the enrolled users' own
    // recordings, impostor probes two recordings by a never-enrolled
    // third user; together they set the acceptance threshold at a
    // target false-accept rate.
    let mallory = [user_stream(2, 23), user_stream(2, 29)];
    let probe_streams: Vec<&GestureStream> = streams
        .iter()
        .map(|(_, s)| s)
        .chain(mallory.iter())
        .collect();
    let embeddings = serve_embeddings(&dir.join("scratch"), &probe_streams);
    let probes: Vec<(String, Vec<f32>)> = embeddings
        .iter()
        .enumerate()
        .map(|(k, e)| {
            let label = if k < streams.len() {
                streams[k].0
            } else {
                "mallory"
            };
            (label.to_string(), e.clone())
        })
        .collect();
    let summary = store.calibrate("socket-e2e", &probes, TARGET_FAR);
    assert!(
        store.threshold().is_finite(),
        "calibration must find a usable threshold (eer {})",
        summary.eer
    );

    // The FAR bound holds on re-measurement: at most TARGET_FAR of the
    // stranger's attempts are accepted by the calibrated gallery.
    let impostor_probes = &embeddings[streams.len()..];
    let accepted_impostors = impostor_probes
        .iter()
        .filter(|e| store.identify(e).accepted())
        .count();
    assert!(
        (accepted_impostors as f64) <= TARGET_FAR * impostor_probes.len() as f64,
        "{accepted_impostors}/{} impostor probes accepted, target FAR {TARGET_FAR}",
        impostor_probes.len()
    );

    // Phase 3 — open-set identification over the socket. Replaying an
    // enrolled user's recording in identify mode yields exactly the
    // closed-set segments and gestures, each carrying an accepted
    // identity within the calibrated threshold.
    for (label, stream) in &streams {
        let expected = closed_set_replay(stream);
        let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
        client.identify_mode().expect("switch to identify");
        for frame in &stream.frames {
            client.send_frame(frame).expect("send frame");
        }
        let report = client.close().expect("graceful close");
        let mut results = report.results.clone();
        results.sort_by_key(|r| r.seq);
        let got: Vec<(u64, u64, u64)> = results
            .iter()
            .map(|r| (r.start, r.end, r.gesture))
            .collect();
        assert_eq!(got, expected, "identify mode must not perturb recognition");
        for r in &results {
            match &r.identity {
                Some(IdentityOutcome::Identified { user, distance }) => {
                    assert_eq!(user, label);
                    assert!(*distance <= store.threshold());
                }
                other => panic!("{label} must be identified, got {other:?}"),
            }
        }
    }

    // A stranger streaming the same gesture is rejected, not
    // misattributed: open-set identification says "nobody I know".
    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
    client.identify_mode().expect("switch to identify");
    for frame in &mallory[1].frames {
        client.send_frame(frame).expect("send frame");
    }
    let report = client.close().expect("graceful close");
    assert!(!report.results.is_empty(), "stranger's stream must segment");
    for r in &report.results {
        match &r.identity {
            Some(IdentityOutcome::Unknown { distance }) => {
                let d = distance.expect("a populated gallery reports the nearest distance");
                assert!(d > store.threshold());
            }
            other => panic!("a stranger must be rejected, got {other:?}"),
        }
    }
    assert_eq!(report.ledger.enrolled, 0, "identification never enrolls");

    server.shutdown();
    assert_eq!(engine.session_count(), 0, "no session leaked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enroll_without_a_store_is_a_typed_protocol_error() {
    // A plain classification server (no identity store) must refuse the
    // identity plane with a fatal Error, not ignore it.
    let engine = Arc::new(ServeEngine::new(toy_system(), ServeConfig::default()));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let server = NetServer::spawn(engine, listener, NetConfig::default()).expect("spawn server");
    let addr = server.local_addr().expect("tcp address");

    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
    let err = client
        .enroll("alice")
        .expect_err("no store: enroll must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("identity store"),
        "error names the missing capability: {err}"
    );
    server.shutdown();
}

/// Alice's recording cut mid-gesture: its first 27 frames end 8 frames
/// after the segmenter opened the gesture, so only the stream's close
/// completes it. Kept whole, the same recording's idle tail lets the
/// segmenter close the gesture itself.
fn cut_mid_gesture() -> Vec<Frame> {
    user_stream(0, 7).frames[..27].to_vec()
}

/// An engine over an empty identity store in a fresh directory named
/// after the calling test.
fn engine_with_store(test: &str) -> (Arc<ServeEngine>, Arc<IdentityStore>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("gp-net-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        IdentityStore::open(&dir, RegistryConfig::default()).expect("open identity store"),
    );
    let engine = Arc::new(ServeEngine::with_store(
        toy_system(),
        ServeConfig::default(),
        store.clone(),
    ));
    (engine, store, dir)
}

/// Streams the cut recording in process under `mode`, closes the
/// session, and returns the one event the close flushed.
fn close_flushed_event(engine: &ServeEngine, mode: SessionMode) -> gp_serve::ServeEvent {
    let session = engine.open_session();
    assert!(engine.set_session_mode(session, mode));
    for frame in cut_mid_gesture() {
        assert_eq!(engine.push_frame(session, frame), 0, "gesture still open");
    }
    assert_eq!(engine.close_session(session), 1, "the close flushes it");
    let mut events = engine.drain();
    assert_eq!(events.len(), 1);
    events.pop().expect("one event")
}

#[test]
fn close_flushed_gesture_enrolls_in_process() {
    let (engine, store, dir) = engine_with_store("flush-enroll");
    let event = close_flushed_event(&engine, SessionMode::Enroll("alice".into()));
    assert_eq!(
        event.identity,
        Some(IdentityOutcome::Enrolled {
            user: "alice".into(),
            samples: 1
        })
    );
    assert_eq!(store.users(), 1, "the flushed gesture joins the gallery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_flushed_gesture_is_identified_in_process() {
    let (engine, _store, dir) = engine_with_store("flush-identify");
    let event = close_flushed_event(&engine, SessionMode::Identify);
    assert_eq!(
        event.identity,
        Some(IdentityOutcome::Unknown { distance: None }),
        "an empty gallery knows nobody"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_flushed_gesture_enrolls_over_the_socket() {
    let (engine, store, dir) = engine_with_store("flush-socket");
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let server = NetServer::spawn(engine, listener, NetConfig::default()).expect("spawn server");
    let addr = server.local_addr().expect("tcp address");

    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
    client.enroll("alice").expect("enroll ack");
    for frame in &cut_mid_gesture() {
        client.send_frame(frame).expect("send frame");
    }
    let report = client.close().expect("graceful close");
    assert_eq!(report.results.len(), 1, "the close flushes the gesture");
    assert_eq!(
        report.results[0].identity,
        Some(IdentityOutcome::Enrolled {
            user: "alice".into(),
            samples: 1
        })
    );
    assert_eq!(report.ledger.enrolled, 1);
    assert_eq!(store.users(), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
