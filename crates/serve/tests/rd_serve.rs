//! End-to-end range-Doppler serving: the acceptance path for the
//! backend-agnostic engine.
//!
//! * `rd_sessions_classify_held_out_captures_above_chance` trains the
//!   conv/LSTM RD model on *synthesized* range-Doppler frames (the
//!   same kinematic ground truth as the point-cloud simulator), streams
//!   held-out captures through `ServeEngine` sessions opened in RD
//!   mode, and checks both tasks beat chance.
//! * `rd_serving_matches_offline_rd_pipeline` pins RD serving to the
//!   offline RD pipeline: the same segment boundaries, and per segment
//!   the RD system's single-sample inference, bit for bit.

use gestureprint_core::{
    GesturePrint, GesturePrintConfig, IdentificationMode, Inference, ModelKind, TrainConfig,
};
use gp_pointcloud::{Point, PointCloud, Vec3};
use gp_radar::Frame;
use gp_rd::{RdFrame, RdLabeledSample};
use gp_serve::{SensingBackend, ServeConfig, ServeEngine, ServeEvent, SessionId};
use gp_testkit::{rd_capture, rd_sample, toy_rd_system, toy_system};

/// The two ASL gestures of the serving cohort, remapped to classes
/// 0/1. 'Push' (12) is strongly radial; 'wave' (3) sweeps laterally —
/// distinct Doppler signatures.
const GESTURES: [usize; 2] = [12, 3];
const USERS: usize = 2;
const TRAIN_REPS: u64 = 4;

/// Trains an RD system on synthesized captures (dominant-segmented,
/// labels remapped to the cohort's class ids).
fn trained_rd_system() -> GesturePrint {
    let mut samples: Vec<RdLabeledSample> = Vec::new();
    for (class, &gesture) in GESTURES.iter().enumerate() {
        for user in 0..USERS {
            for rep in 0..TRAIN_REPS {
                let mut sample = rd_sample(user, gesture, rep);
                sample.gesture = class;
                samples.push(sample);
            }
        }
    }
    let refs: Vec<&RdLabeledSample> = samples.iter().collect();
    GesturePrint::train_rd(
        &refs,
        GESTURES.len(),
        USERS,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig {
                model: ModelKind::RdNet,
                epochs: 12,
                learning_rate: 5e-3,
                augment: None,
                ..TrainConfig::default()
            },
            threads: 2,
        },
    )
}

/// Streams one capture through its own RD session and returns the
/// session's events (the longest segment is the gesture).
fn serve_capture(engine: &ServeEngine, frames: &[RdFrame]) -> Vec<ServeEvent> {
    let session = engine.open_rd_session();
    for frame in frames {
        engine.push_rd_frame(session, frame.clone());
    }
    engine.close_session(session);
    let events: Vec<ServeEvent> = engine
        .drain()
        .into_iter()
        .filter(|e| e.session == session)
        .collect();
    assert!(events
        .iter()
        .all(|e| e.backend == SensingBackend::RangeDoppler));
    events
}

#[test]
fn rd_sessions_classify_held_out_captures_above_chance() {
    let engine =
        ServeEngine::new(toy_system(), ServeConfig::default()).with_rd_system(trained_rd_system());
    let mut total = 0usize;
    let mut gesture_correct = 0usize;
    let mut user_correct = 0usize;
    for (class, &gesture) in GESTURES.iter().enumerate() {
        for user in 0..USERS {
            for rep in [20u64, 21] {
                let (_, frames) = rd_capture(user, gesture, rep);
                let events = serve_capture(&engine, &frames);
                let event = events
                    .iter()
                    .max_by_key(|e| e.segment.len())
                    .expect("held-out capture must segment and publish");
                assert_eq!(event.backend, SensingBackend::RangeDoppler);
                total += 1;
                gesture_correct += usize::from(event.inference.gesture == class);
                user_correct += usize::from(event.inference.user == user);
            }
        }
    }
    assert_eq!(total, 8);
    // Chance is 1/2 on both tasks (2 gestures, 2 users).
    assert!(
        gesture_correct > total / 2,
        "gesture accuracy at or below chance: {gesture_correct}/{total}"
    );
    assert!(
        user_correct > total / 2,
        "user accuracy at or below chance: {user_correct}/{total}"
    );

    // The engine's RD telemetry saw every frame and every result.
    let registry = engine.registry();
    assert!(registry.counter("serve.rd.frames").get() > 0);
    assert_eq!(
        registry.counter("serve.rd.results").get(),
        registry.counter("serve.rd.segments").get()
    );
}

#[test]
fn rd_predictions_deterministic_across_worker_counts() {
    let (_, frames) = rd_capture(0, GESTURES[0], 33);
    let replay = |workers: usize, max_batch: usize| -> Vec<ServeEvent> {
        let engine = ServeEngine::new(
            toy_system(),
            ServeConfig {
                workers,
                max_batch,
                ..ServeConfig::default()
            },
        )
        .with_rd_system(toy_rd_system());
        serve_capture(&engine, &frames)
    };
    let single = replay(1, 1);
    assert!(!single.is_empty(), "capture should publish RD results");
    for (workers, max_batch) in [(4, 1), (1, 8), (4, 3)] {
        let multi = replay(workers, max_batch);
        assert_eq!(single.len(), multi.len());
        for (a, b) in single.iter().zip(&multi) {
            assert_eq!(a.segment, b.segment);
            assert_eq!(a.backend, b.backend);
            assert_eq!(
                a.inference, b.inference,
                "RD prediction differs with {workers} workers / batch {max_batch}"
            );
        }
    }
}

#[test]
fn rd_serving_matches_offline_rd_pipeline() {
    // Four captures stream interleaved through their own RD sessions,
    // so segments of different sessions share micro-batches. Each
    // session must publish exactly the offline segmenter's segments,
    // and each result must be the RD system's single-sample inference
    // on the same window. This pins parity, not segmentation quality.
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 2,
            max_batch: 3,
            ..ServeConfig::default()
        },
    )
    .with_rd_system(toy_rd_system());
    let captures: Vec<Vec<RdFrame>> = [(0, 0, 30), (0, 1, 31), (1, 0, 32), (1, 1, 33)]
        .into_iter()
        .map(|(user, class, rep)| rd_capture(user, GESTURES[class], rep).1)
        .collect();
    let sessions: Vec<SessionId> = captures.iter().map(|_| engine.open_rd_session()).collect();
    let longest = captures.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (&session, frames) in sessions.iter().zip(&captures) {
            if let Some(frame) = frames.get(i) {
                engine.push_rd_frame(session, frame.clone());
            }
        }
    }
    for &session in &sessions {
        engine.close_session(session);
    }
    let events = engine.drain();
    let rd_system = engine.rd_system().expect("RD system attached");
    let rd_segmenter = ServeConfig::default().rd_segmenter;
    for (&session, frames) in sessions.iter().zip(&captures) {
        let offline = gp_rd::segment(frames, &rd_segmenter);
        assert!(!offline.is_empty(), "{session}: capture must segment");
        let served: Vec<&ServeEvent> = events.iter().filter(|e| e.session == session).collect();
        assert_eq!(served.len(), offline.len(), "{session}: segment count");
        for (event, s) in served.into_iter().zip(&offline) {
            assert_eq!(event.backend, SensingBackend::RangeDoppler);
            assert_eq!((event.segment.start, event.segment.end), (s.start, s.end));
            let sample = RdLabeledSample::from_segment(frames, s.start, s.end, 0, 0);
            // Events publish without the embedding identity resolution
            // consumed.
            let offline = Inference {
                embedding: None,
                ..rd_system.infer_rd(&sample)
            };
            assert_eq!(
                event.inference, offline,
                "{session}: segment [{}, {})",
                s.start, s.end
            );
        }
    }
}

/// A point frame with `points` detections (the serve session tests'
/// burst pattern).
fn point_frame(i: usize, points: usize) -> Frame {
    let cloud: PointCloud = (0..points)
        .map(|k| Point::new(Vec3::new(k as f64 * 0.05, 1.2, 1.0), 0.4, 15.0))
        .collect();
    Frame::new(i as f64 * 0.1, cloud)
}

/// An RD frame shaped like the toy RD cohort's gesture-1/user-1 cell,
/// active only inside the burst.
fn burst_rd_frame(i: usize, active: bool) -> RdFrame {
    let mut f = RdFrame::zeros(16, 64, i as f64 * 0.1);
    if active {
        f.power[12 * f.range_bins + 36 + i % 4] = 45.0;
        f.power[13 * f.range_bins + 36 + i % 4] = 25.0;
    }
    f
}

#[test]
fn mixed_point_and_rd_sessions_share_the_executor() {
    // One engine, one drain: a point session and an RD session land in
    // the same micro-batch queue and both publish, each through its own
    // backend.
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 2,
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .with_rd_system(toy_rd_system());
    let point_session = engine.open_session();
    let rd_session = engine.open_rd_session();
    for i in 0..70 {
        let burst = (20..45).contains(&i);
        engine.push_frame(point_session, point_frame(i, if burst { 14 } else { 1 }));
        engine.push_rd_frame(rd_session, burst_rd_frame(i, burst));
    }
    engine.close_session(point_session);
    engine.close_session(rd_session);
    let events = engine.drain();
    assert_eq!(events.len(), 2);
    let by_session = |s| {
        events
            .iter()
            .find(|e| e.session == s)
            .expect("each session publishes")
    };
    assert_eq!(
        by_session(point_session).backend,
        SensingBackend::PointCloud
    );
    assert_eq!(by_session(rd_session).backend, SensingBackend::RangeDoppler);
}

#[test]
#[should_panic(expected = "without an RD system")]
fn rd_session_requires_an_rd_system() {
    let engine = ServeEngine::new(toy_system(), ServeConfig::default());
    engine.open_rd_session();
}

#[test]
#[should_panic(expected = "range-Doppler frame pushed into a point-cloud session")]
fn rd_frames_into_point_session_panic() {
    let engine =
        ServeEngine::new(toy_system(), ServeConfig::default()).with_rd_system(toy_rd_system());
    let session = engine.open_session();
    engine.push_rd_frame(session, RdFrame::zeros(16, 64, 0.0));
}

#[test]
fn serve_config_encoding_is_stable_without_rd_fields() {
    use gp_codec::{Decode, Encode};
    // Pre-RD configs re-encode without the additive fields (golden
    // byte-stability), and configs carrying them roundtrip.
    let default = ServeConfig::default();
    let encoded = gp_codec::to_json(&default.encode()).expect("json");
    assert!(
        !encoded.contains("rd_segmenter"),
        "additive field leaked: {encoded}"
    );
    let custom = ServeConfig {
        rd_segmenter: gp_serve::RdSegmentConfig {
            min_frames: 6,
            ..gp_serve::RdSegmentConfig::default()
        },
        ..ServeConfig::default()
    };
    let decoded = ServeConfig::decode(&custom.encode()).expect("roundtrip");
    assert_eq!(decoded, custom);
    let redecoded = ServeConfig::decode(&default.encode()).expect("default roundtrip");
    assert_eq!(redecoded, default);
    // Configs written while the engine had a hybrid sparse-cloud
    // fallback carry its point threshold; they still decode, the field
    // ignored.
    let mut legacy = custom.encode();
    let gp_codec::Value::Map(fields) = &mut legacy else {
        panic!("ServeConfig encodes as a record");
    };
    fields.insert("rd_fallback_min_points".into(), 7usize.encode());
    let decoded = ServeConfig::decode(&legacy).expect("legacy config decodes");
    assert_eq!(decoded, custom);
}
