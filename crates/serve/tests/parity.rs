//! Online-vs-offline parity and worker-count determinism.
//!
//! The serving path must be a faithful streaming port of the offline
//! pipeline: replaying a captured recording frame-by-frame through
//! `gp-serve` yields the same segment boundaries (and the same dropped
//! segments) as `gp_pipeline::Preprocessor` over the whole recording,
//! and predictions are identical across 1 and N executor workers.

use gp_pipeline::{OnlineSegmenter, Preprocessor, PreprocessorConfig, Segmenter};
use gp_serve::{ServeConfig, ServeEngine, ServeEvent};
use gp_testkit::{stream_fixture, toy_system};

/// Replays the canonical stream through an engine with the given worker
/// and batch configuration; one session, events sorted by `drain`.
fn replay(workers: usize, max_batch: usize) -> Vec<ServeEvent> {
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers,
            max_batch,
            ..ServeConfig::default()
        },
    );
    let stream = stream_fixture();
    let session = engine.open_session();
    for frame in &stream.frames {
        engine.push_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine.drain()
}

#[test]
fn online_segmenter_matches_offline_on_captured_stream() {
    let stream = stream_fixture();
    let offline = Segmenter::default().segment(&stream.frames);
    let mut online = OnlineSegmenter::default();
    let mut streamed: Vec<_> = stream
        .frames
        .iter()
        .filter_map(|f| online.push_frame(f))
        .collect();
    streamed.extend(online.finish());
    assert_eq!(offline, streamed);
    assert!(
        offline.len() >= 2,
        "canonical stream should contain several gestures: {offline:?}"
    );
}

#[test]
fn engine_replay_matches_offline_preprocessor() {
    let stream = stream_fixture();
    // Offline: the whole recording at once, keeping every segment that
    // survives noise canceling.
    let offline = Preprocessor::new(PreprocessorConfig::default()).process(&stream.frames);
    let offline_bounds: Vec<(usize, usize)> = offline
        .iter()
        .map(|s| (s.start_frame, s.start_frame + s.duration_frames))
        .collect();

    // Streaming: frame-by-frame through the engine.
    let events = replay(2, 4);
    let streamed_bounds: Vec<(usize, usize)> = events
        .iter()
        .map(|e| (e.segment.start, e.segment.end))
        .collect();

    assert_eq!(offline_bounds, streamed_bounds);
    // The assembled clouds must match too, not just the boundaries.
    for (sample, event) in offline.iter().zip(&events) {
        assert_eq!(sample.duration_frames, event.segment.len());
    }
}

#[test]
fn predictions_deterministic_across_worker_counts() {
    let single = replay(1, 1);
    for (workers, max_batch) in [(4, 1), (1, 8), (4, 3)] {
        let multi = replay(workers, max_batch);
        assert_eq!(single.len(), multi.len());
        for (a, b) in single.iter().zip(&multi) {
            assert_eq!(a.session, b.session);
            assert_eq!(a.segment, b.segment);
            assert_eq!(
                a.inference, b.inference,
                "prediction differs at segment {:?} with {workers} workers / batch {max_batch}",
                a.segment
            );
        }
    }
}

#[test]
fn concurrent_sessions_are_isolated() {
    // The same stream replayed through 4 concurrent sessions must give
    // every session the single-session result, regardless of how the
    // executor batches segments across sessions.
    let baseline = replay(1, 1);
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 4,
            max_batch: 3,
            ..ServeConfig::default()
        },
    );
    let stream = stream_fixture();
    let sessions: Vec<_> = (0..4).map(|_| engine.open_session()).collect();
    // Concurrent drivers, one thread per session.
    gp_runtime::scope_map(sessions.len(), sessions.clone(), |_, session| {
        for frame in &stream.frames {
            engine.push_frame(session, frame.clone());
        }
        engine.close_session(session);
    });
    let events = engine.drain();
    assert_eq!(events.len(), baseline.len() * sessions.len());
    for &session in &sessions {
        let ours: Vec<&ServeEvent> = events.iter().filter(|e| e.session == session).collect();
        assert_eq!(ours.len(), baseline.len());
        for (a, b) in ours.iter().zip(&baseline) {
            assert_eq!(a.segment, b.segment);
            assert_eq!(a.inference, b.inference);
        }
    }

    let stats = engine.stats();
    assert_eq!(
        stats.total_frames(),
        (stream.frames.len() * sessions.len()) as u64
    );
    assert_eq!(stats.total_results(), events.len() as u64);
    assert!(stats.latency_percentile(50.0).is_some());
    assert!(stats.latency_percentile(99.0) >= stats.latency_percentile(50.0));
}

#[test]
fn idle_session_buffer_stays_bounded() {
    let engine = ServeEngine::new(toy_system(), ServeConfig::default());
    let session = engine.open_session();
    let idle = gp_radar::Frame::new(0.0, gp_pointcloud::PointCloud::new());
    for _ in 0..2_000 {
        engine.push_frame(session, idle.clone());
    }
    // The bound itself is pinned on the session
    // (`session::tests::idle_stream_keeps_buffer_bounded`); here every
    // idle frame is admitted and none closes a segment.
    let stats = engine.session_stats(session).unwrap();
    assert_eq!(stats.frames, 2_000);
    assert_eq!(stats.segments, 0);
    engine.close_session(session);
    assert_eq!(engine.session_count(), 0);
    assert!(engine.drain().is_empty());
}

#[test]
fn closed_session_stats_evict_into_aggregate_with_exact_totals() {
    // Keep only 2 closed sessions' individual stats; replay 6 sessions
    // sequentially and check totals survive eviction bit-for-bit.
    let evicting = ServeEngine::new(
        toy_system(),
        ServeConfig {
            retain_closed_sessions: 2,
            ..ServeConfig::default()
        },
    );
    let reference = ServeEngine::new(toy_system(), ServeConfig::default());
    let stream = stream_fixture();
    for _ in 0..6 {
        for engine in [&evicting, &reference] {
            let session = engine.open_session();
            for frame in &stream.frames {
                engine.push_frame(session, frame.clone());
            }
            engine.close_session(session);
            engine.drain();
        }
    }
    let stats = evicting.stats();
    let baseline = reference.stats();
    assert_eq!(stats.sessions.len(), 2, "older closed sessions evicted");
    assert_eq!(stats.evicted_sessions, 4);
    assert_eq!(baseline.evicted_sessions, 0, "default cap keeps all 6");
    assert_eq!(stats.total_frames(), baseline.total_frames());
    assert_eq!(stats.total_segments(), baseline.total_segments());
    assert_eq!(stats.total_results(), baseline.total_results());
    assert!(stats.latency_percentile(99.0).is_some());
}

#[test]
fn pending_high_watermark_bounds_outstanding_segments() {
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            pending_high_watermark: 2,
            ..ServeConfig::default()
        },
    );
    let stream = stream_fixture();
    let session = engine.open_session();
    for frame in &stream.frames {
        engine.push_frame(session, frame.clone());
        assert!(
            engine.outstanding() <= 2,
            "producer overran the pending high watermark"
        );
    }
    engine.close_session(session);
    let events = engine.drain();
    assert!(!events.is_empty(), "bounded replay still publishes results");
    assert_eq!(engine.outstanding(), 0);
}

#[test]
#[should_panic(expected = "unknown session")]
fn pushing_to_unknown_session_panics() {
    let engine = ServeEngine::new(toy_system(), ServeConfig::default());
    engine.push_frame(
        gp_serve::SessionId(99),
        gp_radar::Frame::new(0.0, gp_pointcloud::PointCloud::new()),
    );
}
