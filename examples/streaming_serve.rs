//! Streaming serving demo: many concurrent simulated users replay live
//! radar streams through the `gp-serve` engine.
//!
//! Trains a GesturePrint system on the mTransSee tiny cohort, then opens
//! 8 concurrent sessions (driven by `gp_runtime::scope_map`, one
//! driver thread per session) replaying multi-gesture recordings frame-by-frame,
//! *paced* at a fixed frame rate with deterministic jitter (20× real
//! time) so the latency numbers are steady-state rather than burst.
//! Segments are detected online, micro-batched across sessions, and
//! classified (gesture + user) on the engine's worker pool. Prints
//! per-session predictions against ground truth plus aggregate
//! frames/sec and p50/p99 segment-to-result latency.
//!
//! Serving configuration (preprocessor included) comes from
//! `gp_bench::serve_config`, the single source shared with the serve
//! bench, so segmentation parameters cannot drift between the two.
//!
//! ```sh
//! cargo run --release --example streaming_serve
//! ```

use gestureprint::core::{GesturePrint, GesturePrintConfig, IdentificationMode};
use gestureprint::serve::ServeEngine;
use gp_bench::{drive_sessions, serve_config, ReplayPacer};
use gp_testkit::{quick_train, stream_capture, tiny_dataset, GestureStream};

const SESSIONS: usize = 8;
const GESTURES_PER_SESSION: usize = 3;
/// Replay rate: the simulated radar records at 10 fps; replaying at 20×
/// real time keeps the demo snappy while still pacing the stream.
const REPLAY_FPS: f64 = 200.0;

fn main() {
    // 1. Train on the shared tiny cohort: 3 users × 5 mTransSee gestures.
    let dataset = tiny_dataset();
    println!("{}", dataset.summary());
    let samples: Vec<_> = dataset.samples.iter().map(|s| &s.labeled).collect();
    println!("training GesturePrint on {} samples...", samples.len());
    let system = GesturePrint::train(
        &samples,
        dataset.spec.set.gesture_count(),
        dataset.spec.users,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: quick_train(),
            threads: 0,
        },
    );

    // 2. Simulate one continuous multi-gesture recording per session,
    //    performed by the same cohort the system was trained on.
    let gesture_count = dataset.spec.set.gesture_count();
    let streams: Vec<(usize, GestureStream)> = (0..SESSIONS)
        .map(|s| {
            let user = s % dataset.spec.users;
            let gestures: Vec<usize> = (0..GESTURES_PER_SESSION)
                .map(|k| (s + 2 * k) % gesture_count)
                .collect();
            (
                user,
                stream_capture(&dataset.spec, user, &gestures, 0xA11CE + s as u64),
            )
        })
        .collect();
    let total_frames: usize = streams.iter().map(|(_, s)| s.frames.len()).sum();

    // 3. Serve: one pool driver per session paces frames onto the
    //    engine at REPLAY_FPS (deterministic ±10% jitter); the engine
    //    micro-batches ready segments across sessions onto the worker
    //    pool.
    let engine = ServeEngine::new(system, serve_config(0, 8));
    let sessions: Vec<_> = (0..SESSIONS).map(|_| engine.open_session()).collect();
    println!(
        "replaying {SESSIONS} concurrent sessions ({total_frames} frames, paced \
         {REPLAY_FPS:.0} fps) on {} workers, micro-batch {}...\n",
        engine.workers(),
        engine.config().max_batch,
    );
    let start = std::time::Instant::now();
    let session_streams: Vec<_> = sessions
        .iter()
        .zip(&streams)
        .map(|(&session, (_, stream))| (session, stream))
        .collect();
    drive_sessions(
        &engine,
        &session_streams,
        Some(ReplayPacer::new(REPLAY_FPS, 0.1, 0xA11CE)),
    );
    let events = engine.drain();
    let elapsed = start.elapsed();

    // 4. Per-session results vs ground truth.
    let mut gesture_hits = 0usize;
    let mut user_hits = 0usize;
    let mut scored = 0usize;
    for (k, &session) in sessions.iter().enumerate() {
        let (user, stream) = &streams[k];
        println!("{session} (user {user}):");
        for event in events.iter().filter(|e| e.session == session) {
            // Ground truth: the performed gesture whose interval overlaps
            // the detected segment, if any.
            let truth = stream
                .truth
                .iter()
                .find(|t| event.segment.start < t.end_frame && t.start_frame < event.segment.end);
            let inference = &event.inference;
            let verdict = match truth {
                Some(t) => {
                    scored += 1;
                    gesture_hits += (inference.gesture == t.gesture) as usize;
                    user_hits += (inference.user == *user) as usize;
                    format!(
                        "truth gesture {} → {}",
                        t.gesture,
                        if inference.gesture == t.gesture && inference.user == *user {
                            "both correct"
                        } else if inference.gesture == t.gesture {
                            "gesture correct"
                        } else if inference.user == *user {
                            "user correct"
                        } else {
                            "both wrong"
                        }
                    )
                }
                None => "no overlapping ground truth".to_string(),
            };
            println!(
                "  frames [{:>3}, {:>3}) → gesture {} user {} ({:>9.2?})  [{verdict}]",
                event.segment.start,
                event.segment.end,
                inference.gesture,
                inference.user,
                event.latency,
            );
        }
    }

    // 5. Aggregate serving numbers.
    let stats = engine.stats();
    let fps = stats.total_frames() as f64 / elapsed.as_secs_f64();
    println!(
        "\naggregate: {} frames, {} segments ({} dropped by noise canceling), \
         {} results in {elapsed:.2?}",
        stats.total_frames(),
        stats.total_segments(),
        stats.total_segments() - stats.total_results(),
        stats.total_results(),
    );
    println!(
        "throughput {fps:.0} frames/s | segment-to-result latency p50 {:.2?} p99 {:.2?}",
        stats.latency_percentile(50.0).unwrap_or_default(),
        stats.latency_percentile(99.0).unwrap_or_default(),
    );
    println!(
        "accuracy on scored segments: gestures {gesture_hits}/{scored}, users {user_hits}/{scored}",
    );

    // 6. Where the time went: the telemetry registry's per-stage
    //    latency breakdown of the end-to-end numbers above.
    let snapshot = engine.telemetry_snapshot().unwrap_or_default();
    println!("\nper-stage latency breakdown:");
    print!("{}", snapshot.render_table("serve.stage."));
}
