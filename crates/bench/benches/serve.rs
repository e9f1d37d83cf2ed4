//! Serving-path benchmarks: streaming replay throughput and
//! segment-to-result latency through `gp-serve`.
//!
//! The criterion benchmarks time full stream replays under different
//! worker/batch configurations (burst mode, frames pushed as fast as
//! possible); `throughput_report` then replays a multi-session workload
//! *paced* at a fixed frame rate with deterministic jitter and prints
//! the operational numbers (frames/sec, p50/p99 latency) — steady-state
//! latency, the serving analogue of the paper's §VI-B5 timing table.
//!
//! All engines and the online-segmentation micro-bench take their
//! preprocessing parameters from [`gp_bench::serve_config`], the single
//! configuration source shared with `examples/streaming_serve.rs`.

use criterion::{criterion_group, Criterion};
use gp_bench::{drive_sessions, serve_config, ReplayPacer};
use gp_serve::ServeEngine;
use gp_testkit::{stream_fixture, toy_system, GestureStream};

/// Replays `stream` through one fresh session of `engine`, returning the
/// number of published results.
fn replay_once(engine: &ServeEngine, stream: &GestureStream) -> usize {
    let session = engine.open_session();
    for frame in &stream.frames {
        engine.push_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine.drain().len()
}

fn bench_serve(c: &mut Criterion) {
    let stream = stream_fixture();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    group.bench_function("stream_replay_1worker", |b| {
        let engine = ServeEngine::new(toy_system(), serve_config(1, 1));
        b.iter(|| replay_once(&engine, &stream))
    });
    group.bench_function("stream_replay_pooled_batched", |b| {
        let engine = ServeEngine::new(toy_system(), serve_config(0, 4));
        b.iter(|| replay_once(&engine, &stream))
    });
    group.bench_function("online_segmentation_per_frame", |b| {
        // Built from the shared serving config so the segmenter under
        // the microscope is exactly the one the engines run.
        let mut online =
            gp_pipeline::OnlineSegmenter::new(serve_config(1, 1).preprocessor.segmenter);
        let mut i = 0usize;
        b.iter(|| {
            let frame = &stream.frames[i % stream.frames.len()];
            i += 1;
            online.push_frame(frame)
        })
    });
    group.finish();
}

/// One paced multi-session replay with operational numbers: aggregate
/// frames/sec and p50/p99 segment-to-result latency. Pacing replays the
/// 10 fps streams at 20× real time (200 fps) with ±10% deterministic
/// jitter, so the latencies below are steady-state, not burst. Runs in
/// smoke mode too (it is itself a smoke test of the multi-session path).
fn throughput_report() {
    const SESSIONS: usize = 8;
    const REPLAY_FPS: f64 = 200.0;
    let stream = stream_fixture();
    let config = serve_config(0, 8);
    let engine = ServeEngine::new(toy_system(), config.clone());
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|_| (engine.open_session(), &stream))
        .collect();

    let start = std::time::Instant::now();
    drive_sessions(
        &engine,
        &sessions,
        Some(ReplayPacer::new(REPLAY_FPS, 0.1, 42)),
    );
    let results = engine.drain().len();
    let elapsed = start.elapsed();

    let stats = engine.stats();
    let fps = stats.total_frames() as f64 / elapsed.as_secs_f64();
    let p50 = stats.latency_percentile(50.0).unwrap_or_default();
    let p99 = stats.latency_percentile(99.0).unwrap_or_default();
    println!(
        "serve steady-state ({REPLAY_FPS:.0} fps paced): {SESSIONS} sessions × {} frames \
         → {results} results in {elapsed:.2?} | {fps:.0} frames/s | \
         latency p50 {p50:.2?} p99 {p99:.2?}",
        stream.frames.len(),
    );
    if let Some(spread) = gp_bench::per_session_p99_spread(&stats) {
        println!(
            "cross-session p99 spread: min {:.2?} median {:.2?} max {:.2?} \
             (tight spread = no session absorbs the tail for the others)",
            spread.min, spread.median, spread.max,
        );
    }

    // Persist the same numbers as a gp-codec report artifact so runs
    // are machine-comparable, not just human-readable.
    let artifact =
        gp_bench::serve_report_artifact(&config, SESSIONS, REPLAY_FPS, &stats, results, elapsed);
    gp_bench::write_result("serve_steady_state.json", &artifact);

    // Export the replay's full telemetry registry — the per-stage
    // latency breakdown behind the pooled p50/p99 above — as the
    // committed BENCH trajectory artifact.
    use gp_codec::{Encode, Value};
    let mut snapshot = engine.telemetry_snapshot().unwrap_or_default();
    snapshot
        .attrs
        .insert("bench".into(), Value::Str("serve_steady_state".into()));
    snapshot.attrs.insert("sessions".into(), SESSIONS.encode());
    snapshot
        .attrs
        .insert("replay_fps".into(), REPLAY_FPS.encode());
    snapshot
        .attrs
        .insert("frames_per_session".into(), stream.frames.len().encode());
    print!("{}", snapshot.render_table("serve.stage."));
    gp_bench::write_result("BENCH_serve.json", &gp_bench::telemetry_artifact(&snapshot));
}

criterion_group!(benches, bench_serve);

fn main() {
    benches();
    throughput_report();
}
