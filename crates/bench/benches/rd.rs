//! Range-Doppler path benchmarks: frame synthesis, feature extraction,
//! RdNet inference, and streaming replay through `gp-serve` sessions
//! opened in RD mode.
//!
//! The criterion benchmarks time the per-stage costs; `rd_report` then
//! replays a small multi-session RD workload through the engine and
//! exports the telemetry registry (stage histograms + `serve.rd.*`
//! counters) as the committed `BENCH_rd.json` trajectory artifact —
//! the RD counterpart of `benches/serve.rs`.

use criterion::{criterion_group, Criterion};
use gp_bench::serve_config;
use gp_rd::{extract_sample, RdFeatureConfig, RdFrame};
use gp_serve::ServeEngine;
use gp_testkit::{
    performance, rd_capture, rd_frames, rd_sample, toy_rd_system, toy_system, CANONICAL_DISTANCE,
    CANONICAL_GESTURE,
};

/// Replays one RD capture through a fresh RD session, returning the
/// number of published results.
fn replay_rd_once(engine: &ServeEngine, frames: &[RdFrame]) -> usize {
    let session = engine.open_rd_session();
    for frame in frames {
        engine.push_rd_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine.drain().len()
}

fn bench_rd(c: &mut Criterion) {
    let mut group = c.benchmark_group("rd");
    group.sample_size(10);

    group.bench_function("synthesize_capture", |b| {
        let perf = performance(0, CANONICAL_GESTURE, CANONICAL_DISTANCE, 7);
        b.iter(|| rd_frames(&perf, 7))
    });
    group.bench_function("feature_extract_segment", |b| {
        let sample = rd_sample(0, CANONICAL_GESTURE, 3);
        let config = RdFeatureConfig::default();
        b.iter(|| extract_sample(&sample, &config))
    });
    group.bench_function("rdnet_infer", |b| {
        let system = toy_rd_system();
        let sample = rd_sample(0, CANONICAL_GESTURE, 3);
        b.iter(|| system.infer_rd(&sample))
    });
    group.bench_function("rd_stream_replay", |b| {
        let engine =
            ServeEngine::new(toy_system(), serve_config(1, 1)).with_rd_system(toy_rd_system());
        let (_, frames) = rd_capture(0, CANONICAL_GESTURE, 3);
        b.iter(|| replay_rd_once(&engine, &frames))
    });
    group.finish();
}

/// One burst multi-session RD replay with operational numbers, exported
/// as the committed `BENCH_rd.json` telemetry artifact. The replay runs
/// in smoke mode too (it is itself a smoke test of the RD serving path),
/// but only a full run rewrites the artifact.
fn rd_report() {
    const SESSIONS: usize = 4;
    let engine = ServeEngine::new(toy_system(), serve_config(0, 4)).with_rd_system(toy_rd_system());
    let captures: Vec<_> = (0..SESSIONS)
        .map(|s| rd_capture(s % 2, CANONICAL_GESTURE, 3 + s as u64).1)
        .collect();
    let frames_per_session = captures[0].len();

    let start = std::time::Instant::now();
    let sessions: Vec<_> = (0..SESSIONS).map(|_| engine.open_rd_session()).collect();
    for (session, frames) in sessions.iter().zip(&captures) {
        for frame in frames {
            engine.push_rd_frame(*session, frame.clone());
        }
        engine.close_session(*session);
    }
    let results = engine.drain().len();
    let elapsed = start.elapsed();

    let stats = engine.stats();
    let fps = stats.total_frames() as f64 / elapsed.as_secs_f64();
    println!(
        "rd replay (burst): {SESSIONS} sessions × ~{frames_per_session} frames → {results} \
         results in {elapsed:.2?} | {fps:.0} frames/s | latency p50 {:.2?} p99 {:.2?}",
        stats.latency_percentile(50.0).unwrap_or_default(),
        stats.latency_percentile(99.0).unwrap_or_default(),
    );

    use gp_codec::{Encode, Value};
    let mut snapshot = engine.telemetry_snapshot().unwrap_or_default();
    snapshot
        .attrs
        .insert("bench".into(), Value::Str("rd_serve".into()));
    snapshot
        .attrs
        .insert("backend".into(), Value::Str("range_doppler".into()));
    snapshot.attrs.insert("sessions".into(), SESSIONS.encode());
    snapshot
        .attrs
        .insert("frames_per_session".into(), frames_per_session.encode());
    print!("{}", snapshot.render_table("serve.stage."));
    gp_bench::write_result("BENCH_rd.json", &gp_bench::telemetry_artifact(&snapshot));
}

criterion_group!(benches, bench_rd);

fn main() {
    benches();
    rd_report();
}
