//! Shared fixtures and replay drivers for the Criterion benchmarks and
//! the serving example.
//!
//! `benches/pipeline.rs` covers the signal chain (FFT, CFAR, frame
//! simulation), the preprocessing stage (segmentation, DBSCAN, full
//! preprocess — the paper's §VI-B5 "preprocessing time"), and the
//! classifiers (inference and one training step). `benches/serve.rs`
//! covers the streaming serving path (replay throughput, online
//! segmentation per frame) and prints a paced multi-session frames/sec
//! and p50/p99 latency report. `benches/inference.rs` compares batched
//! against sequential GesIDNet inference.
//!
//! The capture fixtures live in `gp-testkit` (shared with the
//! integration tests); this crate re-exports them and adds the pieces
//! the serving bench and `examples/streaming_serve.rs` share, so the
//! two cannot drift apart:
//!
//! * [`serve_config`] — the single source of serving configuration.
//!   Segmentation/noise-canceling parameters come from
//!   `gp_pipeline::PreprocessorConfig::default()` through one
//!   expression; neither the bench nor the example re-declares them.
//! * [`ReplayPacer`] — fixed-fps replay with deterministic jitter, so
//!   replays measure steady-state latency instead of burst latency.
//! * [`drive_sessions`] — replays one stream per session concurrently
//!   through `gp_runtime::scope_map`, one thread per session.

#![forbid(unsafe_code)]

use gestureprint_core::artifact::{kinds, Artifact};
use gp_codec::{Decode, Encode, Value};
use gp_runtime::scope_map;
use gp_serve::{ServeConfig, ServeEngine, ServeStats, SessionId, TelemetrySnapshot};
use gp_testkit::GestureStream;
use std::time::{Duration, Instant};

pub use gp_testkit::{capture_fixture, sample_fixture};

/// The single source of serving configuration for the serve bench and
/// the streaming example: `workers`/`max_batch` vary per scenario,
/// everything else — in particular the preprocessor, and with it every
/// segmentation parameter — is the `gp-pipeline` default.
pub fn serve_config(workers: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch,
        ..ServeConfig::default()
    }
}

/// Builds a `gestureprint.report` artifact capturing one paced serve
/// replay: the exact [`ServeConfig`] served, the workload shape, and
/// the operational numbers (frames/sec, latency percentiles) — so
/// steady-state serving results are machine-comparable across runs,
/// not just printed.
pub fn serve_report_artifact(
    config: &ServeConfig,
    sessions: usize,
    replay_fps: f64,
    stats: &ServeStats,
    results: usize,
    elapsed: Duration,
) -> Vec<u8> {
    let frames = stats.total_frames();
    let fps = frames as f64 / elapsed.as_secs_f64().max(1e-9);
    let latency_s = |p: f64| {
        stats
            .latency_percentile(p)
            .map(|d| d.as_secs_f64())
            .encode()
    };
    let spread = per_session_p99_spread(stats);
    let payload = Value::record([
        ("report", Value::Str("serve_steady_state".into())),
        ("serve_config", config.encode()),
        ("sessions", sessions.encode()),
        ("replay_fps", replay_fps.encode()),
        ("frames", frames.encode()),
        ("segments", stats.total_segments().encode()),
        ("results", results.encode()),
        ("elapsed_s", elapsed.as_secs_f64().encode()),
        ("frames_per_sec", fps.encode()),
        ("latency_p50_s", latency_s(50.0)),
        ("latency_p99_s", latency_s(99.0)),
        (
            "p99_spread_s",
            spread
                .map(|s| {
                    Value::record([
                        ("min", s.min.as_secs_f64().encode()),
                        ("median", s.median.as_secs_f64().encode()),
                        ("max", s.max.as_secs_f64().encode()),
                    ])
                })
                .encode(),
        ),
    ]);
    Artifact::new(kinds::REPORT, payload).to_bytes()
}

/// Wraps a telemetry snapshot in the versioned artifact envelope
/// (`gestureprint.telemetry`) — the `BENCH_*.json` trajectory format
/// the benches commit and the soak job uploads. The snapshot schema is
/// versioned independently of the envelope, so either layer can evolve
/// without breaking old readers.
pub fn telemetry_artifact(snapshot: &TelemetrySnapshot) -> Vec<u8> {
    Artifact::new(kinds::TELEMETRY, snapshot.encode()).to_bytes()
}

/// Writes a bench's artifact to `results/<name>`, relative to the
/// working directory (the package root under `cargo bench`), and says
/// where it went.
///
/// A criterion smoke run (`--test`) leaves the committed `BENCH_*`
/// trajectory artifacts as they are, so a smoke pass never rewrites
/// them with smoke numbers; other names are scratch output and are
/// written in either mode. A failed write is a warning, not a panic.
pub fn write_result(name: &str, bytes: &[u8]) {
    let path = std::path::Path::new("results").join(name);
    if name.starts_with("BENCH_") && std::env::args().any(|a| a == "--test") {
        println!("smoke run: {} left as committed", path.display());
        return;
    }
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, bytes)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Decodes a `BENCH_*.json` artifact back into its snapshot — the
/// compat direction CI checks against the committed artifacts.
///
/// # Errors
///
/// Returns the envelope error (wrong kind, future schema, malformed
/// bytes) or the snapshot's own decode error as a string.
pub fn telemetry_from_artifact(bytes: &[u8]) -> Result<TelemetrySnapshot, String> {
    let artifact = Artifact::from_bytes(bytes).map_err(|e| e.to_string())?;
    artifact
        .expect_kind(kinds::TELEMETRY)
        .map_err(|e| e.to_string())?;
    TelemetrySnapshot::decode(&artifact.payload).map_err(|e| e.to_string())
}

/// Cross-session latency spread: min / median / max of the *per-session*
/// p99s. A tight spread means no tenant is quietly absorbing the tail
/// for the others — the fairness number the multi-session reports print
/// next to the pooled percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P99Spread {
    /// Best per-session p99.
    pub min: Duration,
    /// Median per-session p99.
    pub median: Duration,
    /// Worst per-session p99.
    pub max: Duration,
}

/// Computes the [`P99Spread`] over every session (evicted aggregate
/// excluded — it pools many sessions) that has latency samples.
pub fn per_session_p99_spread(stats: &ServeStats) -> Option<P99Spread> {
    let mut p99s: Vec<Duration> = stats
        .sessions
        .values()
        .filter_map(|s| s.latency_percentile(99.0))
        .collect();
    if p99s.is_empty() {
        return None;
    }
    p99s.sort_unstable();
    Some(P99Spread {
        min: p99s[0],
        median: p99s[p99s.len() / 2],
        max: p99s[p99s.len() - 1],
    })
}

/// Fixed-fps replay pacing with deterministic jitter.
///
/// Frame `i`'s target offset from replay start is `i / fps` plus a
/// per-frame jitter drawn deterministically from `(seed, i)` in
/// `±jitter × frame interval`. The schedule (not the OS sleep accuracy)
/// is reproducible across runs, which keeps paced replays comparable.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPacer {
    interval_secs: f64,
    jitter: f64,
    seed: u64,
}

impl ReplayPacer {
    /// A pacer replaying at `fps` frames per second with `jitter`
    /// (fraction of the frame interval, `0.0..=0.5` is sensible) of
    /// deterministic per-frame wobble.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not positive.
    pub fn new(fps: f64, jitter: f64, seed: u64) -> ReplayPacer {
        assert!(fps > 0.0, "fps must be positive");
        ReplayPacer {
            interval_secs: 1.0 / fps,
            jitter,
            seed,
        }
    }

    /// Frame `i`'s target offset from replay start.
    pub fn offset_for(&self, frame: usize) -> Duration {
        // SplitMix64 over (seed, frame): cheap, stateless, deterministic.
        let mut z = self
            .seed
            .wrapping_add((frame as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let wobble = (2.0 * unit - 1.0) * self.jitter;
        let t = (frame as f64 + wobble).max(0.0) * self.interval_secs;
        Duration::from_secs_f64(t)
    }

    /// Sleeps until frame `i`'s target time relative to `start` (no-op
    /// when already past it).
    pub fn pace(&self, start: Instant, frame: usize) {
        let target = start + self.offset_for(frame);
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
}

/// Replays one stream per session concurrently — one thread per
/// session — and closes each session at stream end. `pacer: None`
/// replays as fast as possible (burst mode); `Some` paces every
/// driver's frames on its own clock (steady-state mode).
pub fn drive_sessions(
    engine: &ServeEngine,
    sessions: &[(SessionId, &GestureStream)],
    pacer: Option<ReplayPacer>,
) {
    scope_map(sessions.len(), sessions.to_vec(), |_, (session, stream)| {
        let start = Instant::now();
        for (i, frame) in stream.frames.iter().enumerate() {
            if let Some(pacer) = &pacer {
                pacer.pace(start, i);
            }
            engine.push_frame(session, frame.clone());
        }
        engine.close_session(session);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let frames = capture_fixture();
        assert!(frames.len() > 30);
        let sample = sample_fixture();
        assert!(sample.cloud.len() >= 8);
    }

    #[test]
    fn serve_config_uses_pipeline_preprocessor_defaults() {
        let config = serve_config(2, 4);
        assert_eq!(config.workers, 2);
        assert_eq!(config.max_batch, 4);
        assert_eq!(
            config.preprocessor,
            gp_pipeline::PreprocessorConfig::default(),
            "serving preprocessor must be the gp-pipeline default"
        );
    }

    #[test]
    fn pacer_is_deterministic_and_roughly_fixed_rate() {
        let pacer = ReplayPacer::new(10.0, 0.2, 7);
        let again = ReplayPacer::new(10.0, 0.2, 7);
        for i in 0..50 {
            assert_eq!(pacer.offset_for(i), again.offset_for(i), "frame {i}");
            let nominal = i as f64 * 0.1;
            let offset = pacer.offset_for(i).as_secs_f64();
            assert!(
                (offset - nominal).abs() <= 0.2 * 0.1 + 1e-9,
                "frame {i}: offset {offset} strays from nominal {nominal}"
            );
        }
        // A different seed produces a different jitter sequence.
        let other = ReplayPacer::new(10.0, 0.2, 8);
        assert!((0..50).any(|i| other.offset_for(i) != pacer.offset_for(i)));
    }

    #[test]
    fn zero_jitter_is_exactly_fixed_rate() {
        let pacer = ReplayPacer::new(100.0, 0.0, 0);
        assert_eq!(pacer.offset_for(0), Duration::ZERO);
        assert_eq!(pacer.offset_for(10), Duration::from_millis(100));
    }

    #[test]
    fn telemetry_artifact_roundtrips_through_envelope() {
        let engine = ServeEngine::new(gp_testkit::toy_system(), serve_config(1, 2));
        let stream = gp_testkit::stream_fixture();
        let session = engine.open_session();
        for frame in &stream.frames {
            engine.push_frame(session, frame.clone());
        }
        engine.close_session(session);
        engine.drain();
        let snap = engine.telemetry_snapshot().unwrap_or_default();
        let bytes = telemetry_artifact(&snap);
        let back = telemetry_from_artifact(&bytes).expect("decodable artifact");
        assert_eq!(back, snap);
        // Wrong-kind bytes fail typed, not garbled.
        let wrong = Artifact::new(kinds::REPORT, snap.encode()).to_bytes();
        assert!(telemetry_from_artifact(&wrong).is_err());
    }

    #[test]
    fn drive_sessions_replays_and_closes() {
        let engine = ServeEngine::new(gp_testkit::toy_system(), serve_config(2, 2));
        let stream = gp_testkit::stream_fixture();
        let sessions: Vec<(SessionId, &GestureStream)> =
            (0..2).map(|_| (engine.open_session(), &stream)).collect();
        drive_sessions(&engine, &sessions, Some(ReplayPacer::new(5_000.0, 0.1, 3)));
        assert_eq!(engine.session_count(), 0, "sessions closed");
        let events = engine.drain();
        assert!(!events.is_empty(), "paced replay still publishes results");
    }
}
