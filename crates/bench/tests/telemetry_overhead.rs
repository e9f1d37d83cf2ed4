//! Tier-1 overhead smoke: the stage-tracing clocks must be close to
//! free. Replays the capture fixture through identical engines with
//! telemetry on and off and compares their cost.
//!
//! On a shared 2-vCPU VM the same replay took anywhere from ~2 to over
//! 3 ms from one moment to the next, so the estimate is built in two
//! layers:
//!
//! * within a round, each engine replays the fixture a few times,
//!   interleaved with the other, and keeps its *minimum* — min-of-N is
//!   the standard estimator for "how fast can this go", so a scheduler
//!   hiccup inflates neither side;
//! * the overhead is the *median*, over many rounds, of the on/off ratio
//!   of those minima. Each ratio compares replays run milliseconds
//!   apart, so host drift cancels, and no single lucky or unlucky
//!   minimum decides the result. (On that VM, one min-of-N over a whole
//!   run swung by ±10% between two identical telemetry-off engines.)

use gp_serve::{ServeConfig, ServeEngine};
use gp_testkit::{stream_fixture, toy_system, GestureStream};
use std::time::{Duration, Instant};

const ROUNDS: usize = 101;
const REPLAYS_PER_ROUND: usize = 3;
const MAX_OVERHEAD: f64 = 0.05;

fn engine(telemetry: bool) -> ServeEngine {
    ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            telemetry,
            ..ServeConfig::default()
        },
    )
}

/// One timed burst replay through a prebuilt engine (construction and
/// fixture decode stay outside the clock).
fn replay(engine: &ServeEngine, stream: &GestureStream) -> Duration {
    let start = Instant::now();
    let session = engine.open_session();
    for frame in &stream.frames {
        engine.push_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine.drain();
    start.elapsed()
}

/// One round: min-of-N replay time per engine, interleaved, as the
/// on/off ratio. `round` alternates which engine goes first.
fn round_ratio(round: usize, on: &ServeEngine, off: &ServeEngine, stream: &GestureStream) -> f64 {
    let mut best_on = Duration::MAX;
    let mut best_off = Duration::MAX;
    for i in 0..REPLAYS_PER_ROUND {
        if (round + i).is_multiple_of(2) {
            best_off = best_off.min(replay(off, stream));
            best_on = best_on.min(replay(on, stream));
        } else {
            best_on = best_on.min(replay(on, stream));
            best_off = best_off.min(replay(off, stream));
        }
    }
    best_on.as_secs_f64() / best_off.as_secs_f64()
}

#[test]
fn telemetry_overhead_stays_under_five_percent() {
    let stream = stream_fixture();
    let on = engine(true);
    let off = engine(false);

    // Warm both paths (page-in, pool spin-up) before measuring.
    for _ in 0..3 {
        replay(&on, &stream);
        replay(&off, &stream);
    }

    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| round_ratio(round, &on, &off, &stream))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    let overhead = ratios[ROUNDS / 2] - 1.0;
    println!(
        "telemetry overhead: {:+.2}% (median of {ROUNDS} rounds, quartiles {:+.2}% / {:+.2}%)",
        overhead * 100.0,
        pct(ratios[ROUNDS / 4]),
        pct(ratios[3 * ROUNDS / 4]),
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "telemetry-on replay is {:.2}% slower than telemetry-off (median over \
         {ROUNDS} rounds of the min-of-{REPLAYS_PER_ROUND} ratio; bound: <{:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );

    // The cheap mode really is the instrumented one being compared:
    // stage clocks recorded on one side, absent on the other.
    assert!(on.telemetry_snapshot().is_some());
    assert!(off.telemetry_snapshot().is_none());
}
