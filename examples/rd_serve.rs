//! Range-Doppler serving demo: the backend-agnostic engine end to end.
//!
//! Trains the conv/LSTM RdNet on *synthesized* range-Doppler frames
//! (the same kinematic ground truth that drives the point-cloud
//! simulator), then serves two workloads through one `ServeEngine`:
//!
//! 1. **Pure RD sessions** — held-out captures stream frame-by-frame
//!    through sessions opened with `open_rd_session`; the online CFAR
//!    segmenter detects each gesture burst and the RD system classifies
//!    it (which gesture, which user).
//! 2. **A hybrid session** — paired point+RD pushes with
//!    `rd_fallback_min_points` set: when the closed point-cloud segment
//!    is too sparse to trust, the engine re-routes the aligned RD
//!    window to the RD backend instead of dropping the gesture.
//!
//! Prints per-capture predictions against ground truth, the
//! `serve.rd.*` counters, and the per-stage latency breakdown.
//!
//! ```sh
//! cargo run --release --example rd_serve
//! ```

use gestureprint::core::{
    GesturePrint, GesturePrintConfig, IdentificationMode, ModelKind, TrainConfig,
};
use gestureprint::pointcloud::{Point, PointCloud, Vec3};
use gestureprint::radar::Frame;
use gestureprint::rd::{RdFrame, RdLabeledSample};
use gestureprint::serve::{SensingBackend, ServeConfig, ServeEngine};
use gp_testkit::{rd_capture, rd_sample, toy_system};

/// The demo cohort: 'push' (12) is strongly radial, 'wave' (3) sweeps
/// laterally — distinct Doppler signatures, remapped to classes 0/1.
const GESTURES: [usize; 2] = [12, 3];
const USERS: usize = 2;
const TRAIN_REPS: u64 = 4;
const HELD_OUT_REPS: [u64; 2] = [20, 21];

fn main() {
    // 1. Train the RD system on synthesized captures: every training
    //    sample is the dominant CFAR segment of a full synthetic
    //    range-Doppler recording.
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
    println!(
        "training RdNet on {} synthesized range-Doppler segments \
         ({} gestures × {USERS} users × {TRAIN_REPS} reps)...",
        samples.len(),
        GESTURES.len(),
    );
    let refs: Vec<&RdLabeledSample> = samples.iter().collect();
    let rd_system = GesturePrint::train_rd(
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
            threads: 0,
        },
    );

    // 2. Serve held-out captures through pure RD sessions. The engine's
    //    primary system stays point-cloud; the RD system is attached
    //    alongside it and sessions declare their modality at open.
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 0,
            max_batch: 4,
            rd_fallback_min_points: Some(400),
            ..ServeConfig::default()
        },
    )
    .with_rd_system(rd_system);

    println!("\nheld-out captures through RD sessions:");
    let mut scored = 0usize;
    let mut gesture_hits = 0usize;
    let mut user_hits = 0usize;
    for (class, &gesture) in GESTURES.iter().enumerate() {
        for user in 0..USERS {
            for rep in HELD_OUT_REPS {
                let (_, frames) = rd_capture(user, gesture, rep);
                let session = engine.open_rd_session();
                for frame in &frames {
                    engine.push_rd_frame(session, frame.clone());
                }
                engine.close_session(session);
                let events = engine.drain();
                // The longest detected segment is the gesture burst.
                let Some(event) = events
                    .iter()
                    .filter(|e| e.session == session)
                    .max_by_key(|e| e.segment.len())
                else {
                    println!("  {session}: no segment detected");
                    continue;
                };
                scored += 1;
                gesture_hits += usize::from(event.inference.gesture == class);
                user_hits += usize::from(event.inference.user == user);
                println!(
                    "  {session}: frames [{:>2}, {:>2}) via {:?} → gesture {} user {} \
                     (truth: gesture {class} user {user})",
                    event.segment.start,
                    event.segment.end,
                    event.backend,
                    event.inference.gesture,
                    event.inference.user,
                );
            }
        }
    }
    println!("accuracy: gestures {gesture_hits}/{scored}, users {user_hits}/{scored}");

    // 3. Hybrid session: paired point+RD pushes. The burst's assembled
    //    segment aggregates ~350 detections — below the 400-point
    //    sparsity threshold configured above — so the engine distrusts
    //    the point segment and re-routes the aligned RD window.
    println!("\nhybrid session (sparse point clouds, RD fallback):");
    let session = engine.open_session();
    for i in 0..70usize {
        let burst = (20..45).contains(&i);
        let cloud: PointCloud = (0..if burst { 14 } else { 1 })
            .map(|k| Point::new(Vec3::new(k as f64 * 0.05, 1.2, 1.0), 0.4, 15.0))
            .collect();
        let mut rd = RdFrame::zeros(16, 64, i as f64 * 0.1);
        if burst {
            rd.power[12 * rd.range_bins + 36 + i % 4] = 45.0;
            rd.power[13 * rd.range_bins + 36 + i % 4] = 25.0;
        }
        engine.push_paired_frame(session, Frame::new(i as f64 * 0.1, cloud), rd);
    }
    engine.close_session(session);
    for event in engine.drain().iter().filter(|e| e.session == session) {
        println!(
            "  {session}: frames [{:>2}, {:>2}) via {:?} → gesture {} user {}{}",
            event.segment.start,
            event.segment.end,
            event.backend,
            event.inference.gesture,
            event.inference.user,
            if event.backend == SensingBackend::RangeDoppler {
                "  (point segment too sparse — served by the RD backend)"
            } else {
                ""
            },
        );
    }

    // 4. The RD counters and the shared per-stage latency breakdown.
    if let Some(registry) = engine.registry() {
        println!("\nrd counters:");
        for name in [
            "serve.rd.frames",
            "serve.rd.segments",
            "serve.rd.results",
            "serve.rd.fallback",
        ] {
            println!("  {name} = {}", registry.counter(name).get());
        }
    }
    if let Some(snapshot) = engine.telemetry_snapshot() {
        println!("\nper-stage latency breakdown:");
        print!("{}", snapshot.render_table("serve.stage."));
    }
}
