//! Range-Doppler serving demo: the backend-agnostic engine end to end.
//!
//! Trains the conv/LSTM RdNet on *synthesized* range-Doppler frames
//! (the same kinematic ground truth that drives the point-cloud
//! simulator), then serves held-out captures through one `ServeEngine`:
//! each capture streams frame-by-frame through a session opened with
//! `open_rd_session`, the online segmenter detects the gesture burst
//! and the RD system classifies it (which gesture, which user). A
//! session streams one modality, fixed at open.
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
use gestureprint::rd::RdLabeledSample;
use gestureprint::serve::{ServeConfig, ServeEngine};
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

    // 3. The RD counters and the shared per-stage latency breakdown.
    println!("\nrd counters:");
    for name in ["serve.rd.frames", "serve.rd.segments", "serve.rd.results"] {
        println!("  {name} = {}", engine.registry().counter(name).get());
    }
    let snapshot = engine.telemetry_snapshot().unwrap_or_default();
    println!("\nper-stage latency breakdown:");
    print!("{}", snapshot.render_table("serve.stage."));
}
