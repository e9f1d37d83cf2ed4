//! Tier-2 tests for the range-Doppler sensing path, `#[ignore]`d by
//! default.
//!
//! Tier-1 keeps RD coverage to a 2×2 cohort; these tests scale it up to
//! a paper-shaped cohort (more gestures, more users, more repetitions)
//! and take minutes. Run them explicitly:
//!
//! ```text
//! cargo test -p gp-experiments --test tier2_rd_cohort -- --ignored
//! ```
//!
//! See TESTING.md for the tier policy.

use gestureprint_core::{
    GesturePrint, GesturePrintConfig, IdentificationMode, ModelKind, TrainConfig,
};
use gp_rd::RdLabeledSample;
use gp_serve::{SensingBackend, ServeConfig, ServeEngine};
use gp_testkit::{rd_capture, rd_sample, toy_system};

/// A mid-size cohort: four mTransSee gestures with distinct Doppler
/// signatures ('push', 'wave', 'pull', 'circle'), remapped to classes
/// 0..4.
const GESTURES: [usize; 4] = [12, 3, 13, 5];
const USERS: usize = 4;
const TRAIN_REPS: u64 = 6;
const TEST_REPS: [u64; 2] = [40, 41];

fn cohort_samples(reps: impl Iterator<Item = u64> + Clone) -> Vec<RdLabeledSample> {
    let mut samples = Vec::new();
    for (class, &gesture) in GESTURES.iter().enumerate() {
        for user in 0..USERS {
            for rep in reps.clone() {
                let mut sample = rd_sample(user, gesture, rep);
                sample.gesture = class;
                samples.push(sample);
            }
        }
    }
    samples
}

fn train_cohort(epochs: usize) -> GesturePrint {
    let train = cohort_samples(0..TRAIN_REPS);
    let refs: Vec<&RdLabeledSample> = train.iter().collect();
    GesturePrint::train_rd(
        &refs,
        GESTURES.len(),
        USERS,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig {
                model: ModelKind::RdNet,
                epochs,
                learning_rate: 5e-3,
                augment: None,
                ..TrainConfig::default()
            },
            threads: 0,
        },
    )
}

#[test]
#[ignore = "tier-2: trains RdNet on a 4-gesture × 4-user RD cohort (~minutes)"]
fn rd_cohort_learns_both_tasks_above_floor() {
    let system = train_cohort(20);
    let test = cohort_samples(TEST_REPS.into_iter());
    let refs: Vec<&RdLabeledSample> = test.iter().collect();
    let inferences = system.infer_batch(&refs);
    let total = test.len();
    let mut gesture_correct = 0usize;
    let mut user_correct = 0usize;
    for (sample, inference) in test.iter().zip(&inferences) {
        gesture_correct += usize::from(inference.gesture == sample.gesture);
        user_correct += usize::from(inference.user == sample.user);
    }
    assert_eq!(total, GESTURES.len() * USERS * TEST_REPS.len());
    // Chance is 1/4 on both tasks. The floors are deliberately
    // conservative (regression catch, not tuning drift): both tasks
    // must clear 2× chance on held-out repetitions.
    let gesture_acc = gesture_correct as f64 / total as f64;
    let user_acc = user_correct as f64 / total as f64;
    assert!(
        gesture_acc > 0.5,
        "RD gesture accuracy {gesture_acc:.3} ({gesture_correct}/{total}) below 2× chance"
    );
    assert!(
        user_acc > 0.5,
        "RD identification accuracy {user_acc:.3} ({user_correct}/{total}) below 2× chance"
    );
}

#[test]
#[ignore = "tier-2: streams a full RD cohort through the serving engine (~minutes)"]
fn rd_cohort_serves_above_floor_through_engine_sessions() {
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 0,
            max_batch: 8,
            ..ServeConfig::default()
        },
    )
    .with_rd_system(train_cohort(20));
    let mut total = 0usize;
    let mut gesture_correct = 0usize;
    let mut user_correct = 0usize;
    for (class, &gesture) in GESTURES.iter().enumerate() {
        for user in 0..USERS {
            for rep in TEST_REPS {
                let (_, frames) = rd_capture(user, gesture, rep);
                let session = engine.open_rd_session();
                for frame in &frames {
                    engine.push_rd_frame(session, frame.clone());
                }
                engine.close_session(session);
                let events = engine.drain();
                let event = events
                    .iter()
                    .filter(|e| e.session == session)
                    .max_by_key(|e| e.segment.len())
                    .expect("every capture must segment and publish");
                assert_eq!(event.backend, SensingBackend::RangeDoppler);
                total += 1;
                gesture_correct += usize::from(event.inference.gesture == class);
                user_correct += usize::from(event.inference.user == user);
            }
        }
    }
    assert_eq!(total, GESTURES.len() * USERS * TEST_REPS.len());
    assert!(
        gesture_correct * 2 > total,
        "served RD gesture accuracy {gesture_correct}/{total} below 2× chance"
    );
    assert!(
        user_correct * 2 > total,
        "served RD identification accuracy {user_correct}/{total} below 2× chance"
    );
    // The engine's RD telemetry accounted for every capture.
    let registry = engine.registry().expect("telemetry on by default");
    assert_eq!(registry.counter("serve.rd.fallback").get(), 0);
    assert!(registry.counter("serve.rd.segments").get() >= total as u64);
}
