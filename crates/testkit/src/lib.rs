//! Shared deterministic fixtures for GesturePrint tests and benches.
//!
//! Before this crate existed, every integration test and benchmark re-built
//! the same "canonical capture" (user 0 performing ASL 'push' at 1.2 m in
//! an office) and the same tiny training dataset with copy-pasted seed
//! constants. This crate is the single source of truth for those fixtures;
//! changing a seed here changes it everywhere at once.
//!
//! Everything is seeded and pure: calling the same fixture twice yields
//! identical values, which the determinism tests rely on.

#![forbid(unsafe_code)]

use gestureprint_core::{
    GesturePrint, GesturePrintConfig, IdentificationMode, ModelKind, TrainConfig,
};
use gp_datasets::{build, presets, BuildOptions, Dataset, DatasetSpec, Scale};
use gp_kinematics::gestures::{GestureId, GestureSet};
use gp_kinematics::performance::PerformanceConfig;
use gp_kinematics::{Performance, Scatterer, UserProfile};
use gp_models::features::FeatureConfig;
use gp_pipeline::{LabeledSample, Preprocessor, PreprocessorConfig};
use gp_pointcloud::{Point, PointCloud, Vec3};
use gp_radar::processing::{power_map, range_doppler_maps};
use gp_radar::signal::synthesize_frame;
use gp_radar::{Backend, Environment, Frame, RadarConfig, RadarSimulator, Scene};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed shared by every fixture profile (the "cohort" seed).
pub const PROFILE_SEED: u64 = 42;

/// The canonical gesture used by single-capture fixtures: ASL 'push'.
pub const CANONICAL_GESTURE: usize = 12;

/// The canonical radar-to-user distance in metres.
pub const CANONICAL_DISTANCE: f64 = 1.2;

/// The biometric profile of fixture user `user`, drawn from the shared
/// cohort seed so the same user id always denotes the same person.
pub fn profile(user: usize) -> UserProfile {
    UserProfile::generate(user, PROFILE_SEED)
}

/// One seeded performance: fixture user `user` performing ASL gesture
/// `gesture` at `distance` metres, with per-repetition variability drawn
/// from `seed`.
pub fn performance(user: usize, gesture: usize, distance: f64, seed: u64) -> Performance {
    let mut rng = StdRng::seed_from_u64(seed);
    Performance::new(
        &profile(user),
        GestureSet::Asl15,
        GestureId(gesture),
        distance,
        &mut rng,
    )
}

/// Captures one performance in an office scene with the geometric backend:
/// the standard test capture. Returns the ground-truth performance next to
/// the raw frames so tests can check segmentation against it.
pub fn capture(user: usize, gesture: usize, rep_seed: u64) -> (Performance, Vec<Frame>) {
    let perf = performance(user, gesture, CANONICAL_DISTANCE, rep_seed);
    let scene = Scene::for_performance(perf.clone(), Environment::Office, rep_seed);
    let mut sim = RadarSimulator::new(
        RadarConfig::default(),
        Backend::Geometric,
        rep_seed ^ 0xF00D,
    );
    let frames = sim.capture_scene(&scene);
    (perf, frames)
}

/// The canonical captured gesture: user 0, ASL 'push', 1.2 m, office.
pub fn capture_fixture() -> Vec<Frame> {
    let perf = performance(0, CANONICAL_GESTURE, CANONICAL_DISTANCE, 5);
    let scene = Scene::for_performance(perf, Environment::Office, 5);
    let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::Geometric, 5);
    sim.capture_scene(&scene)
}

/// A preprocessed, labeled sample derived from [`capture_fixture`].
///
/// # Panics
///
/// Panics if the canonical capture yields no segment (would indicate a
/// pipeline regression).
pub fn sample_fixture() -> LabeledSample {
    let frames = capture_fixture();
    let samples = Preprocessor::new(PreprocessorConfig::default()).process(&frames);
    let best = samples
        .into_iter()
        .max_by_key(|s| s.duration_frames)
        .expect("canonical capture must segment");
    LabeledSample::from_sample(best, CANONICAL_GESTURE, 0)
}

/// A small but learnable dataset: 3 users × 5 MTranSee gestures × 6
/// repetitions at 1.2 m. Big enough for end-to-end accuracy assertions,
/// small enough for tier-1.
pub fn tiny_dataset() -> Dataset {
    let spec = presets::mtranssee(Scale::Custom { users: 3, reps: 6 }, &[CANONICAL_DISTANCE]);
    build(&spec, &BuildOptions::default())
}

/// A short training schedule for tier-1 tests (10 epochs, defaults
/// otherwise).
pub fn quick_train() -> TrainConfig {
    TrainConfig {
        epochs: 10,
        ..TrainConfig::default()
    }
}

/// Ground truth for one gesture inside a [`GestureStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTruth {
    /// Gesture id within the stream's gesture set.
    pub gesture: usize,
    /// Approximate first motion frame (10 fps).
    pub start_frame: usize,
    /// Approximate one-past-last motion frame.
    pub end_frame: usize,
}

/// A continuous multi-gesture radar stream for replay through the
/// serving path: frames with contiguous timestamps plus per-gesture
/// ground truth.
#[derive(Debug, Clone)]
pub struct GestureStream {
    /// The whole recording, timestamped at 10 fps from zero.
    pub frames: Vec<Frame>,
    /// One entry per performed gesture, in stream order.
    pub truth: Vec<StreamTruth>,
}

/// Simulates user `user` of `spec`'s cohort performing `gestures`
/// back-to-back (each with its natural idle lead-in/lead-out) as one
/// continuous capture in the spec's environment at its first anchor
/// distance. Deterministic in `(spec, user, gestures, seed)`.
pub fn stream_capture(
    spec: &DatasetSpec,
    user: usize,
    gestures: &[usize],
    seed: u64,
) -> GestureStream {
    let profile = UserProfile::generate(user, spec.user_seed);
    let distance = spec
        .distances
        .first()
        .copied()
        .unwrap_or(CANONICAL_DISTANCE);
    let mut frames: Vec<Frame> = Vec::new();
    let mut truth = Vec::new();
    for (k, &gesture) in gestures.iter().enumerate() {
        let rep_seed = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(rep_seed);
        let config = PerformanceConfig {
            distance,
            ..PerformanceConfig::default()
        };
        let perf =
            Performance::with_config(&profile, spec.set, GestureId(gesture), config, &mut rng);
        let (gesture_start, gesture_end) = perf.gesture_interval();
        let scene = Scene::for_performance(perf, spec.environment, rep_seed ^ 0xE57);
        let mut sim =
            RadarSimulator::new(RadarConfig::default(), Backend::Geometric, rep_seed ^ 0x51B);
        let captured = sim.capture_scene(&scene);
        let base = frames.len();
        truth.push(StreamTruth {
            gesture,
            start_frame: base + (gesture_start * 10.0).floor() as usize,
            end_frame: base + (gesture_end * 10.0).ceil() as usize,
        });
        frames.extend(
            captured
                .into_iter()
                .enumerate()
                .map(|(i, f)| Frame::new((base + i) as f64 * 0.1, f.cloud)),
        );
    }
    GestureStream { frames, truth }
}

/// The canonical serving stream: fixture user 0 performing three ASL
/// gestures back-to-back in the office (the streaming counterpart of
/// [`capture_fixture`]).
pub fn stream_fixture() -> GestureStream {
    stream_capture(
        &presets::gestureprint(Environment::Office, Scale::Small),
        0,
        &[CANONICAL_GESTURE, 2, 7],
        11,
    )
}

/// A deliberately tiny 2-gesture × 2-user synthetic cohort (hand-built
/// clouds, no radar simulation): gesture controls the motion axis, user
/// controls lateral offset and Doppler magnitude. Learnable in
/// milliseconds — for executor/serving tests and benches that need *a*
/// trained system but not radar realism.
pub fn toy_labeled_samples(reps: usize) -> Vec<LabeledSample> {
    let mut out = Vec::new();
    for gesture in 0..2usize {
        for user in 0..2usize {
            for rep in 0..reps {
                let shift = if user == 0 { -0.3 } else { 0.3 };
                let cloud: PointCloud = (0..24)
                    .map(|i| {
                        let t = i as f64 * 0.3 + rep as f64 * 0.07;
                        let (dx, dz) = if gesture == 0 {
                            (t.sin() * 0.35, 0.02) // lateral sweep
                        } else {
                            (0.02, t.sin() * 0.35) // vertical sweep
                        };
                        Point::new(
                            Vec3::new(shift + dx, 1.2 + t.cos() * 0.1, 1.0 + dz),
                            (t * 1.3).sin() * (0.8 + user as f64 * 0.6),
                            14.0,
                        )
                    })
                    .collect();
                out.push(LabeledSample {
                    cloud: cloud.clone(),
                    frame_clouds: vec![cloud; 4],
                    duration_frames: 18 + 4 * user,
                    gesture,
                    user,
                });
            }
        }
    }
    out
}

/// Renders one range-Doppler frame from a scatterer snapshot: the power
/// map of the radar's own FMCW chain (IF synthesis, Hann-windowed range
/// FFT, static clutter removal, Doppler FFT) on `config`, summed over
/// its antennas. `rng` drives the thermal noise.
pub fn rd_frame<R: Rng>(
    scatterers: &[Scatterer],
    config: &RadarConfig,
    timestamp: f64,
    rng: &mut R,
) -> gp_rd::RdFrame {
    let cube = synthesize_frame(scatterers, config, rng);
    gp_rd::RdFrame {
        timestamp,
        doppler_bins: config.chirps_per_frame,
        range_bins: config.samples_per_chirp,
        power: power_map(&range_doppler_maps(&cube, config)),
    }
}

/// Renders a whole performance as range-Doppler frames ([`rd_frame`] on
/// [`RadarConfig::range_doppler`]) at its 10 fps; `seed` drives the
/// thermal noise, so equal `(perf, seed)` give identical frames.
pub fn rd_frames(perf: &Performance, seed: u64) -> Vec<gp_rd::RdFrame> {
    let config = RadarConfig::range_doppler();
    let n = (perf.total_duration() * config.frame_rate_hz).ceil() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let t = i as f64 * config.frame_interval();
            rd_frame(&perf.scatterers_at(t), &config, t, &mut rng)
        })
        .collect()
}

/// Captures one performance as range-Doppler frames ([`rd_frames`]) —
/// the RD counterpart of [`capture`]: same kinematic ground truth, same
/// seeding convention.
pub fn rd_capture(
    user: usize,
    gesture: usize,
    rep_seed: u64,
) -> (Performance, Vec<gp_rd::RdFrame>) {
    let perf = performance(user, gesture, CANONICAL_DISTANCE, rep_seed);
    let frames = rd_frames(&perf, rep_seed ^ 0xF00D);
    (perf, frames)
}

/// Captures, segments, and labels one RD performance: the dominant
/// detected segment of [`rd_capture`] as an [`gp_rd::RdLabeledSample`].
///
/// # Panics
///
/// Panics if RD segmentation finds no activity (would indicate a
/// synthesis or segmentation regression).
pub fn rd_sample(user: usize, gesture: usize, rep_seed: u64) -> gp_rd::RdLabeledSample {
    let (_, frames) = rd_capture(user, gesture, rep_seed);
    let seg = gp_rd::dominant_segment(&frames, &gp_rd::RdSegmentConfig::default())
        .expect("RD capture must segment");
    gp_rd::RdLabeledSample::from_segment(&frames, seg.start, seg.end, gesture, user)
}

/// The RD counterpart of [`toy_labeled_samples`]: a hand-built
/// 2-gesture × 2-user RD cohort (gesture controls the range band, user
/// controls the Doppler side and spread). Learnable in milliseconds.
pub fn toy_rd_samples(reps: usize) -> Vec<gp_rd::RdLabeledSample> {
    let mut out = Vec::new();
    for gesture in 0..2usize {
        for user in 0..2usize {
            for rep in 0..reps {
                let d = if user == 0 { 4 } else { 12 };
                let r0 = if gesture == 0 { 10 } else { 36 };
                let frames: Vec<gp_rd::RdFrame> = (0..8)
                    .map(|i| {
                        let mut f = gp_rd::RdFrame::zeros(16, 64, i as f64 * 0.1);
                        let r = r0 + (rep + i) % 4;
                        f.power[d * f.range_bins + r] = 40.0 + rep as f64;
                        f.power[(d + 1) * f.range_bins + r] = 20.0 + user as f64 * 5.0;
                        f
                    })
                    .collect();
                out.push(gp_rd::RdLabeledSample {
                    frames,
                    duration_frames: 8,
                    gesture,
                    user,
                });
            }
        }
    }
    out
}

/// A short RD training schedule for tier-1 tests.
pub fn quick_rd_train() -> TrainConfig {
    TrainConfig {
        model: ModelKind::RdNet,
        epochs: 10,
        learning_rate: 5e-3,
        augment: None,
        ..TrainConfig::default()
    }
}

/// A range-Doppler [`GesturePrint`] trained on [`toy_rd_samples`] in
/// milliseconds — the RD counterpart of [`toy_system`].
pub fn toy_rd_system() -> GesturePrint {
    let samples = toy_rd_samples(4);
    let refs: Vec<&gp_rd::RdLabeledSample> = samples.iter().collect();
    GesturePrint::train_rd(
        &refs,
        2,
        2,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig {
                epochs: 8,
                ..quick_rd_train()
            },
            threads: 2,
        },
    )
}

/// A [`GesturePrint`] system trained on [`toy_labeled_samples`] in
/// milliseconds (2 gestures × 2 users, 8 epochs, serialized mode).
/// Predictions on real captures are arbitrary but deterministic.
pub fn toy_system() -> GesturePrint {
    let samples = toy_labeled_samples(4);
    let refs: Vec<&LabeledSample> = samples.iter().collect();
    GesturePrint::train(
        &refs,
        2,
        2,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig {
                model: ModelKind::GesIdNet,
                epochs: 8,
                augment: None,
                feature: FeatureConfig {
                    num_points: 24,
                    ..FeatureConfig::default()
                },
                ..TrainConfig::default()
            },
            threads: 2,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = capture_fixture();
        let b = capture_fixture();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cloud, y.cloud);
        }
        assert_eq!(sample_fixture().cloud, sample_fixture().cloud);
    }

    #[test]
    fn capture_exposes_ground_truth() {
        let (perf, frames) = capture(0, CANONICAL_GESTURE, 1);
        assert!(frames.len() > 30);
        let (gs, ge) = perf.gesture_interval();
        assert!(gs < ge);
    }

    #[test]
    fn stream_fixture_is_deterministic_and_contiguous() {
        let a = stream_fixture();
        let b = stream_fixture();
        assert_eq!(a.frames.len(), b.frames.len());
        for (x, y) in a.frames.iter().zip(&b.frames) {
            assert_eq!(x.cloud, y.cloud);
        }
        assert_eq!(a.truth.len(), 3);
        // Timestamps are re-based onto one 10 fps clock.
        for (i, f) in a.frames.iter().enumerate() {
            assert!((f.timestamp - i as f64 * 0.1).abs() < 1e-9);
        }
        // Truth intervals are ordered and in range.
        for w in a.truth.windows(2) {
            assert!(w[0].end_frame <= w[1].start_frame + 1);
        }
        assert!(a.truth.last().unwrap().end_frame <= a.frames.len());
    }

    #[test]
    fn toy_system_is_deterministic() {
        let samples = toy_labeled_samples(2);
        let a = toy_system();
        let b = toy_system();
        for s in &samples {
            assert_eq!(a.infer(s), b.infer(s));
        }
    }

    #[test]
    fn rd_fixtures_are_deterministic_and_segment() {
        let a = rd_sample(0, CANONICAL_GESTURE, 3);
        let b = rd_sample(0, CANONICAL_GESTURE, 3);
        assert_eq!(a, b);
        assert!(a.duration_frames >= 4);

        let samples = toy_rd_samples(2);
        let x = toy_rd_system();
        let y = toy_rd_system();
        for s in &samples {
            assert_eq!(x.infer_rd(s), y.infer_rd(s));
        }
    }
}
