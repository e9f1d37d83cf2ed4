//! The dataset builder: spec → simulated, preprocessed, labeled samples.

use crate::spec::DatasetSpec;
use gp_kinematics::gestures::GestureId;
use gp_kinematics::{Performance, UserProfile};
use gp_pipeline::{LabeledSample, Preprocessor, PreprocessorConfig};
use gp_radar::{Backend, Environment, RadarConfig, RadarSimulator, Scene};
use gp_runtime::scope_map;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options controlling how a dataset is generated.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOptions {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Radar backend (geometric by default; the signal chain is ~100×
    /// slower and statistically matched).
    pub backend: Backend,
    /// Radar configuration.
    pub radar: RadarConfig,
    /// Preprocessing configuration.
    pub preprocessor: PreprocessorConfig,
    /// Number of worker threads (`0` = available parallelism).
    pub threads: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            seed: 0xC0FFEE,
            backend: Backend::Geometric,
            radar: RadarConfig::default(),
            preprocessor: PreprocessorConfig::default(),
            threads: 0,
        }
    }
}

/// One generated sample with its capture metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSample {
    /// The labeled gesture cloud (labels: gesture id, user id).
    pub labeled: LabeledSample,
    /// Anchor distance the user stood at (m).
    pub distance: f64,
    /// Articulation-speed multiplier used.
    pub speed_scale: f64,
    /// Capture environment.
    pub environment: Environment,
    /// Repetition index within the (user, gesture, distance, speed) cell.
    pub rep: usize,
}

/// A built dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The specification it was built from.
    pub spec: DatasetSpec,
    /// All successfully captured samples.
    pub samples: Vec<DatasetSample>,
    /// Number of capture attempts that produced no usable segment.
    pub dropped: usize,
}

impl Dataset {
    /// Samples restricted to one anchor distance.
    pub fn at_distance(&self, distance: f64) -> Vec<&DatasetSample> {
        self.samples
            .iter()
            .filter(|s| (s.distance - distance).abs() < 1e-6)
            .collect()
    }

    /// Summary line for paper Tab. I style reports.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} samples ({} users × {} gestures × {} reps × {} distances × {} speeds, {} dropped)",
            self.spec.name,
            self.samples.len(),
            self.spec.users,
            self.spec.set.gesture_count(),
            self.spec.reps,
            self.spec.distances.len(),
            self.spec.speed_scales.len(),
            self.dropped,
        )
    }
}

/// A single capture work item.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    user: usize,
    gesture: usize,
    rep: usize,
    distance: f64,
    speed_scale: f64,
}

/// Builds the dataset described by `spec`.
///
/// Each sample runs the full path: kinematic performance → radar capture
/// in the spec's environment → segmentation → noise canceling. Captures
/// whose segmentation finds no gesture are retried (up to four times)
/// with fresh repetition noise and counted in [`Dataset::dropped`] if
/// they still fail.
pub fn build(spec: &DatasetSpec, options: &BuildOptions) -> Dataset {
    let mut work = Vec::with_capacity(spec.sample_count());
    for user in 0..spec.users {
        for gesture in 0..spec.set.gesture_count() {
            for rep in 0..spec.reps {
                for &distance in &spec.distances {
                    for &speed_scale in &spec.speed_scales {
                        work.push(WorkItem {
                            user,
                            gesture,
                            rep,
                            distance,
                            speed_scale,
                        });
                    }
                }
            }
        }
    }

    // Each capture is an independent (seed-derived) simulation; every
    // `scope_map` thread takes the next capture as it frees up, and the
    // results come back in work order, so the build is deterministic
    // for any thread count.
    let total = work.len();
    let captured: Vec<Option<DatasetSample>> = scope_map(options.threads, work, |_, item| {
        capture_one(spec, options, &item)
    });

    let mut samples = Vec::with_capacity(total);
    let mut dropped = 0;
    for slot in captured {
        match slot {
            Some(sample) => samples.push(sample),
            None => dropped += 1,
        }
    }
    Dataset {
        spec: spec.clone(),
        samples,
        dropped,
    }
}

fn capture_one(
    spec: &DatasetSpec,
    options: &BuildOptions,
    item: &WorkItem,
) -> Option<DatasetSample> {
    let profile = UserProfile::generate(item.user, spec.user_seed);
    let pre = Preprocessor::new(options.preprocessor.clone());

    for attempt in 0..5u64 {
        let rep_seed = derive_seed(options.seed, spec, item, attempt);
        let mut rng = StdRng::seed_from_u64(rep_seed);
        let config = gp_kinematics::performance::PerformanceConfig {
            distance: item.distance,
            speed_scale: item.speed_scale,
            ..Default::default()
        };
        let perf = Performance::with_config(
            &profile,
            spec.set,
            GestureId(item.gesture),
            config,
            &mut rng,
        );
        let scene = Scene::for_performance(perf, spec.environment, rep_seed ^ 0xE57);
        let mut sim = RadarSimulator::new(options.radar.clone(), options.backend, rep_seed ^ 0x51B);
        let frames = sim.capture_scene(&scene);
        let mut segments = pre.process(&frames);
        if segments.is_empty() {
            continue;
        }
        // Keep the longest segment: spurious splits produce short extras.
        segments.sort_by_key(|s| std::cmp::Reverse(s.duration_frames));
        let best = segments.swap_remove(0);
        if best.cloud.len() < 8 {
            continue; // too sparse to be a usable gesture sample
        }
        return Some(DatasetSample {
            labeled: LabeledSample::from_sample(best, item.gesture, item.user),
            distance: item.distance,
            speed_scale: item.speed_scale,
            environment: spec.environment,
            rep: item.rep,
        });
    }
    None
}

fn derive_seed(master: u64, spec: &DatasetSpec, item: &WorkItem, attempt: u64) -> u64 {
    // Mix all identifying coordinates; FNV-style.
    let mut h = master ^ 0xcbf2_9ce4_8422_2325;
    for v in [
        spec.user_seed,
        item.user as u64,
        item.gesture as u64,
        item.rep as u64,
        (item.distance * 1000.0) as u64,
        (item.speed_scale * 1000.0) as u64,
        attempt,
        spec.environment as u64,
    ] {
        h ^= v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{presets, Scale};

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            distances: vec![1.2],
            ..presets::mtranssee(Scale::Custom { users: 2, reps: 2 }, &[1.2])
        }
    }

    #[test]
    fn builds_expected_sample_count() {
        let spec = tiny_spec();
        let ds = build(&spec, &BuildOptions::default());
        // 2 users × 5 gestures × 2 reps = 20 attempts; nearly all succeed.
        assert!(ds.samples.len() + ds.dropped == 20);
        assert!(ds.samples.len() >= 16, "too many drops: {}", ds.dropped);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = tiny_spec();
        let opts = BuildOptions {
            threads: 2,
            ..BuildOptions::default()
        };
        let a = build(&spec, &opts);
        let b = build(&spec, &opts);
        assert_eq!(a.samples.len(), b.samples.len());
        // Order-insensitive comparison: sort by identifying coordinates.
        let key = |s: &DatasetSample| (s.labeled.user, s.labeled.gesture, s.rep);
        let mut sa = a.samples.clone();
        let mut sb = b.samples.clone();
        sa.sort_by_key(key);
        sb.sort_by_key(key);
        assert_eq!(sa, sb);
    }

    #[test]
    fn labels_cover_all_classes() {
        let spec = tiny_spec();
        let ds = build(&spec, &BuildOptions::default());
        let users: std::collections::HashSet<usize> =
            ds.samples.iter().map(|s| s.labeled.user).collect();
        let gestures: std::collections::HashSet<usize> =
            ds.samples.iter().map(|s| s.labeled.gesture).collect();
        assert_eq!(users.len(), 2);
        assert_eq!(gestures.len(), 5);
    }

    #[test]
    fn clouds_are_nonempty_and_near_anchor() {
        let spec = tiny_spec();
        let ds = build(&spec, &BuildOptions::default());
        for s in &ds.samples {
            assert!(s.labeled.cloud.len() >= 8);
            let c = s.labeled.cloud.centroid().unwrap();
            assert!(
                (c.y - s.distance).abs() < 1.0,
                "cloud not near anchor: centroid {c:?} vs distance {}",
                s.distance
            );
        }
    }

    #[test]
    fn at_distance_filters() {
        let spec = presets::mtranssee(Scale::Custom { users: 1, reps: 1 }, &[1.2, 2.4]);
        let ds = build(&spec, &BuildOptions::default());
        let near = ds.at_distance(1.2);
        let far = ds.at_distance(2.4);
        assert_eq!(near.len() + far.len(), ds.samples.len());
        assert!(!near.is_empty());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let spec = tiny_spec();
        let seq = build(
            &spec,
            &BuildOptions {
                threads: 1,
                ..BuildOptions::default()
            },
        );
        let par = build(
            &spec,
            &BuildOptions {
                threads: 4,
                ..BuildOptions::default()
            },
        );
        let key = |s: &DatasetSample| (s.labeled.user, s.labeled.gesture, s.rep);
        let mut a = seq.samples.clone();
        let mut b = par.samples.clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }
}
