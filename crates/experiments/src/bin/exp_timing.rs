//! E10 — §VI-B5: time consumption per gesture sample.
//!
//! Measures the preprocessing time (segmentation + noise canceling) and
//! the classification inference time (GR + UI), averaged over 500 runs,
//! matching the paper's protocol. Absolute numbers differ from the
//! paper's hardware; the shape to check is preprocessing + inference ≪
//! gesture duration.

use gestureprint_core::{train_classifier, TrainConfig};
use gp_datasets::{build, presets, BuildOptions, Scale};
use gp_experiments::write_csv;
use gp_kinematics::gestures::{GestureId, GestureSet};
use gp_kinematics::{Performance, UserProfile};
use gp_pipeline::{LabeledSample, Preprocessor, PreprocessorConfig};
use gp_radar::{Backend, Environment, RadarConfig, RadarSimulator, Scene};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    println!("== §VI-B5: time consumption ==");
    // A capture to preprocess repeatedly.
    let profile = UserProfile::generate(0, 42);
    let mut rng = StdRng::seed_from_u64(3);
    let perf = Performance::new(&profile, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
    let scene = Scene::for_performance(perf, Environment::Office, 3);
    let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::Geometric, 3);
    let frames = sim.capture_scene(&scene);
    let pre = Preprocessor::new(PreprocessorConfig::default());

    let runs = 500;
    let t0 = Instant::now();
    let mut keep = 0usize;
    for _ in 0..runs {
        keep += pre.process(&frames).len();
    }
    let pre_ms = t0.elapsed().as_secs_f64() * 1000.0 / runs as f64;
    assert!(keep > 0);

    // Small trained models for inference timing.
    let spec = presets::gestureprint(Environment::Office, Scale::Custom { users: 4, reps: 6 });
    let ds = build(&spec, &BuildOptions::default());
    let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
    let quick = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let gr_pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (*s, s.gesture)).collect();
    let gr_model = train_classifier(&gr_pairs, spec.set.gesture_count(), &quick);
    let ui_pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (*s, s.user)).collect();
    let ui_model = train_classifier(&ui_pairs, spec.users, &quick);

    let sample = samples[0];
    let t1 = Instant::now();
    for _ in 0..runs {
        let _ = gr_model.probabilities_batch(&[sample]);
        let _ = ui_model.probabilities_batch(&[sample]);
    }
    let infer_ms = t1.elapsed().as_secs_f64() * 1000.0 / runs as f64;

    let total_ms = pre_ms + infer_ms;
    let gesture_s = sample.duration_frames as f64 / 10.0;
    println!("preprocessing (segmentation + noise canceling): {pre_ms:.2} ms/sample");
    println!("inference (GR + UI):                            {infer_ms:.2} ms/sample");
    println!("total:                                          {total_ms:.2} ms/sample");
    println!("mean gesture duration:                          {gesture_s:.2} s");
    println!("\npaper: preprocessing 405.93 ms, inference 677.14 ms (CPU) / 530.99 ms (GPU),");
    println!("total 0.94 s vs 2.43 s gesture duration — processing ≪ gesture time.");
    assert!(
        total_ms / 1000.0 < gesture_s,
        "processing must be faster than the gesture itself"
    );
    let p = write_csv(
        "exp_timing.csv",
        "stage,ms_per_sample",
        &[
            format!("preprocessing,{pre_ms:.3}"),
            format!("inference,{infer_ms:.3}"),
            format!("total,{total_ms:.3}"),
        ],
    )
    .expect("csv");
    println!("csv: {}", p.display());
}
