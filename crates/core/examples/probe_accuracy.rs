//! Quick end-to-end accuracy probe: small simulated dataset → GesIDNet
//! GR + UI accuracies. Used to validate the learnability of the
//! synthetic biometric signal before running the full experiment suite.

use gestureprint_core::{
    classification_report, train_classifier, GesturePrint, GesturePrintConfig, IdentificationMode,
    ModelKind, TrainConfig,
};
use gp_datasets::{build, BuildOptions, DatasetSpec, Scale};
use gp_eval::split::train_test_split;
use gp_pipeline::LabeledSample;
use gp_radar::Environment;

fn main() {
    let t0 = std::time::Instant::now();
    let spec = DatasetSpec {
        distances: vec![1.2],
        ..gp_datasets::presets::gestureprint(
            Environment::Office,
            Scale::Custom { users: 5, reps: 12 },
        )
    };
    let mut spec = spec;
    // Trim to 6 gestures for the probe.
    spec.set = gp_kinematics::gestures::GestureSet::Asl15;
    let data = build(&spec, &BuildOptions::default());
    println!(
        "dataset: {} ({:.1}s)",
        data.summary(),
        t0.elapsed().as_secs_f64()
    );

    // Keep only gestures 0..6 for speed.
    let samples: Vec<&LabeledSample> = data
        .samples
        .iter()
        .map(|s| &s.labeled)
        .filter(|s| s.gesture < 8)
        .collect();
    let (train_idx, test_idx) = train_test_split(samples.len(), 0.2, 11);
    let train: Vec<&LabeledSample> = train_idx.iter().map(|&i| samples[i]).collect();
    let test: Vec<&LabeledSample> = test_idx.iter().map(|&i| samples[i]).collect();
    println!("train {} / test {}", train.len(), test.len());

    // Gesture recognition.
    let t1 = std::time::Instant::now();
    let gr_pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.gesture)).collect();
    let gr_model = train_classifier(&gr_pairs, 8, &TrainConfig::default(), None);
    let gr_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.gesture)).collect();
    let gr = classification_report(&gr_model, &gr_test);
    println!(
        "GR: acc {:.3} f1 {:.3} auc {:.3} ({:.1}s train)",
        gr.accuracy,
        gr.macro_f1,
        gr.macro_auc,
        t1.elapsed().as_secs_f64()
    );

    // User identification (parallel mode, single model across gestures).
    let t2 = std::time::Instant::now();
    let ui_pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.user)).collect();
    let ui_model = train_classifier(&ui_pairs, 5, &TrainConfig::default(), None);
    let ui_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
    let ui = classification_report(&ui_model, &ui_test);
    println!(
        "UI (parallel): acc {:.3} f1 {:.3} auc {:.3} eer {:.3} ({:.1}s train)",
        ui.accuracy,
        ui.macro_f1,
        ui.macro_auc,
        ui.eer,
        t2.elapsed().as_secs_f64()
    );

    // Serialized system end-to-end.
    let t3 = std::time::Instant::now();
    let system = GesturePrint::train(
        &train,
        8,
        5,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            ..Default::default()
        },
    );
    let mut g_ok = 0;
    let mut u_ok = 0;
    for s in &test {
        let out = system.infer(s);
        g_ok += (out.gesture == s.gesture) as usize;
        u_ok += (out.user == s.user) as usize;
    }
    println!(
        "serialized system: GRA {:.3} UIA {:.3} ({:.1}s train)",
        g_ok as f64 / test.len() as f64,
        u_ok as f64 / test.len() as f64,
        t3.elapsed().as_secs_f64()
    );
    // Baseline comparison.
    for kind in [ModelKind::PointNet, ModelKind::ProfileCnn, ModelKind::Lstm] {
        let t = std::time::Instant::now();
        let m = train_classifier(
            &gr_pairs,
            8,
            &TrainConfig {
                model: kind,
                ..TrainConfig::default()
            },
            None,
        );
        let r = classification_report(&m, &gr_test);
        println!(
            "GR {:?}: acc {:.3} ({:.1}s)",
            kind,
            r.accuracy,
            t.elapsed().as_secs_f64()
        );
    }
    println!("total {:.1}s", t0.elapsed().as_secs_f64());
}
