//! Cross-crate integration tests: the full path from kinematics through
//! the radar simulator, preprocessing, training and evaluation.

use gestureprint::core::{
    classification_report, train_classifier, GesturePrint, GesturePrintConfig, IdentificationMode,
    ModelKind, TrainConfig,
};
use gestureprint::eval::split::train_test_split;
use gestureprint::pipeline::LabeledSample;
use gp_testkit::{quick_train, tiny_dataset};

#[test]
fn dataset_to_system_round_trip() {
    let ds = tiny_dataset();
    assert!(
        ds.samples.len() >= 70,
        "dataset too small: {}",
        ds.samples.len()
    );
    let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
    let (tr, te) = train_test_split(samples.len(), 0.2, 3);
    let train: Vec<&LabeledSample> = tr.iter().map(|&i| samples[i]).collect();
    let test: Vec<&LabeledSample> = te.iter().map(|&i| samples[i]).collect();

    // Parallel mode: at this tiny scale the per-gesture identifiers of
    // serialized mode would have ~14 training samples each; the parallel
    // identifier pools all gestures and is the right fit (the mode
    // comparison at realistic scale lives in tab02_overall).
    let system = GesturePrint::train(
        &train,
        5,
        3,
        &GesturePrintConfig {
            mode: IdentificationMode::Parallel,
            train: TrainConfig {
                epochs: 14,
                ..quick_train()
            },
            threads: 0,
        },
    );
    let mut g_ok = 0;
    let mut u_ok = 0;
    for s in &test {
        let out = system.infer(s);
        g_ok += (out.gesture == s.gesture) as usize;
        u_ok += (out.user == s.user) as usize;
    }
    let gra = g_ok as f64 / test.len() as f64;
    let uia = u_ok as f64 / test.len() as f64;
    assert!(gra > 0.7, "end-to-end GRA too low: {gra}");
    assert!(uia > 0.5, "end-to-end UIA too low: {uia}");
}

#[test]
fn all_architectures_beat_chance_on_gestures() {
    let ds = tiny_dataset();
    let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
    let (tr, te) = train_test_split(samples.len(), 0.2, 5);
    let train: Vec<&LabeledSample> = tr.iter().map(|&i| samples[i]).collect();
    let test: Vec<&LabeledSample> = te.iter().map(|&i| samples[i]).collect();
    let gr_train: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.gesture)).collect();
    let gr_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.gesture)).collect();
    let chance = 1.0 / 5.0;
    for kind in [
        ModelKind::GesIdNet,
        ModelKind::GesIdNetNoFusion,
        ModelKind::PointNet,
        ModelKind::ProfileCnn,
        ModelKind::Lstm,
    ] {
        let model = train_classifier(
            &gr_train,
            5,
            &TrainConfig {
                model: kind,
                ..quick_train()
            },
        );
        let report = classification_report(&model, &gr_test);
        assert!(
            report.accuracy > 2.0 * chance,
            "{} accuracy {} barely beats chance",
            kind.name(),
            report.accuracy
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    // Same seeds ⇒ identical dataset, training, and predictions.
    let a = tiny_dataset();
    let b = tiny_dataset();
    assert_eq!(a.samples.len(), b.samples.len());
    let sa: Vec<&LabeledSample> = a.samples.iter().map(|s| &s.labeled).collect();
    let sb: Vec<&LabeledSample> = b.samples.iter().map(|s| &s.labeled).collect();
    let pa: Vec<(&LabeledSample, usize)> = sa.iter().map(|s| (*s, s.gesture)).collect();
    let pb: Vec<(&LabeledSample, usize)> = sb.iter().map(|s| (*s, s.gesture)).collect();
    let cfg = TrainConfig {
        epochs: 3,
        ..quick_train()
    };
    let ma = train_classifier(&pa, 5, &cfg);
    let mb = train_classifier(&pb, 5, &cfg);
    for (x, y) in sa.iter().zip(sb.iter()) {
        assert_eq!(ma.probabilities_batch(&[*x]), mb.probabilities_batch(&[*y]));
    }
}

#[test]
fn report_metrics_are_coherent() {
    let ds = tiny_dataset();
    let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
    let (tr, te) = train_test_split(samples.len(), 0.25, 9);
    let train: Vec<&LabeledSample> = tr.iter().map(|&i| samples[i]).collect();
    let test: Vec<&LabeledSample> = te.iter().map(|&i| samples[i]).collect();
    let pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.user)).collect();
    let model = train_classifier(&pairs, 3, &quick_train());
    let test_pairs: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
    let r = classification_report(&model, &test_pairs);
    assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
    assert!(r.macro_auc >= 0.0 && r.macro_auc <= 1.0);
    assert!(r.eer >= 0.0 && r.eer <= 1.0);
    // Strong AUC should coincide with low EER on a learnable task.
    if r.macro_auc > 0.95 {
        assert!(r.eer < 0.2, "auc {} but eer {}", r.macro_auc, r.eer);
    }
    for p in &r.probabilities {
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
}
