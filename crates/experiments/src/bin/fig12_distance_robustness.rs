//! E6 — Fig. 12: distance robustness with and without data augmentation.
//!
//! mHomeGes-style anchors 1.35 / 1.50 / 1.65 m: train at one anchor, test
//! at every anchor, with augmentation on and off. The paper finds DA
//! recovers the accuracy lost at unseen distances.

use gestureprint_core::{classification_report, TrainConfig};
use gp_datasets::presets;
use gp_experiments::{
    build_dataset, default_train, parse_scale, scale_name, train_gr_ui, write_csv,
};
use gp_pipeline::LabeledSample;

const ANCHORS: [f64; 3] = [1.35, 1.5, 1.65];

fn main() {
    let scale = parse_scale();
    println!(
        "== Fig. 12: distance robustness (scale: {}) ==",
        scale_name(scale)
    );
    let spec = presets::mhomeges(scale, &ANCHORS);
    let ds = build_dataset(&spec);
    println!("{}", ds.summary());

    let mut rows = Vec::new();
    for with_da in [true, false] {
        let tag = if with_da { "with DA" } else { "w/o DA" };
        println!("\n--- {tag} ---");
        println!(
            "{:>10} {:>10} {:>8} {:>8}",
            "train (m)", "test (m)", "GRA", "UIA"
        );
        for &train_d in &ANCHORS {
            // Train split: samples at the training anchor.
            let train: Vec<&LabeledSample> = ds
                .at_distance(train_d)
                .into_iter()
                .map(|s| &s.labeled)
                .collect();
            let mut cfg = TrainConfig { ..default_train() };
            if !with_da {
                cfg.augment = None;
            }
            let (gr_model, ui_model) =
                train_gr_ui(&train, spec.set.gesture_count(), spec.users, &cfg);

            for &test_d in &ANCHORS {
                if (test_d - train_d).abs() < 1e-9 {
                    continue; // unseen-distance cells only, as in Fig. 12
                }
                let test: Vec<&LabeledSample> = ds
                    .at_distance(test_d)
                    .into_iter()
                    .map(|s| &s.labeled)
                    .collect();
                let gr_test: Vec<(&LabeledSample, usize)> =
                    test.iter().map(|s| (*s, s.gesture)).collect();
                let ui_test: Vec<(&LabeledSample, usize)> =
                    test.iter().map(|s| (*s, s.user)).collect();
                let gra = classification_report(&gr_model, &gr_test).accuracy;
                let uia = classification_report(&ui_model, &ui_test).accuracy;
                println!("{train_d:>10.2} {test_d:>10.2} {gra:>8.3} {uia:>8.3}");
                rows.push(format!("{tag},{train_d:.2},{test_d:.2},{gra:.4},{uia:.4}"));
            }
        }
    }
    let p = write_csv("fig12_robustness.csv", "arm,train_m,test_m,gra,uia", &rows).expect("csv");
    println!("\ncsv: {}", p.display());
    println!("paper shape: with DA, unseen-distance accuracy stays high; without DA it drops.");
}
