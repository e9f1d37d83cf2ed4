//! E8 — Fig. 14: ablation of data augmentation and the attention-based
//! multilevel feature fusion, on both tasks.
//!
//! Arms: full GesturePrint, w/o data augmentation, w/o feature fusion,
//! plus an extra arm the paper does not report — noise canceling off —
//! to quantify the preprocessing contribution (DESIGN.md §4).

use gestureprint_core::{classification_report, ModelKind, TrainConfig};
use gp_datasets::{build, presets, BuildOptions};
use gp_experiments::{default_train, parse_scale, scale_name, split80, train_gr_ui, write_csv};
use gp_pipeline::LabeledSample;
use gp_radar::Environment;

fn main() {
    let scale = parse_scale();
    println!("== Fig. 14: ablation (scale: {}) ==", scale_name(scale));
    let scenarios = vec![
        ("Office", presets::gestureprint(Environment::Office, scale)),
        (
            "Meeting Room",
            presets::gestureprint(Environment::MeetingRoom, scale),
        ),
        ("Home", presets::mtranssee(scale, &[1.2])),
    ];

    let mut rows = Vec::new();
    for (label, spec) in scenarios {
        let ds = build(&spec, &BuildOptions::default());
        let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
        let (train, test) = split80(&samples, 0xAB1A);
        println!(
            "\n--- {label} ({} train / {} test) ---",
            train.len(),
            test.len()
        );
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8}",
            "arm", "GRA", "GRF1", "UIA", "UIF1"
        );

        let arms: Vec<(&str, TrainConfig)> = vec![
            ("GesturePrint", default_train()),
            (
                "w/o DataAugmentation",
                TrainConfig {
                    augment: None,
                    ..default_train()
                },
            ),
            (
                "w/o FeatureFusion",
                TrainConfig {
                    model: ModelKind::GesIdNetNoFusion,
                    ..default_train()
                },
            ),
        ];
        for (arm, cfg) in arms {
            let (gr_model, ui_model) =
                train_gr_ui(&train, spec.set.gesture_count(), spec.users, &cfg);
            let gr_test: Vec<(&LabeledSample, usize)> =
                test.iter().map(|s| (*s, s.gesture)).collect();
            let gr = classification_report(&gr_model, &gr_test);
            let ui_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
            let ui = classification_report(&ui_model, &ui_test);
            println!(
                "{arm:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                gr.accuracy, gr.macro_f1, ui.accuracy, ui.macro_f1
            );
            rows.push(format!(
                "{label},{arm},{:.4},{:.4},{:.4},{:.4}",
                gr.accuracy, gr.macro_f1, ui.accuracy, ui.macro_f1
            ));
        }
    }
    let p = write_csv(
        "fig14_ablation.csv",
        "scenario,arm,gra,grf1,uia,uif1",
        &rows,
    )
    .expect("csv");
    println!("\ncsv: {}", p.display());
    println!("paper shape: both components help; fusion matters most with many users.");
}
