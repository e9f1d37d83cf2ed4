//! E3 — Table II: overall gesture recognition and user identification.
//!
//! Six scenario columns (GesturePrint Office / Meeting Room, Pantomime
//! Office / Open, mHomeGes Home, mTransSee Home), all at the closest
//! anchor (1.2 m; 1 m for Pantomime). Reports GRA/GRF1/GRAUC for GesIDNet
//! and the baselines, and UIA/UIF1/UIAUC for GP-S (serialized, default)
//! and GP-P (parallel).

use gestureprint_core::{classification_report, train_classifier, ModelKind};
use gp_datasets::presets;
use gp_experiments::{
    build_dataset, default_train, evaluate_scenario, parse_scale, scale_name, split80, write_csv,
};
use gp_pipeline::LabeledSample;
use gp_radar::Environment;

fn main() {
    let scale = parse_scale();
    println!(
        "== Table II: overall performance (scale: {}) ==",
        scale_name(scale)
    );
    let specs = vec![
        presets::gestureprint(Environment::Office, scale),
        presets::gestureprint(Environment::MeetingRoom, scale),
        presets::pantomime(Environment::Office, scale),
        presets::pantomime(Environment::OpenSpace, scale),
        presets::mhomeges(scale, &[1.2]),
        presets::mtranssee(scale, &[1.2]),
    ];

    let mut rows = Vec::new();
    for spec in specs {
        let t0 = std::time::Instant::now();
        let ds = build_dataset(&spec);
        let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
        let (train, test) = split80(&samples, 0x7AB2);
        let cfg = default_train();
        let r = evaluate_scenario(&train, &test, spec.set.gesture_count(), spec.users, &cfg);

        // Baseline gesture recognition on the same split.
        let gr_train: Vec<(&LabeledSample, usize)> =
            train.iter().map(|s| (*s, s.gesture)).collect();
        let gr_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.gesture)).collect();
        let mut baseline_accs = Vec::new();
        for kind in [ModelKind::PointNet, ModelKind::ProfileCnn, ModelKind::Lstm] {
            let m = train_classifier(
                &gr_train,
                spec.set.gesture_count(),
                &gestureprint_core::TrainConfig {
                    model: kind,
                    ..cfg.clone()
                },
                None,
            );
            let rep = classification_report(&m, &gr_test);
            baseline_accs.push((kind.name(), rep.accuracy));
        }

        println!(
            "\n--- {} ({} train / {} test, {:.0}s) ---",
            spec.name,
            train.len(),
            test.len(),
            t0.elapsed().as_secs_f64()
        );
        println!(
            "GR  GesIDNet : GRA {:.4}  GRF1 {:.4}  GRAUC {:.4}",
            r.gr.accuracy, r.gr.macro_f1, r.gr.macro_auc
        );
        for (name, acc) in &baseline_accs {
            println!("GR  {name:<9}: GRA {acc:.4}");
        }
        println!(
            "UI  GP-S     : UIA {:.4}  UIF1 {:.4}  UIAUC {:.4}",
            r.ui_serialized_accuracy, r.ui_serialized_f1, r.ui_serialized_auc
        );
        println!(
            "UI  GP-P     : UIA {:.4}  UIF1 {:.4}  UIAUC {:.4}  EER {:.4}",
            r.ui_parallel.accuracy,
            r.ui_parallel.macro_f1,
            r.ui_parallel.macro_auc,
            r.ui_parallel.eer
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            spec.name,
            r.gr.accuracy,
            r.gr.macro_f1,
            r.gr.macro_auc,
            r.ui_serialized_accuracy,
            r.ui_serialized_f1,
            r.ui_serialized_auc,
            r.ui_parallel.accuracy,
            r.ui_parallel.macro_f1,
            r.ui_parallel.macro_auc,
            baseline_accs[0].1,
            baseline_accs[1].1,
            baseline_accs[2].1,
        ));
    }
    let p = write_csv(
        "tab02_overall.csv",
        "scenario,gra,grf1,grauc,uia_s,uif1_s,uiauc_s,uia_p,uif1_p,uiauc_p,gra_pointnet,gra_profilecnn,gra_lstm",
        &rows,
    )
    .expect("csv");
    println!("\ncsv: {}", p.display());
    println!("paper shape: GRA > 96%, UIA high in both modes across all scenarios.");
}
