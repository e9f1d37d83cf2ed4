//! E12 — §VII-2: cross-environment generalisation.
//!
//! Train on Office, test on Meeting Room (and vice versa) with the same
//! 17 participants. Paper: >90% GRA and ≈75% UIA across environments.

use gestureprint_core::classification_report;
use gp_datasets::presets;
use gp_experiments::{
    build_dataset, default_train, parse_scale, scale_name, train_gr_ui, write_csv,
};
use gp_pipeline::LabeledSample;
use gp_radar::Environment;

fn main() {
    let scale = parse_scale();
    println!(
        "== §VII-2: cross-environment (scale: {}) ==",
        scale_name(scale)
    );
    let office = build_dataset(&presets::gestureprint(Environment::Office, scale));
    let meeting = build_dataset(&presets::gestureprint(Environment::MeetingRoom, scale));
    let gestures = office.spec.set.gesture_count();
    let users = office.spec.users;

    let mut rows = Vec::new();
    for (train_ds, test_ds, label) in [
        (&office, &meeting, "Office → Meeting Room"),
        (&meeting, &office, "Meeting Room → Office"),
    ] {
        let train: Vec<&LabeledSample> = train_ds.samples.iter().map(|s| &s.labeled).collect();
        let test: Vec<&LabeledSample> = test_ds.samples.iter().map(|s| &s.labeled).collect();
        let (gr_model, ui_model) = train_gr_ui(&train, gestures, users, &default_train());
        let gr_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.gesture)).collect();
        let gra = classification_report(&gr_model, &gr_test).accuracy;
        let ui_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
        let uia = classification_report(&ui_model, &ui_test).accuracy;

        println!("{label}: GRA {gra:.4}  UIA {uia:.4}");
        rows.push(format!("{label},{gra:.4},{uia:.4}"));
    }
    let p = write_csv("exp_cross_env.csv", "direction,gra,uia", &rows).expect("csv");
    println!("csv: {}", p.display());
    println!("paper shape: GRA stays >90%; UIA drops to ≈75% across environments.");
}
