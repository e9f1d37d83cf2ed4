//! E9 — §VI-B3: robustness to articulation speed.
//!
//! Pantomime-style subset with deliberate slow / normal / fast execution
//! (speed scales 0.7 / 1.0 / 1.4); train on all speeds mixed, test held
//! out. Paper: 97.73% GRA and 98.81% UIA despite speed changes.

use gestureprint_core::classification_report;
use gp_datasets::presets;
use gp_experiments::{
    build_dataset, default_train, parse_scale, scale_name, split80, train_gr_ui, write_csv,
};
use gp_pipeline::LabeledSample;

fn main() {
    let scale = parse_scale();
    println!(
        "== §VI-B3: motion-speed robustness (scale: {}) ==",
        scale_name(scale)
    );
    let spec = presets::pantomime_speeds(scale);
    let ds = build_dataset(&spec);
    println!("{}", ds.summary());

    let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
    let (train, test) = split80(&samples, 0x5BEE);
    let (gr_model, ui_model) = train_gr_ui(
        &train,
        spec.set.gesture_count(),
        spec.users,
        &default_train(),
    );
    let gr_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.gesture)).collect();
    let gr = classification_report(&gr_model, &gr_test);
    let ui_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
    let ui = classification_report(&ui_model, &ui_test);

    println!(
        "\nmixed-speed test: GRA {:.4}  UIA {:.4}",
        gr.accuracy, ui.accuracy
    );

    // Per-speed breakdown.
    let mut rows = vec![format!("all,{:.4},{:.4}", gr.accuracy, ui.accuracy)];
    println!("{:>7} {:>8} {:>8}", "speed", "GRA", "UIA");
    for &speed in &[0.7, 1.0, 1.4] {
        let subset: Vec<&LabeledSample> = ds
            .samples
            .iter()
            .filter(|s| (s.speed_scale - speed).abs() < 1e-9)
            .map(|s| &s.labeled)
            .filter(|s| {
                // Only samples that ended up in the test partition.
                test.iter().any(|t| std::ptr::eq(*t, *s))
            })
            .collect();
        if subset.is_empty() {
            continue;
        }
        let gr_sub: Vec<(&LabeledSample, usize)> = subset.iter().map(|s| (*s, s.gesture)).collect();
        let ui_sub: Vec<(&LabeledSample, usize)> = subset.iter().map(|s| (*s, s.user)).collect();
        let g = classification_report(&gr_model, &gr_sub).accuracy;
        let u = classification_report(&ui_model, &ui_sub).accuracy;
        println!("{speed:>7.1} {g:>8.3} {u:>8.3}");
        rows.push(format!("{speed:.1},{g:.4},{u:.4}"));
    }
    let p = write_csv("exp_speed.csv", "speed,gra,uia", &rows).expect("csv");
    println!("\ncsv: {}", p.display());
    println!(
        "paper shape: accuracy holds across deliberate speed changes (97.7% GRA / 98.8% UIA)."
    );
}
