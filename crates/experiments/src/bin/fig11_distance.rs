//! E5 — Fig. 11: impact of radar–user distance on GRA and UIA.
//!
//! mTransSee-style anchors from 1.2 m to 4.8 m (13 positions). The paper
//! observes reliable performance within 3.6 m and a graceful decline
//! beyond as CFAR misses thin out the clouds.

use gestureprint_core::classification_report;
use gp_datasets::presets;
use gp_experiments::{
    build_dataset, default_train, parse_scale, scale_name, split80, train_gr_ui, write_csv,
};
use gp_pipeline::LabeledSample;

fn main() {
    let scale = parse_scale();
    let distances = presets::mtranssee_distances();
    println!(
        "== Fig. 11: impact of distance (scale: {}) ==",
        scale_name(scale)
    );
    println!("{:>6} {:>8} {:>8} {:>9}", "d (m)", "GRA", "UIA", "samples");

    let mut rows = Vec::new();
    for &d in &distances {
        let spec = presets::mtranssee(scale, &[d]);
        let ds = build_dataset(&spec);
        let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
        if samples.len() < 20 {
            println!("{d:>6.1} {:>8} {:>8} {:>9}", "-", "-", samples.len());
            rows.push(format!("{d:.1},,,{}", samples.len()));
            continue;
        }
        let (train, test) = split80(&samples, 0xD157);
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
            "{d:>6.1} {:>8.3} {:>8.3} {:>9}",
            gr.accuracy,
            ui.accuracy,
            samples.len()
        );
        rows.push(format!(
            "{d:.1},{:.4},{:.4},{}",
            gr.accuracy,
            ui.accuracy,
            samples.len()
        ));
    }
    let p = write_csv("fig11_distance.csv", "distance_m,gra,uia,samples", &rows).expect("csv");
    println!("\ncsv: {}", p.display());
    println!("paper shape: ≥94% GRA / ≥92% UIA within 3.6 m, declining beyond 3.9 m");
    println!("             (86.9% GRA / 81.2% UIA at 4.8 m).");
}
