//! E4 — Fig. 10: user-identification ROC curves and EER per dataset.
//!
//! Trains the parallel-mode identifier on each scenario and pools
//! one-vs-rest verification scores into a ROC curve + EER (paper reports
//! an average EER of 0.75%, none exceeding 1.6%).

use gestureprint_core::{classification_report, train_classifier};
use gp_codec::{Encode, Value};
use gp_datasets::presets;
use gp_eval::roc::{one_vs_rest_scores, RocEerSummary};
use gp_experiments::{
    build_dataset, default_train, parse_scale, scale_name, split80, write_csv,
    write_report_artifact,
};
use gp_pipeline::LabeledSample;
use gp_radar::Environment;

fn main() {
    let scale = parse_scale();
    println!(
        "== Fig. 10: ROC / EER for user identification (scale: {}) ==",
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
    let mut summaries = Vec::new();
    for spec in specs {
        let ds = build_dataset(&spec);
        let samples: Vec<&LabeledSample> = ds.samples.iter().map(|s| &s.labeled).collect();
        let (train, test) = split80(&samples, 0xF1610);
        let ui_train: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.user)).collect();
        let model = train_classifier(&ui_train, spec.users, &default_train(), None);
        let ui_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
        let report = classification_report(&model, &ui_test);
        let (scores, positives) =
            one_vs_rest_scores(&report.probabilities, &report.labels, spec.users);
        let summary = RocEerSummary::from_scores(spec.name.clone(), &scores, &positives);
        println!(
            "{:<28} EER {:.3}%  ({} ROC points)",
            spec.name,
            summary.eer * 100.0,
            summary.points.len()
        );
        for pt in summary
            .points
            .iter()
            .step_by((summary.points.len() / 60).max(1))
        {
            rows.push(format!("{},{:.5},{:.5}", spec.name, pt.fpr, pt.tpr));
        }
        summaries.push(summary);
    }
    let avg = summaries.iter().map(|s| s.eer).sum::<f64>() / summaries.len() as f64;
    println!(
        "\naverage EER: {:.3}% (paper: 0.75%, max 1.58%)",
        avg * 100.0
    );
    let p = write_csv("fig10_roc.csv", "scenario,fpr,tpr", &rows).expect("csv");
    println!("csv: {}", p.display());
    let payload = Value::record([
        ("figure", Value::Str("fig10_roc_eer".into())),
        ("scale", scale.encode()),
        ("average_eer", avg.encode()),
        ("scenarios", summaries.encode()),
    ]);
    let p = write_report_artifact("fig10_roc_eer.json", payload).expect("report artifact");
    println!("report artifact: {}", p.display());
}
