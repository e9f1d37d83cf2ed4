//! Shared harness for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index). They accept `--scale paper`
//! to run at published cohort sizes; the default `small` scale finishes
//! on a laptop-class CPU and preserves the result *shapes*.

#![forbid(unsafe_code)]

use gestureprint_core::{
    classification_report, train_classifier, ClassificationReport, GesturePrint,
    GesturePrintConfig, IdentificationMode, TrainConfig, TrainedModel,
};
use gp_datasets::{build, BuildOptions, Dataset, DatasetSpec, Scale};
use gp_pipeline::LabeledSample;
use std::io::Write;

/// Parses `--scale small|paper` from the command line (default small).
pub fn parse_scale() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            match args.get(i + 1).map(String::as_str) {
                Some("paper") => return Scale::Paper,
                Some("small") | None => return Scale::Small,
                Some(other) => {
                    eprintln!("unknown scale '{other}', using small");
                    return Scale::Small;
                }
            }
        }
    }
    Scale::Small
}

/// Human-readable scale tag for report headers.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Small => "small",
        Scale::Custom { .. } => "custom",
    }
}

/// The experiments' default training configuration: paper preprocessing,
/// budget-conscious epochs.
pub fn default_train() -> TrainConfig {
    TrainConfig {
        epochs: 14,
        ..TrainConfig::default()
    }
}

/// Builds a dataset with default options.
pub fn build_dataset(spec: &DatasetSpec) -> Dataset {
    build(spec, &BuildOptions::default())
}

/// An 80/20 split of sample references.
pub fn split80<'a>(
    samples: &[&'a LabeledSample],
    seed: u64,
) -> (Vec<&'a LabeledSample>, Vec<&'a LabeledSample>) {
    let (tr, te) = gp_eval::split::train_test_split(samples.len(), 0.2, seed);
    (
        tr.iter().map(|&i| samples[i]).collect(),
        te.iter().map(|&i| samples[i]).collect(),
    )
}

/// Trains the two classifiers of one experiment arm on one training
/// set: gesture recognition on the gesture labels, then (parallel-mode)
/// user identification on the user labels. The paper trains one
/// architecture for both tasks; the label picks the task.
pub fn train_gr_ui(
    train: &[&LabeledSample],
    gestures: usize,
    users: usize,
    cfg: &TrainConfig,
) -> (TrainedModel, TrainedModel) {
    let gr_pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.gesture)).collect();
    let gr_model = train_classifier(&gr_pairs, gestures, cfg, None);
    let ui_pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.user)).collect();
    let ui_model = train_classifier(&ui_pairs, users, cfg, None);
    (gr_model, ui_model)
}

/// Results of evaluating both tasks on one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Gesture recognition report.
    pub gr: ClassificationReport,
    /// User identification report for the *parallel* mode identifier.
    pub ui_parallel: ClassificationReport,
    /// Serialized-mode UIA (average per-gesture accuracy, paper §VI-A3).
    pub ui_serialized_accuracy: f64,
    /// Serialized-mode macro F1 across users.
    pub ui_serialized_f1: f64,
    /// Serialized-mode macro AUC.
    pub ui_serialized_auc: f64,
}

/// Trains and evaluates the full GesturePrint system (GR + both UI
/// modes) on one dataset scenario.
pub fn evaluate_scenario(
    train: &[&LabeledSample],
    test: &[&LabeledSample],
    gestures: usize,
    users: usize,
    train_cfg: &TrainConfig,
) -> ScenarioResult {
    // Gesture model + serialized identifiers in one system.
    let system = GesturePrint::train(
        train,
        gestures,
        users,
        &GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: train_cfg.clone(),
            threads: 0,
        },
    );
    let gr_pairs: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.gesture)).collect();
    let gr = classification_report(system.gesture_model(), &gr_pairs);

    // Serialized UIA: run full inference, group accuracy by true gesture,
    // then average over gestures (paper definition).
    let mut per_gesture_hits: Vec<(usize, usize)> = vec![(0, 0); gestures];
    let mut ser_preds = Vec::with_capacity(test.len());
    let mut ser_labels = Vec::with_capacity(test.len());
    let mut ser_probs = Vec::with_capacity(test.len());
    for s in test {
        let out = system.infer(s);
        let cell = &mut per_gesture_hits[s.gesture];
        cell.1 += 1;
        if out.user == s.user {
            cell.0 += 1;
        }
        ser_preds.push(out.user);
        ser_labels.push(s.user);
        ser_probs.push(out.user_probs.clone());
    }
    let mut acc_sum = 0.0;
    let mut gcount = 0;
    for (hits, total) in per_gesture_hits {
        if total > 0 {
            acc_sum += hits as f64 / total as f64;
            gcount += 1;
        }
    }
    let ui_serialized_accuracy = if gcount > 0 {
        acc_sum / gcount as f64
    } else {
        0.0
    };
    let ui_serialized_f1 = gp_eval::metrics::macro_f1(&ser_preds, &ser_labels, users);
    let ui_serialized_auc = gp_eval::metrics::macro_auc(&ser_probs, &ser_labels, users);

    // Parallel-mode identifier.
    let ui_pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (*s, s.user)).collect();
    let ui_model = train_classifier(&ui_pairs, users, train_cfg, None);
    let ui_test: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (*s, s.user)).collect();
    let ui_parallel = classification_report(&ui_model, &ui_test);

    ScenarioResult {
        gr,
        ui_parallel,
        ui_serialized_accuracy,
        ui_serialized_f1,
        ui_serialized_auc,
    }
}

/// Writes a CSV file under `results/`, creating the directory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(path)
}

/// Writes a figure/table result as a `gestureprint.report` artifact
/// under `results/`, alongside the CSV the binary also emits — the CSV
/// stays for plotting, the artifact makes runs machine-comparable
/// (typed payload, schema version, producing revision).
pub fn write_report_artifact(
    name: &str,
    payload: gp_codec::Value,
) -> std::io::Result<std::path::PathBuf> {
    use gestureprint_core::artifact::{kinds, Artifact};
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, Artifact::new(kinds::REPORT, payload).to_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names() {
        assert_eq!(scale_name(Scale::Paper), "paper");
        assert_eq!(scale_name(Scale::Small), "small");
    }

    #[test]
    fn csv_writes() {
        let p = write_csv("test_tmp.csv", "a,b", &["1,2".into()]).unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.contains("a,b"));
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn report_artifact_writes_and_reloads() {
        use gestureprint_core::artifact::{kinds, Artifact};
        use gp_codec::{Encode, Value};
        let payload = Value::record([
            ("figure", "test".encode()),
            ("rows", vec![1i64, 2].encode()),
        ]);
        let p = write_report_artifact("test_tmp_report.json", payload.clone()).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        assert!(artifact.expect_kind(kinds::REPORT).is_ok());
        assert_eq!(artifact.payload, payload);
        std::fs::remove_file(p).unwrap();
    }
}
