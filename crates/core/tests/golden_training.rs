//! Golden training fixture: what training produces for every
//! architecture, frozen bit for bit in `fixtures/training_v1.json`.
//!
//! Each of the six `ModelKind::ALL` trains one 2-class classifier on
//! user labels in milliseconds: the point kinds on
//! `gp_testkit::toy_labeled_samples(2)` with the default augmentation
//! (so every sample also trains as jittered copies), RdNet on
//! `gp_testkit::toy_rd_samples(2)` from `quick_rd_train()`. All run 3
//! epochs of batch size 3, so every epoch ends on a short tail chunk.
//! Per model the fixture pins a 64-bit FNV-1a hash of the binary model
//! artifact, which covers every trained weight, and the
//! `probabilities_batch` rows of four probes as f64 bit patterns.
//!
//! A failure means initialisation, augmentation, encoding, the shuffle,
//! a forward or backward pass, the optimizer, or the artifact encoding
//! changed numerically. If that is intended, regenerate the fixture and
//! say so in the change log:
//!
//! ```sh
//! cargo test -p gestureprint-core --test golden_training -- --ignored
//! ```

use gestureprint_core::{train_classifier, ArtifactFormat, ModelKind, TrainConfig, TrainedModel};
use gp_codec::Value;
use gp_models::features::FeatureConfig;
use gp_pipeline::{AugmenterConfig, LabeledSample};
use gp_rd::RdLabeledSample;
use std::path::PathBuf;

const FIXTURE: &str = "training_v1.json";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(FIXTURE)
}

fn config(kind: ModelKind) -> TrainConfig {
    let schedule = TrainConfig {
        epochs: 3,
        batch_size: 3,
        ..TrainConfig::default()
    };
    if kind.is_rd() {
        TrainConfig {
            epochs: schedule.epochs,
            batch_size: schedule.batch_size,
            ..gp_testkit::quick_rd_train()
        }
    } else {
        TrainConfig {
            model: kind,
            augment: Some(AugmenterConfig::default()),
            feature: FeatureConfig {
                num_points: 24,
                ..FeatureConfig::default()
            },
            ..schedule
        }
    }
}

/// Trains `kind` on user labels of its backend's toy cohort.
fn train(kind: ModelKind) -> TrainedModel {
    if kind.is_rd() {
        let samples = gp_testkit::toy_rd_samples(2);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        train_classifier(&pairs, 2, &config(kind), None)
    } else {
        let samples = gp_testkit::toy_labeled_samples(2);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        train_classifier(&pairs, 2, &config(kind), None)
    }
}

/// Three toy samples (both gestures, both users, training and held-out
/// repetitions) plus one real capture, through one batched call.
fn probe_rows(model: &TrainedModel) -> Vec<Vec<f64>> {
    if model.kind().is_rd() {
        let mut probes: Vec<RdLabeledSample> = gp_testkit::toy_rd_samples(3)
            .into_iter()
            .step_by(4)
            .collect();
        probes.push(gp_testkit::rd_sample(0, gp_testkit::CANONICAL_GESTURE, 3));
        let refs: Vec<&RdLabeledSample> = probes.iter().collect();
        model.probabilities_batch(&refs)
    } else {
        let mut probes: Vec<LabeledSample> = gp_testkit::toy_labeled_samples(3)
            .into_iter()
            .step_by(4)
            .collect();
        probes.push(gp_testkit::sample_fixture());
        let refs: Vec<&LabeledSample> = probes.iter().collect();
        model.probabilities_batch(&refs)
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the fixture pins for one architecture.
#[derive(Debug, PartialEq)]
struct Expected {
    kind: String,
    artifact_fnv64: String,
    probes: Vec<Vec<String>>,
}

fn expected(kind: ModelKind) -> Expected {
    let model = train(kind);
    let artifact = model.save_artifact_with(ArtifactFormat::Binary);
    Expected {
        kind: kind.tag().to_owned(),
        artifact_fnv64: format!("{:016x}", fnv64(&artifact)),
        probes: probe_rows(&model)
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| format!("{:016x}", v.to_bits()))
                    .collect()
            })
            .collect(),
    }
}

fn load() -> Vec<Expected> {
    let text = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("missing golden fixture {FIXTURE}: {e}"));
    let root = gp_codec::from_json(&text).expect("fixture parses");
    root.field("models")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|m| Expected {
            kind: m.get("kind").unwrap(),
            artifact_fnv64: m.get("artifact_fnv64").unwrap(),
            probes: m.get("probes").unwrap(),
        })
        .collect()
}

#[test]
fn training_matches_golden_fixture() {
    let fixture = load();
    assert_eq!(
        fixture.iter().map(|e| e.kind.as_str()).collect::<Vec<_>>(),
        ModelKind::ALL.map(ModelKind::tag)
    );
    for (kind, want) in ModelKind::ALL.into_iter().zip(&fixture) {
        let got = expected(kind);
        assert_eq!(got.probes, want.probes, "{kind:?}: probe probabilities");
        assert_eq!(
            got.artifact_fnv64, want.artifact_fnv64,
            "{kind:?}: trained weights"
        );
    }
}

/// Rewrites the fixture from the current training path. Run only for a
/// deliberate numerical change (see the module docs):
///
/// ```sh
/// cargo test -p gestureprint-core --test golden_training -- --ignored
/// ```
#[test]
#[ignore = "regenerates the committed golden training fixture in place"]
fn regenerate_golden_training() {
    let models = ModelKind::ALL
        .into_iter()
        .map(|kind| {
            let e = expected(kind);
            let seq = |v: Vec<String>| Value::Seq(v.into_iter().map(Value::Str).collect());
            let line = Value::record([
                ("kind", Value::Str(e.kind)),
                ("artifact_fnv64", Value::Str(e.artifact_fnv64)),
                (
                    "probes",
                    Value::Seq(e.probes.into_iter().map(seq).collect()),
                ),
            ]);
            gp_codec::to_json(&line).unwrap()
        })
        .collect::<Vec<_>>();
    let text = format!("{{\"models\": [\n{}\n]}}\n", models.join(",\n"));
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), text).unwrap();
}
