//! Classification reports matching the paper's metrics (§VI-A3).

use crate::train::{argmax, TrainedModel};
use gp_eval::metrics::{accuracy, macro_auc, macro_f1};
use gp_eval::roc::{eer, one_vs_rest_scores};
use gp_pipeline::LabeledSample;

/// Accuracy / macro-F1 / macro-AUC over a test set, plus the raw
/// probability vectors for downstream ROC/EER analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationReport {
    /// Plain accuracy (the paper's GRA / UIA).
    pub accuracy: f64,
    /// Macro-averaged F1 (GRF1 / UIF1).
    pub macro_f1: f64,
    /// Macro one-vs-rest AUC (GRAUC / UIAUC).
    pub macro_auc: f64,
    /// Equal error rate from pooled one-vs-rest verification scores.
    pub eer: f64,
    /// Per-sample class probabilities.
    pub probabilities: Vec<Vec<f64>>,
    /// Per-sample predictions.
    pub predictions: Vec<usize>,
    /// Ground-truth labels.
    pub labels: Vec<usize>,
}

impl gp_codec::Encode for ClassificationReport {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("accuracy", self.accuracy.encode()),
            ("macro_f1", self.macro_f1.encode()),
            ("macro_auc", self.macro_auc.encode()),
            ("eer", self.eer.encode()),
            ("probabilities", self.probabilities.encode()),
            ("predictions", self.predictions.encode()),
            ("labels", self.labels.encode()),
        ])
    }
}

impl gp_codec::Decode for ClassificationReport {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(ClassificationReport {
            accuracy: value.get("accuracy")?,
            macro_f1: value.get("macro_f1")?,
            macro_auc: value.get("macro_auc")?,
            eer: value.get("eer")?,
            probabilities: value.get("probabilities")?,
            predictions: value.get("predictions")?,
            labels: value.get("labels")?,
        })
    }
}

/// Evaluates `model` on `(sample, label)` pairs.
pub fn classification_report(
    model: &TrainedModel,
    test: &[(&LabeledSample, usize)],
) -> ClassificationReport {
    let mut probabilities = Vec::with_capacity(test.len());
    let mut predictions = Vec::with_capacity(test.len());
    let mut labels = Vec::with_capacity(test.len());
    // One sample per call: the batched GesIDNet forward dedupes its
    // inputs with an O(B²) scan, so a test set must not be one batch.
    for (sample, label) in test {
        let p = model.probabilities_batch(&[*sample]).remove(0);
        predictions.push(argmax(&p));
        probabilities.push(p);
        labels.push(*label);
    }
    let classes = model.classes();
    let (scores, positives) = one_vs_rest_scores(&probabilities, &labels, classes);
    ClassificationReport {
        accuracy: accuracy(&predictions, &labels),
        macro_f1: macro_f1(&predictions, &labels, classes),
        macro_auc: macro_auc(&probabilities, &labels, classes),
        eer: eer(&scores, &positives),
        probabilities,
        predictions,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_classifier, ModelKind, TrainConfig};
    use gp_models::features::FeatureConfig;
    use gp_pointcloud::{Point, PointCloud, Vec3};

    fn sample(user: usize, rep: usize) -> LabeledSample {
        let shift = if user == 0 { -0.35 } else { 0.35 };
        let cloud: PointCloud = (0..20)
            .map(|i| {
                let t = i as f64 * 0.33 + rep as f64 * 0.09;
                Point::new(
                    Vec3::new(shift + t.sin() * 0.2, 1.2, 1.0 + t.cos() * 0.2),
                    (t * 1.2).sin(),
                    10.0,
                )
            })
            .collect();
        LabeledSample {
            cloud: cloud.clone(),
            frame_clouds: vec![cloud; 3],
            duration_frames: 18,
            gesture: 0,
            user,
        }
    }

    #[test]
    fn report_on_learnable_task_is_strong() {
        let train: Vec<LabeledSample> = (0..10).map(|r| sample(r % 2, r)).collect();
        let test: Vec<LabeledSample> = (10..16).map(|r| sample(r % 2, r)).collect();
        let pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(
            &pairs,
            2,
            &TrainConfig {
                model: ModelKind::PointNet,
                epochs: 20,
                augment: None,
                feature: FeatureConfig {
                    num_points: 20,
                    ..FeatureConfig::default()
                },
                ..TrainConfig::default()
            },
            None,
        );
        let test_pairs: Vec<(&LabeledSample, usize)> = test.iter().map(|s| (s, s.user)).collect();
        let report = classification_report(&model, &test_pairs);
        assert!(report.accuracy >= 0.8, "accuracy {}", report.accuracy);
        assert!(report.macro_auc >= 0.8, "auc {}", report.macro_auc);
        assert!(report.eer <= 0.3, "eer {}", report.eer);
        assert_eq!(report.probabilities.len(), 6);
        assert_eq!(report.predictions.len(), 6);
    }

    #[test]
    fn report_metrics_consistent() {
        let train: Vec<LabeledSample> = (0..8).map(|r| sample(r % 2, r)).collect();
        let pairs: Vec<(&LabeledSample, usize)> = train.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(
            &pairs,
            2,
            &TrainConfig {
                model: ModelKind::PointNet,
                epochs: 5,
                augment: None,
                feature: FeatureConfig {
                    num_points: 20,
                    ..FeatureConfig::default()
                },
                ..TrainConfig::default()
            },
            None,
        );
        let report = classification_report(&model, &pairs);
        // Accuracy must equal fraction of matching predictions.
        let manual = report
            .predictions
            .iter()
            .zip(&report.labels)
            .filter(|(p, l)| p == l)
            .count() as f64
            / report.labels.len() as f64;
        assert!((report.accuracy - manual).abs() < 1e-12);
    }
}
