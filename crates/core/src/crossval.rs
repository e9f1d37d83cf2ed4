//! K-fold cross-validation — the paper's evaluation protocol
//! ("the split ratio of the training set and the test set is usually 8:2
//! with 5-fold cross-validation", §V).

use crate::report::{classification_report, ClassificationReport};
use crate::train::{train_classifier, TrainConfig};
use gp_eval::split::kfold_indices;
use gp_pipeline::LabeledSample;

/// Runs k-fold cross-validation of one classifier.
///
/// `label_of` selects the task (gesture or user label). Returns one
/// [`ClassificationReport`] per fold; average the `accuracy` fields for
/// the paper's headline numbers.
///
/// # Panics
///
/// Panics if `k` is 0 or larger than the sample count.
pub fn kfold_reports(
    samples: &[&LabeledSample],
    classes: usize,
    label_of: &dyn Fn(&LabeledSample) -> usize,
    k: usize,
    config: &TrainConfig,
) -> Vec<ClassificationReport> {
    let folds = kfold_indices(samples.len(), k, config.seed ^ 0xF01D);
    let mut reports = Vec::with_capacity(k);
    for test_fold in 0..k {
        let mut train_pairs = Vec::new();
        let mut test_pairs = Vec::new();
        for (fold_idx, fold) in folds.iter().enumerate() {
            for &i in fold {
                let pair = (samples[i], label_of(samples[i]));
                if fold_idx == test_fold {
                    test_pairs.push(pair);
                } else {
                    train_pairs.push(pair);
                }
            }
        }
        let model = train_classifier(&train_pairs, classes, config, None);
        reports.push(classification_report(&model, &test_pairs));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::ModelKind;
    use gp_models::features::FeatureConfig;
    use gp_pointcloud::{Point, PointCloud, Vec3};

    fn samples() -> Vec<LabeledSample> {
        (0..12)
            .map(|i| {
                let user = i % 2;
                let shift = if user == 0 { -0.35 } else { 0.35 };
                let cloud: PointCloud = (0..20)
                    .map(|k| {
                        let t = k as f64 * 0.31 + i as f64 * 0.07;
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
            })
            .collect()
    }

    #[test]
    fn kfold_produces_k_reports_covering_all_samples() {
        let data = samples();
        let refs: Vec<&LabeledSample> = data.iter().collect();
        let cfg = TrainConfig {
            model: ModelKind::PointNet,
            epochs: 30,
            augment: None,
            feature: FeatureConfig {
                num_points: 20,
                ..FeatureConfig::default()
            },
            ..TrainConfig::default()
        };
        let reports = kfold_reports(&refs, 2, &|s| s.user, 3, &cfg);
        assert_eq!(reports.len(), 3);
        let total_test: usize = reports.iter().map(|r| r.labels.len()).sum();
        assert_eq!(total_test, data.len(), "folds must partition the data");
        let mean = reports.iter().map(|r| r.accuracy).sum::<f64>() / reports.len() as f64;
        assert!(
            mean > 0.7,
            "learnable task should cross-validate well: {mean}"
        );
    }
}
