//! Accuracy, macro-F1, macro one-vs-rest AUC, confusion matrices.

/// Fraction of predictions equal to the label.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / predictions.len() as f64
}

/// A `classes × classes` confusion matrix; rows are true labels, columns
/// predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count of samples with true label `t` predicted as `p`.
    pub fn at(&self, t: usize, p: usize) -> usize {
        self.counts[t * self.classes + p]
    }

    /// Row of true label `t`.
    pub fn row(&self, t: usize) -> &[usize] {
        &self.counts[t * self.classes..(t + 1) * self.classes]
    }

    /// Per-class precision, recall and F1.
    pub fn per_class_prf(&self) -> Vec<(f64, f64, f64)> {
        (0..self.classes)
            .map(|c| {
                let tp = self.at(c, c) as f64;
                let fp: f64 = (0..self.classes)
                    .filter(|&t| t != c)
                    .map(|t| self.at(t, c) as f64)
                    .sum();
                let fn_: f64 = (0..self.classes)
                    .filter(|&p| p != c)
                    .map(|p| self.at(c, p) as f64)
                    .sum();
                let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
                let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
                let f1 = if precision + recall > 0.0 {
                    2.0 * precision * recall / (precision + recall)
                } else {
                    0.0
                };
                (precision, recall, f1)
            })
            .collect()
    }
}

/// Builds a confusion matrix.
///
/// # Panics
///
/// Panics on length mismatch or out-of-range labels.
pub fn confusion_matrix(
    predictions: &[usize],
    labels: &[usize],
    classes: usize,
) -> ConfusionMatrix {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    let mut counts = vec![0usize; classes * classes];
    for (&p, &t) in predictions.iter().zip(labels) {
        assert!(p < classes && t < classes, "label out of range");
        counts[t * classes + p] += 1;
    }
    ConfusionMatrix { classes, counts }
}

/// Macro-averaged F1 over classes that appear in the labels.
pub fn macro_f1(predictions: &[usize], labels: &[usize], classes: usize) -> f64 {
    let cm = confusion_matrix(predictions, labels, classes);
    let present: Vec<usize> = (0..classes).filter(|c| labels.contains(c)).collect();
    if present.is_empty() {
        return 0.0;
    }
    let prf = cm.per_class_prf();
    present.iter().map(|&c| prf[c].2).sum::<f64>() / present.len() as f64
}

/// One-vs-rest ROC AUC for one class given per-sample scores.
pub fn binary_auc(scores: &[f64], positives: &[bool]) -> f64 {
    assert_eq!(scores.len(), positives.len(), "length mismatch");
    let pos = positives.iter().filter(|p| **p).count();
    let neg = positives.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    // Rank-sum (Mann–Whitney) formulation with tie handling.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = rank;
        }
        i = j + 1;
    }
    let rank_sum: f64 = positives
        .iter()
        .zip(&ranks)
        .filter(|(p, _)| **p)
        .map(|(_, r)| r)
        .sum();
    (rank_sum - (pos * (pos + 1)) as f64 / 2.0) / (pos * neg) as f64
}

/// Macro one-vs-rest AUC from per-sample class-probability vectors.
///
/// Classes absent from the labels are skipped.
pub fn macro_auc(probabilities: &[Vec<f64>], labels: &[usize], classes: usize) -> f64 {
    assert_eq!(probabilities.len(), labels.len(), "length mismatch");
    let mut total = 0.0;
    let mut counted = 0;
    for c in 0..classes {
        let positives: Vec<bool> = labels.iter().map(|&l| l == c).collect();
        if !positives.iter().any(|p| *p) || positives.iter().all(|p| *p) {
            continue;
        }
        let scores: Vec<f64> = probabilities.iter().map(|p| p[c]).collect();
        total += binary_auc(&scores, &positives);
        counted += 1;
    }
    if counted == 0 {
        0.5
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 0, 0], &[0, 1, 2]), 1.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_counts() {
        let cm = confusion_matrix(&[0, 1, 1, 2], &[0, 1, 2, 2], 3);
        assert_eq!(cm.at(0, 0), 1);
        assert_eq!(cm.at(2, 1), 1);
        assert_eq!(cm.at(2, 2), 1);
        assert_eq!(cm.row(1), &[0, 1, 0]);
    }

    #[test]
    fn perfect_f1() {
        assert!((macro_f1(&[0, 1, 0, 1], &[0, 1, 0, 1], 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f1_penalises_one_sided_errors() {
        // Class 1 is never predicted.
        let f1 = macro_f1(&[0, 0, 0, 0], &[0, 0, 1, 1], 2);
        assert!(f1 < 0.5, "f1 = {f1}");
    }

    #[test]
    fn macro_f1_ignores_absent_classes() {
        let full = macro_f1(&[0, 1], &[0, 1], 5);
        assert!(
            (full - 1.0).abs() < 1e-12,
            "absent classes shouldn't dilute"
        );
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let pos = [false, false, true, true];
        assert!((binary_auc(&scores, &pos) - 1.0).abs() < 1e-12);
        let inv = [true, true, false, false];
        assert!(binary_auc(&scores, &inv) < 1e-12);
    }

    #[test]
    fn auc_handles_ties() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let pos = [true, false, true, false];
        assert!((binary_auc(&scores, &pos) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_random_is_half() {
        // Interleaved scores → 0.5.
        let scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        let pos = [true, false, true, false, true, false];
        let auc = binary_auc(&scores, &pos);
        assert!((auc - 0.5).abs() < 0.2);
    }

    #[test]
    fn macro_auc_perfect_probs() {
        let probs = vec![
            vec![0.9, 0.05, 0.05],
            vec![0.05, 0.9, 0.05],
            vec![0.05, 0.05, 0.9],
            vec![0.8, 0.1, 0.1],
        ];
        let labels = vec![0, 1, 2, 0];
        assert!((macro_auc(&probs, &labels, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn confusion_checks_range() {
        confusion_matrix(&[3], &[0], 3);
    }
}
