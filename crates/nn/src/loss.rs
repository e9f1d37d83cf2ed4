//! Softmax, cross-entropy, and small prediction helpers.

use crate::matrix::Matrix;

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum.max(1e-30)).collect()
}

/// Softmax cross-entropy against a one-hot `label`.
///
/// Returns `(loss, grad_logits)` where `grad = softmax(logits) − onehot`.
///
/// # Panics
///
/// Panics if `label >= logits.len()`.
pub fn softmax_cross_entropy(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
    assert!(
        label < logits.len(),
        "label {label} out of range {}",
        logits.len()
    );
    let probs = softmax(logits);
    let loss = -(probs[label].max(1e-12)).ln();
    let mut grad = probs;
    grad[label] -= 1.0;
    (loss, grad)
}

/// Row-wise softmax over a batch of logit rows.
///
/// The batched counterpart of [`softmax`]: row `r` of the result is
/// `softmax(logits.row(r))`. Used by the batched inference path (the
/// logits of `PointModel::logits_and_embedding_batch` and
/// `RdNet::logits_and_embedding_batch`) so probabilities come out in the
/// same `(batch × classes)` shape the logits went in.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..logits.rows() {
        let probs = softmax(logits.row(r));
        out.row_mut(r).copy_from_slice(&probs);
    }
    out
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .expect("non-empty")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn cross_entropy_loss_and_grad() {
        let (loss, grad) = softmax_cross_entropy(&[0.0, 0.0], 0);
        assert!((loss - (2.0f32).ln()).abs() < 1e-6);
        assert!((grad[0] + 0.5).abs() < 1e-6);
        assert!((grad[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let (loss, _) = softmax_cross_entropy(&[10.0, -10.0], 0);
        assert!(loss < 1e-3);
        let (bad_loss, _) = softmax_cross_entropy(&[10.0, -10.0], 1);
        assert!(bad_loss > 5.0);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let logits = [0.5f32, -1.2, 2.0, 0.3];
        let label = 2;
        let (_, grad) = softmax_cross_entropy(&logits, label);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, label);
            let (lm, _) = softmax_cross_entropy(&minus, label);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((grad[i] - numeric).abs() < 1e-3, "logit {i}");
        }
    }

    #[test]
    fn softmax_rows_matches_per_row_softmax() {
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-4.0, 0.0, 4.0]]);
        let probs = softmax_rows(&logits);
        for r in 0..logits.rows() {
            let expected = softmax(logits.row(r));
            assert_eq!(probs.row(r), expected.as_slice());
            let sum: f32 = probs.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_empty_batch() {
        let logits = Matrix::zeros(0, 3);
        let probs = softmax_rows(&logits);
        assert_eq!(probs.rows(), 0);
        assert_eq!(probs.cols(), 3);
    }

    #[test]
    fn argmax_ties_take_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn label_bounds_checked() {
        softmax_cross_entropy(&[1.0, 2.0], 2);
    }
}
