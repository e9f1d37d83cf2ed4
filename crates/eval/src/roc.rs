//! ROC curves and equal error rate (paper Fig. 10).

use gp_codec::{Decode, DecodeError, Encode, Value};

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold.
    pub threshold: f64,
    /// False-positive rate at the threshold.
    pub fpr: f64,
    /// True-positive rate at the threshold.
    pub tpr: f64,
}

impl Encode for RocPoint {
    fn encode(&self) -> Value {
        Value::record([
            // The strictest operating point carries threshold = +inf,
            // which JSON cannot represent; it persists as null.
            (
                "threshold",
                if self.threshold.is_finite() {
                    self.threshold.encode()
                } else {
                    Value::Null
                },
            ),
            ("fpr", self.fpr.encode()),
            ("tpr", self.tpr.encode()),
        ])
    }
}

impl Decode for RocPoint {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(RocPoint {
            threshold: value
                .get::<Option<f64>>("threshold")?
                .unwrap_or(f64::INFINITY),
            fpr: value.get("fpr")?,
            tpr: value.get("tpr")?,
        })
    }
}

/// A persistable ROC/EER summary for one scenario: the operating curve,
/// its equal error rate, and the pooled score counts — everything a
/// later run needs to compare Fig. 10-style results machine-to-machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RocEerSummary {
    /// Scenario label (dataset name, model arm, ...).
    pub scenario: String,
    /// The full ROC curve, strictest threshold first.
    pub points: Vec<RocPoint>,
    /// Equal error rate over the same scores.
    pub eer: f64,
    /// Number of positive verification scores pooled.
    pub positives: usize,
    /// Number of negative verification scores pooled.
    pub negatives: usize,
}

impl RocEerSummary {
    /// Builds the summary from pooled verification scores (see
    /// [`one_vs_rest_scores`]).
    pub fn from_scores(scenario: impl Into<String>, scores: &[f64], positives: &[bool]) -> Self {
        let pos = positives.iter().filter(|p| **p).count();
        let points = roc_curve(scores, positives);
        let eer = eer_from_curve(&points);
        RocEerSummary {
            scenario: scenario.into(),
            points,
            eer,
            positives: pos,
            negatives: positives.len() - pos,
        }
    }

    /// The strictest decision threshold whose false-accept rate stays at
    /// or below `target_far` — the calibration point open-set galleries
    /// operate at instead of a hard-coded cutoff. Scores at or above the
    /// returned threshold are accepted; because the curve is built from
    /// a finite score sample, this is the loosest threshold the held-out
    /// split *measured* as satisfying the FAR bound.
    ///
    /// Returns `f64::INFINITY` (accept nothing) when even the strictest
    /// finite operating point exceeds the bound, which is the safe side
    /// of the trade. Degenerate curves with no negative scores calibrate
    /// to the loosest finite threshold.
    ///
    /// # Panics
    ///
    /// Panics if `target_far` is negative or NaN.
    pub fn threshold_at_far(&self, target_far: f64) -> f64 {
        assert!(
            target_far >= 0.0,
            "target FAR must be non-negative, got {target_far}"
        );
        self.points
            .iter()
            .rev()
            .find(|p| p.fpr <= target_far)
            .map_or(f64::INFINITY, |p| p.threshold)
    }
}

impl Encode for RocEerSummary {
    fn encode(&self) -> Value {
        Value::record([
            ("scenario", self.scenario.encode()),
            ("points", self.points.encode()),
            ("eer", self.eer.encode()),
            ("positives", self.positives.encode()),
            ("negatives", self.negatives.encode()),
        ])
    }
}

impl Decode for RocEerSummary {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(RocEerSummary {
            scenario: value.get("scenario")?,
            points: value.get("points")?,
            eer: value.get("eer")?,
            positives: value.get("positives")?,
            negatives: value.get("negatives")?,
        })
    }
}

/// Computes the ROC curve for verification scores (higher = more likely
/// positive). Points are ordered from the strictest threshold (0, 0) to
/// the loosest (1, 1).
pub fn roc_curve(scores: &[f64], positives: &[bool]) -> Vec<RocPoint> {
    assert_eq!(scores.len(), positives.len(), "length mismatch");
    let pos = positives.iter().filter(|p| **p).count();
    let neg = positives.len() - pos;
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut curve = vec![RocPoint {
        threshold: f64::INFINITY,
        fpr: 0.0,
        tpr: 0.0,
    }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < order.len() {
        let thr = scores[order[i]];
        // Consume all samples at this threshold together.
        while i < order.len() && scores[order[i]] == thr {
            if positives[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        curve.push(RocPoint {
            threshold: thr,
            fpr: if neg > 0 { fp as f64 / neg as f64 } else { 0.0 },
            tpr: if pos > 0 { tp as f64 / pos as f64 } else { 0.0 },
        });
    }
    curve
}

/// Equal error rate: the rate where `FPR = FNR = 1 − TPR`, linearly
/// interpolated between the two ROC points that bracket the crossing.
pub fn eer(scores: &[f64], positives: &[bool]) -> f64 {
    eer_from_curve(&roc_curve(scores, positives))
}

/// [`eer`] over an already-computed ROC curve, so callers that keep the
/// curve (e.g. [`RocEerSummary`]) do not sort the scores twice.
///
/// # Panics
///
/// Panics on an empty curve ([`roc_curve`] never produces one).
pub fn eer_from_curve(curve: &[RocPoint]) -> f64 {
    let mut prev = curve[0];
    for &pt in &curve[1..] {
        let prev_diff = prev.fpr - (1.0 - prev.tpr);
        let diff = pt.fpr - (1.0 - pt.tpr);
        if diff >= 0.0 {
            // Crossing between prev and pt.
            if (diff - prev_diff).abs() < 1e-15 {
                return (pt.fpr + (1.0 - pt.tpr)) / 2.0;
            }
            let t = -prev_diff / (diff - prev_diff);
            let fpr = prev.fpr + t * (pt.fpr - prev.fpr);
            let fnr = (1.0 - prev.tpr) + t * ((1.0 - pt.tpr) - (1.0 - prev.tpr));
            return (fpr + fnr) / 2.0;
        }
        prev = pt;
    }
    // No crossing found (degenerate input).
    let last = curve.last().expect("curve non-empty");
    (last.fpr + (1.0 - last.tpr)) / 2.0
}

/// Pools per-class one-vs-rest verification scores from probability
/// vectors: for every (sample, class) pair, the score is `p[class]` and
/// the pair is positive when `label == class`. This is the standard way
/// to compute one aggregate EER from a multiclass classifier.
pub fn one_vs_rest_scores(
    probabilities: &[Vec<f64>],
    labels: &[usize],
    classes: usize,
) -> (Vec<f64>, Vec<bool>) {
    assert_eq!(probabilities.len(), labels.len(), "length mismatch");
    let mut scores = Vec::with_capacity(probabilities.len() * classes);
    let mut positives = Vec::with_capacity(probabilities.len() * classes);
    for (p, &l) in probabilities.iter().zip(labels) {
        for (c, &score) in p[..classes].iter().enumerate() {
            scores.push(score);
            positives.push(c == l);
        }
    }
    (scores, positives)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_endpoints() {
        let scores = [0.9, 0.8, 0.3, 0.1];
        let pos = [true, true, false, false];
        let curve = roc_curve(&scores, &pos);
        assert_eq!(curve.first().map(|p| (p.fpr, p.tpr)), Some((0.0, 0.0)));
        assert_eq!(curve.last().map(|p| (p.fpr, p.tpr)), Some((1.0, 1.0)));
    }

    #[test]
    fn curve_monotone() {
        let scores = [0.9, 0.7, 0.8, 0.3, 0.5, 0.1];
        let pos = [true, false, true, false, true, false];
        let curve = roc_curve(&scores, &pos);
        for w in curve.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
    }

    #[test]
    fn perfect_separation_has_zero_eer() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let pos = [true, true, false, false];
        assert!(eer(&scores, &pos) < 1e-12);
    }

    #[test]
    fn inverted_separation_has_eer_one() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let pos = [true, true, false, false];
        assert!((eer(&scores, &pos) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_scores_give_half() {
        let scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let pos = [true, false, true, false, true, false, true, false];
        let e = eer(&scores, &pos);
        assert!((e - 0.5).abs() < 0.26, "eer = {e}");
    }

    #[test]
    fn partial_overlap_eer_between_zero_and_half() {
        let scores = [0.9, 0.8, 0.55, 0.45, 0.2, 0.1];
        let pos = [true, true, false, true, false, false];
        let e = eer(&scores, &pos);
        assert!(e > 0.0 && e < 0.5, "eer = {e}");
    }

    #[test]
    fn threshold_at_far_calibrates_from_the_curve() {
        // Genuine scores high, impostors low, one overlap at 0.55.
        let scores = [0.9, 0.8, 0.7, 0.55, 0.55, 0.3, 0.2, 0.1];
        let pos = [true, true, true, false, true, false, false, false];
        let summary = RocEerSummary::from_scores("cal", &scores, &pos);

        // FAR 0: the loosest threshold with zero false accepts is 0.7
        // (accepting >= 0.55 would admit the impostor at 0.55).
        let t0 = summary.threshold_at_far(0.0);
        assert_eq!(t0, 0.7);
        let accepted_impostors = scores
            .iter()
            .zip(&pos)
            .filter(|(s, p)| !**p && **s >= t0)
            .count();
        assert_eq!(accepted_impostors, 0);

        // FAR 25%: one of four impostors may pass; 0.55 qualifies.
        assert_eq!(summary.threshold_at_far(0.25), 0.55);
        // FAR 100%: everything passes at the loosest threshold.
        assert_eq!(summary.threshold_at_far(1.0), 0.1);
    }

    #[test]
    fn threshold_at_far_is_infinite_when_unreachable() {
        // Every score tied: any finite threshold accepts the impostor.
        let scores = [0.5, 0.5];
        let pos = [true, false];
        let summary = RocEerSummary::from_scores("tied", &scores, &pos);
        assert_eq!(summary.threshold_at_far(0.4), f64::INFINITY);
        // And the infinite point survives the JSON round trip as null.
        let text = gp_codec::encode_to_json(&summary).unwrap();
        let back: RocEerSummary = gp_codec::decode_from_json(&text).unwrap();
        assert_eq!(back.threshold_at_far(0.4), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn threshold_at_far_rejects_negative_targets() {
        let summary = RocEerSummary::from_scores("bad", &[0.5], &[true]);
        summary.threshold_at_far(-0.1);
    }

    #[test]
    fn one_vs_rest_pooling() {
        let probs = vec![vec![0.7, 0.3], vec![0.2, 0.8]];
        let labels = vec![0, 1];
        let (scores, pos) = one_vs_rest_scores(&probs, &labels, 2);
        assert_eq!(scores.len(), 4);
        assert_eq!(pos, vec![true, false, false, true]);
        assert!(eer(&scores, &pos) < 1e-12);
    }
}
