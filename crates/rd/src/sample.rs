//! Labeled range-Doppler samples — the RD counterpart of
//! `gp_pipeline::LabeledSample`.

use crate::frame::RdFrame;

/// A segmented gesture as a sequence of range-Doppler frames with its
/// ground-truth labels.
#[derive(Debug, Clone, PartialEq)]
pub struct RdLabeledSample {
    /// The frames of the detected segment, in capture order.
    pub frames: Vec<RdFrame>,
    /// Segment length in frames.
    pub duration_frames: usize,
    /// Gesture class label.
    pub gesture: usize,
    /// User identity label.
    pub user: usize,
}

impl RdLabeledSample {
    /// Labels one `[start, end)` slice of a capture.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or out of range.
    pub fn from_segment(
        frames: &[RdFrame],
        start: usize,
        end: usize,
        gesture: usize,
        user: usize,
    ) -> Self {
        assert!(start < end && end <= frames.len(), "bad segment bounds");
        RdLabeledSample {
            frames: frames[start..end].to_vec(),
            duration_frames: end - start,
            gesture,
            user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_and_labels() {
        let frames: Vec<RdFrame> = (0..10)
            .map(|i| RdFrame::zeros(16, 64, i as f64 * 0.1))
            .collect();
        let s = RdLabeledSample::from_segment(&frames, 2, 7, 3, 1);
        assert_eq!(s.duration_frames, 5);
        assert_eq!(s.frames.len(), 5);
        assert_eq!((s.gesture, s.user), (3, 1));
        assert!((s.frames[0].timestamp - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad segment bounds")]
    fn rejects_empty_segment() {
        let frames = vec![RdFrame::zeros(16, 64, 0.0)];
        RdLabeledSample::from_segment(&frames, 1, 1, 0, 0);
    }
}
