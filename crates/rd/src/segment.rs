//! Motion segmentation over range-Doppler frame streams.
//!
//! With MTI on, idle frames carry only noise residue, so gesture
//! activity shows up as a rise in off-DC ("moving") log-power. The
//! segmenter tracks an exponential moving baseline of that energy while
//! idle and opens a segment when energy exceeds `threshold_factor ×
//! baseline`, closing it after `max_gap` quiet frames. The same state
//! machine backs the offline [`segment`] helper and the incremental
//! [`OnlineRdSegmenter`] the serving path drives frame by frame.

use crate::features::motion_energy;
use crate::frame::RdFrame;

/// Segmentation thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct RdSegmentConfig {
    /// Doppler rows around zero excluded from motion energy.
    pub guard_rows: usize,
    /// A frame is "active" when its motion energy exceeds this factor
    /// times the idle baseline.
    pub threshold_factor: f64,
    /// EMA coefficient for the idle baseline update.
    pub baseline_alpha: f64,
    /// Floor for the baseline so an all-zero warmup cannot make every
    /// later frame active.
    pub baseline_floor: f64,
    /// Minimum segment length (frames); shorter bursts are dropped.
    pub min_frames: usize,
    /// Quiet frames tolerated inside a segment before it closes.
    pub max_gap: usize,
}

impl Default for RdSegmentConfig {
    fn default() -> Self {
        RdSegmentConfig {
            guard_rows: 1,
            threshold_factor: 3.0,
            baseline_alpha: 0.1,
            baseline_floor: 1.0,
            min_frames: 4,
            max_gap: 3,
        }
    }
}

impl gp_codec::Encode for RdSegmentConfig {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("guard_rows", self.guard_rows.encode()),
            ("threshold_factor", self.threshold_factor.encode()),
            ("baseline_alpha", self.baseline_alpha.encode()),
            ("baseline_floor", self.baseline_floor.encode()),
            ("min_frames", self.min_frames.encode()),
            ("max_gap", self.max_gap.encode()),
        ])
    }
}

impl gp_codec::Decode for RdSegmentConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(RdSegmentConfig {
            guard_rows: value.get("guard_rows")?,
            threshold_factor: value.get("threshold_factor")?,
            baseline_alpha: value.get("baseline_alpha")?,
            baseline_floor: value.get("baseline_floor")?,
            min_frames: value.get("min_frames")?,
            max_gap: value.get("max_gap")?,
        })
    }
}

/// A detected `[start, end)` active interval in frame indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdSegment {
    /// First frame of the segment.
    pub start: usize,
    /// One past the last frame of the segment.
    pub end: usize,
}

impl RdSegment {
    /// Segment length in frames.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Incremental segmenter: feed frames in order, collect closed
/// segments.
#[derive(Debug, Clone)]
pub struct OnlineRdSegmenter {
    config: RdSegmentConfig,
    baseline: f64,
    index: usize,
    open: Option<(usize, usize)>, // (start, last_active)
    gap: usize,
}

impl OnlineRdSegmenter {
    /// A fresh segmenter with no history.
    pub fn new(config: RdSegmentConfig) -> Self {
        let baseline = config.baseline_floor;
        OnlineRdSegmenter {
            config,
            baseline,
            index: 0,
            open: None,
            gap: 0,
        }
    }

    /// Number of frames consumed so far.
    pub fn frames_seen(&self) -> usize {
        self.index
    }

    /// True while a segment is open (activity ongoing).
    pub fn in_segment(&self) -> bool {
        self.open.is_some()
    }

    /// Index of the earliest frame any segment this stream can still
    /// produce may reference: the open segment's start, or the next
    /// frame's index while idle (a new segment never opens in the
    /// past). Serving buffers trim up to this point.
    pub fn earliest_needed(&self) -> usize {
        self.open.map_or(self.index, |(start, _)| start)
    }

    /// Consumes one frame; returns a segment if this frame closed one.
    pub fn push(&mut self, frame: &RdFrame) -> Option<RdSegment> {
        let energy = motion_energy(frame, self.config.guard_rows);
        let active = energy > self.config.threshold_factor * self.baseline;
        let index = self.index;
        self.index += 1;

        if !active {
            // Only idle frames feed the baseline, so a long gesture
            // cannot drag the threshold up underneath itself.
            self.baseline = ((1.0 - self.config.baseline_alpha) * self.baseline
                + self.config.baseline_alpha * energy)
                .max(self.config.baseline_floor);
        }

        match (&mut self.open, active) {
            (None, true) => {
                self.open = Some((index, index));
                self.gap = 0;
                None
            }
            (None, false) => None,
            (Some((_, last)), true) => {
                *last = index;
                self.gap = 0;
                None
            }
            (Some(_), false) => {
                self.gap += 1;
                if self.gap > self.config.max_gap {
                    self.take_closed()
                } else {
                    None
                }
            }
        }
    }

    /// Closes any open segment at end of stream.
    pub fn finish(&mut self) -> Option<RdSegment> {
        self.take_closed()
    }

    fn take_closed(&mut self) -> Option<RdSegment> {
        let (start, last) = self.open.take()?;
        self.gap = 0;
        let seg = RdSegment {
            start,
            end: last + 1,
        };
        (seg.len() >= self.config.min_frames).then_some(seg)
    }
}

/// Segments a complete capture, returning active intervals in order.
pub fn segment(frames: &[RdFrame], config: &RdSegmentConfig) -> Vec<RdSegment> {
    let mut online = OnlineRdSegmenter::new(config.clone());
    let mut out = Vec::new();
    for frame in frames {
        if let Some(seg) = online.push(frame) {
            out.push(seg);
        }
    }
    if let Some(seg) = online.finish() {
        out.push(seg);
    }
    out
}

/// The longest detected segment of a capture, if any.
pub fn dominant_segment(frames: &[RdFrame], config: &RdSegmentConfig) -> Option<RdSegment> {
    segment(frames, config)
        .into_iter()
        .max_by_key(RdSegment::len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 16 × 64 frame whose off-DC log-power sums to roughly `level`.
    fn frame_with_energy(level: f64, t: f64) -> RdFrame {
        let mut f = RdFrame::zeros(16, 64, t);
        if level > 0.0 {
            f.power[12 * f.range_bins + 20] = level.exp() - 1.0;
        }
        f
    }

    fn capture(active: &[(usize, usize)], len: usize) -> Vec<RdFrame> {
        (0..len)
            .map(|i| {
                let on = active.iter().any(|&(s, e)| i >= s && i < e);
                frame_with_energy(if on { 20.0 } else { 0.1 }, i as f64 * 0.1)
            })
            .collect()
    }

    #[test]
    fn finds_single_burst() {
        let frames = capture(&[(10, 22)], 40);
        let segs = segment(&frames, &RdSegmentConfig::default());
        assert_eq!(segs, vec![RdSegment { start: 10, end: 22 }]);
    }

    #[test]
    fn bridges_short_gap_and_splits_long() {
        let sc = RdSegmentConfig::default();
        // Gap of 2 (< max_gap) bridges into one segment.
        let frames = capture(&[(5, 10), (12, 18)], 30);
        let segs = segment(&frames, &sc);
        assert_eq!(segs, vec![RdSegment { start: 5, end: 18 }]);
        // Gap of 8 splits.
        let frames = capture(&[(5, 10), (18, 24)], 34);
        let segs = segment(&frames, &sc);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], RdSegment { start: 5, end: 10 });
        assert_eq!(segs[1], RdSegment { start: 18, end: 24 });
    }

    #[test]
    fn drops_sub_minimum_blips() {
        let frames = capture(&[(10, 12)], 30);
        assert!(segment(&frames, &RdSegmentConfig::default()).is_empty());
    }

    #[test]
    fn closes_open_segment_at_stream_end() {
        let frames = capture(&[(24, 30)], 30);
        let segs = segment(&frames, &RdSegmentConfig::default());
        assert_eq!(segs, vec![RdSegment { start: 24, end: 30 }]);
    }

    #[test]
    fn earliest_needed_tracks_open_segment() {
        let sc = RdSegmentConfig::default();
        let mut online = OnlineRdSegmenter::new(sc);
        // Idle frames: nothing to retain — the trim point follows the
        // stream head.
        for i in 0..5 {
            online.push(&frame_with_energy(0.1, i as f64 * 0.1));
            assert_eq!(online.earliest_needed(), i + 1);
        }
        // Active frames pin the trim point to the segment start.
        for i in 5..9 {
            online.push(&frame_with_energy(20.0, i as f64 * 0.1));
            assert_eq!(online.earliest_needed(), 5);
        }
    }

    #[test]
    fn segment_config_roundtrips() {
        use gp_codec::{Decode, Encode};
        let config = RdSegmentConfig {
            min_frames: 6,
            ..RdSegmentConfig::default()
        };
        let decoded = RdSegmentConfig::decode(&config.encode()).expect("roundtrip");
        assert_eq!(decoded, config);
    }

    #[test]
    fn online_matches_offline() {
        let sc = RdSegmentConfig::default();
        let frames = capture(&[(6, 16), (25, 33)], 45);
        let offline = segment(&frames, &sc);
        let mut online = OnlineRdSegmenter::new(sc);
        let mut streamed = Vec::new();
        for f in &frames {
            if let Some(s) = online.push(f) {
                streamed.push(s);
            }
        }
        if let Some(s) = online.finish() {
            streamed.push(s);
        }
        assert_eq!(streamed, offline);
    }
}
