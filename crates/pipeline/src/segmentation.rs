//! Parameter-adaptive sliding-window gesture segmentation (paper §IV-B).
//!
//! The segmenter watches the number of points per frame. A dynamic point
//! threshold `P_thr` is derived from the cumulative distribution of counts
//! over the trailing `N = 50` frames; a sliding detection window of
//! `n = 10` frames then classifies frames as motion/static, and a gesture
//! starts once at least `F_thr = 6` motion frames accumulate in the
//! window, ending when the window is all-static again.
//!
//! `F_thr = 6` (0.6 s of sustained motion at 10 fps) rather than a stricter
//! 8: multi-phase signs such as 'push' hold the hands still mid-gesture, and
//! the MTI clutter filter blanks those frames, so a sign's longest
//! uninterrupted motion burst is often only 6–7 frames. The end rule (a
//! fully static window) already bridges such intra-gesture pauses.

use gp_codec::{Decode, DecodeError, Encode, Value};
use gp_radar::Frame;
use std::collections::VecDeque;

/// Segmentation parameters (paper §V values as defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmenterConfig {
    /// Length `N` of the trailing window used to estimate the dynamic
    /// point-count threshold.
    pub threshold_window: usize,
    /// Length `n` of the sliding motion-detection window.
    pub motion_window: usize,
    /// Minimum motion frames `F_thr` in the window to accept a gesture
    /// start.
    pub min_motion_frames: usize,
    /// Absolute floor for the dynamic threshold (points per frame); keeps
    /// the detector sane during all-idle stretches.
    pub min_threshold: usize,
    /// Quantile pair `(low, high)` of the count distribution that anchors
    /// the dynamic threshold: `P_thr = lowq + spread_fraction·(highq − lowq)`.
    pub quantiles: (f64, f64),
    /// Fraction of the low→high quantile spread added to the low anchor.
    pub spread_fraction: f64,
}

impl Default for SegmenterConfig {
    fn default() -> Self {
        SegmenterConfig {
            threshold_window: 50,
            motion_window: 10,
            min_motion_frames: 6,
            min_threshold: 3,
            quantiles: (0.2, 0.95),
            spread_fraction: 0.35,
        }
    }
}

impl Encode for SegmenterConfig {
    fn encode(&self) -> Value {
        Value::record([
            ("threshold_window", self.threshold_window.encode()),
            ("motion_window", self.motion_window.encode()),
            ("min_motion_frames", self.min_motion_frames.encode()),
            ("min_threshold", self.min_threshold.encode()),
            ("quantiles", self.quantiles.encode()),
            ("spread_fraction", self.spread_fraction.encode()),
        ])
    }
}

impl Decode for SegmenterConfig {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(SegmenterConfig {
            threshold_window: value.get("threshold_window")?,
            motion_window: value.get("motion_window")?,
            min_motion_frames: value.get("min_motion_frames")?,
            min_threshold: value.get("min_threshold")?,
            quantiles: value.get("quantiles")?,
            spread_fraction: value.get("spread_fraction")?,
        })
    }
}

/// A detected gesture segment: frame indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GestureSegment {
    /// First motion frame (inclusive).
    pub start: usize,
    /// One past the last motion frame (exclusive).
    pub end: usize,
}

impl GestureSegment {
    /// Number of frames in the segment — the "lasting time" of paper
    /// Fig. 13.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment is empty (never produced by the segmenter).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl Encode for GestureSegment {
    fn encode(&self) -> Value {
        Value::record([("start", self.start.encode()), ("end", self.end.encode())])
    }
}

impl Decode for GestureSegment {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(GestureSegment {
            start: value.get("start")?,
            end: value.get("end")?,
        })
    }
}

/// The parameter-adaptive sliding-window segmenter.
#[derive(Debug, Clone, Default)]
pub struct Segmenter {
    config: SegmenterConfig,
}

impl Segmenter {
    /// Creates a segmenter.
    pub fn new(config: SegmenterConfig) -> Self {
        Segmenter { config }
    }

    /// The dynamic point threshold for a window of recent counts: anchors
    /// on the count distribution so it adapts to the environment's
    /// baseline clutter level.
    pub fn dynamic_threshold(&self, counts: &[usize]) -> usize {
        dynamic_threshold(&self.config, counts)
    }

    /// Segments a frame sequence into gesture intervals.
    ///
    /// This is the offline view of [`OnlineSegmenter`]: the whole
    /// recording is replayed through the incremental state machine, so
    /// batch runs and frame-by-frame streaming (`gp-serve`) produce the
    /// same boundaries by construction.
    pub fn segment(&self, frames: &[Frame]) -> Vec<GestureSegment> {
        let mut online = OnlineSegmenter::new(self.config.clone());
        let mut segments: Vec<GestureSegment> =
            frames.iter().filter_map(|f| online.push_frame(f)).collect();
        segments.extend(online.finish());
        segments
    }
}

/// The adaptive-threshold core shared by the offline and online
/// segmenters (see [`SegmenterConfig::quantiles`]).
fn dynamic_threshold(config: &SegmenterConfig, counts: &[usize]) -> usize {
    if counts.is_empty() {
        return config.min_threshold;
    }
    let mut sorted: Vec<usize> = counts.to_vec();
    sorted.sort_unstable();
    let q = |f: f64| -> f64 {
        let idx = (f * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx] as f64
    };
    let lo = q(config.quantiles.0);
    let hi = q(config.quantiles.1);
    // At least one point above the low anchor, so a flat idle
    // distribution (all counts equal) never classifies as motion.
    let thr = lo + (config.spread_fraction * (hi - lo)).max(1.0);
    (thr.ceil() as usize).max(config.min_threshold)
}

/// The incremental sliding-window segmenter: the same parameter-adaptive
/// state machine as [`Segmenter`], fed one frame at a time.
///
/// The offline algorithm is strictly causal — the threshold for frame `i`
/// uses only the trailing `threshold_window` counts and the motion window
/// only the trailing `motion_window` flags — so it ports to a streaming
/// state machine without approximation. [`OnlineSegmenter::push`] returns
/// a [`GestureSegment`] at the frame where the detector closes a gesture;
/// [`OnlineSegmenter::finish`] closes a gesture still open at stream end.
///
/// Memory is bounded: the state holds at most `threshold_window + 1`
/// counts and `motion_window` flags regardless of stream length, and
/// [`OnlineSegmenter::earliest_needed`] tells stream buffers (e.g. a
/// `gp-serve` session) which frames may still be referenced by a future
/// segment, so they can trim everything older.
#[derive(Debug, Clone, Default)]
pub struct OnlineSegmenter {
    config: SegmenterConfig,
    /// Trailing point counts feeding the adaptive threshold (≤ `N + 1`).
    counts: VecDeque<usize>,
    /// Trailing motion flags (≤ `n`).
    motion: VecDeque<bool>,
    /// Scratch buffer for the threshold quantiles.
    scratch: Vec<usize>,
    /// Index of the next frame to be pushed.
    next_index: usize,
    in_gesture: bool,
    start: usize,
    last_motion: usize,
}

impl OnlineSegmenter {
    /// Creates an online segmenter.
    pub fn new(config: SegmenterConfig) -> Self {
        OnlineSegmenter {
            config,
            ..OnlineSegmenter::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SegmenterConfig {
        &self.config
    }

    /// Number of frames pushed so far.
    pub fn frames_seen(&self) -> usize {
        self.next_index
    }

    /// Whether the detector is currently inside a gesture.
    pub fn in_gesture(&self) -> bool {
        self.in_gesture
    }

    /// The earliest frame index a future segment can still reference.
    ///
    /// Stream buffers may drop all frames before this index: while idle,
    /// a future gesture start cannot reach further back than the motion
    /// window; while inside a gesture, the open segment's start frame is
    /// the bound.
    pub fn earliest_needed(&self) -> usize {
        if self.in_gesture {
            self.start
        } else {
            self.next_index.saturating_sub(self.config.motion_window)
        }
    }

    /// Feeds the next frame's point count; returns a segment when this
    /// frame closes one.
    pub fn push(&mut self, point_count: usize) -> Option<GestureSegment> {
        let i = self.next_index;
        self.next_index += 1;

        // Adaptive threshold over the trailing counts (same window the
        // offline pass uses: `counts[i - N ..= i]`).
        self.counts.push_back(point_count);
        if self.counts.len() > self.config.threshold_window + 1 {
            self.counts.pop_front();
        }
        self.scratch.clear();
        self.scratch.extend(self.counts.iter().copied());
        let is_motion = point_count >= dynamic_threshold(&self.config, &self.scratch);

        self.motion.push_back(is_motion);
        if self.motion.len() > self.config.motion_window {
            self.motion.pop_front();
        }
        let motion_count = self.motion.iter().filter(|m| **m).count();

        if !self.in_gesture {
            let needed = self.config.min_motion_frames.min(self.config.motion_window);
            if motion_count >= needed {
                self.in_gesture = true;
                // The gesture started at the first motion frame of the
                // current window.
                let w_lo = i + 1 - self.motion.len();
                self.start = w_lo + self.motion.iter().position(|m| *m).unwrap_or(0);
                self.last_motion = i;
            }
            None
        } else {
            if is_motion {
                self.last_motion = i;
            }
            if motion_count == 0 {
                // Entire window static: the gesture ended at the last
                // motion frame.
                self.in_gesture = false;
                Some(GestureSegment {
                    start: self.start,
                    end: self.last_motion + 1,
                })
            } else {
                None
            }
        }
    }

    /// Feeds the next frame; returns a segment when this frame closes one.
    pub fn push_frame(&mut self, frame: &Frame) -> Option<GestureSegment> {
        self.push(frame.len())
    }

    /// Closes a gesture still open at stream end (the offline pass's
    /// trailing-segment rule). Idempotent.
    pub fn finish(&mut self) -> Option<GestureSegment> {
        if self.in_gesture {
            self.in_gesture = false;
            Some(GestureSegment {
                start: self.start,
                end: self.last_motion + 1,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_pointcloud::{Point, PointCloud, Vec3};

    /// Builds frames with the given per-frame point counts.
    fn frames_with_counts(counts: &[usize]) -> Vec<Frame> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let cloud: PointCloud = (0..c)
                    .map(|k| Point::new(Vec3::new(k as f64 * 0.05, 1.2, 1.0), 0.4, 15.0))
                    .collect();
                Frame::new(i as f64 * 0.1, cloud)
            })
            .collect()
    }

    fn pattern(idle: usize, burst: usize, tail: usize, level: usize) -> Vec<usize> {
        let mut v = vec![1; idle];
        v.extend(std::iter::repeat(level).take(burst));
        v.extend(std::iter::repeat(1).take(tail));
        v
    }

    #[test]
    fn detects_single_burst() {
        let counts = pattern(20, 20, 20, 12);
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert_eq!(segs.len(), 1);
        let s = segs[0];
        // Start near frame 20, end near frame 40.
        assert!((18..=24).contains(&s.start), "start {}", s.start);
        assert!((38..=44).contains(&s.end), "end {}", s.end);
    }

    #[test]
    fn all_idle_yields_nothing() {
        let counts = vec![1usize; 80];
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert!(segs.is_empty(), "{segs:?}");
    }

    #[test]
    fn all_empty_frames_yield_nothing() {
        let counts = vec![0usize; 80];
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert!(segs.is_empty());
    }

    #[test]
    fn detects_two_bursts() {
        let mut counts = pattern(20, 20, 25, 12);
        counts.extend(std::iter::repeat(14).take(18));
        counts.extend(std::iter::repeat(1).take(20));
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert_eq!(segs.len(), 2, "{segs:?}");
        assert!(segs[0].end <= segs[1].start);
    }

    #[test]
    fn short_blip_is_rejected() {
        // 4 motion frames < F_thr = 8.
        let counts = pattern(30, 4, 30, 15);
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert!(segs.is_empty(), "{segs:?}");
    }

    #[test]
    fn gesture_at_sequence_end_is_closed() {
        let counts = pattern(30, 15, 0, 12);
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, 45);
    }

    #[test]
    fn adapts_to_noisy_baseline() {
        // Baseline of 4 points (noisy room) with bursts to 16: a fixed
        // low threshold would merge everything; the adaptive one doesn't.
        let mut counts = vec![4usize; 25];
        counts.extend(std::iter::repeat(16).take(20));
        counts.extend(std::iter::repeat(4).take(25));
        let segs = Segmenter::default().segment(&frames_with_counts(&counts));
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert!(
            (23..=29).contains(&segs[0].start),
            "start {}",
            segs[0].start
        );
    }

    #[test]
    fn threshold_floor_respected() {
        let seg = Segmenter::default();
        assert_eq!(seg.dynamic_threshold(&[]), 3);
        assert_eq!(seg.dynamic_threshold(&[0, 0, 0, 0]), 3);
    }

    #[test]
    fn threshold_tracks_distribution() {
        let seg = Segmenter::default();
        let quiet = vec![1usize; 50];
        let mut active = vec![1usize; 25];
        active.extend(vec![20usize; 25]);
        assert!(seg.dynamic_threshold(&active) > seg.dynamic_threshold(&quiet));
    }

    #[test]
    fn segment_len() {
        let s = GestureSegment { start: 10, end: 32 };
        assert_eq!(s.len(), 22);
        assert!(!s.is_empty());
    }

    /// Replays `counts` through the online state machine the way a
    /// streaming caller would, including the end-of-stream flush.
    fn online_replay(config: SegmenterConfig, counts: &[usize]) -> Vec<GestureSegment> {
        let mut online = OnlineSegmenter::new(config);
        let mut segs: Vec<GestureSegment> = counts.iter().filter_map(|&c| online.push(c)).collect();
        segs.extend(online.finish());
        segs
    }

    #[test]
    fn online_matches_offline_on_varied_patterns() {
        let patterns: Vec<Vec<usize>> = vec![
            pattern(20, 20, 20, 12),
            pattern(30, 4, 30, 15),
            pattern(30, 15, 0, 12),
            vec![1usize; 80],
            vec![0usize; 80],
            {
                let mut v = pattern(20, 20, 25, 12);
                v.extend(std::iter::repeat(14).take(18));
                v.extend(std::iter::repeat(1).take(20));
                v
            },
            // Pseudo-random counts: exercises threshold adaptation.
            (0..200u64)
                .map(|i| ((i.wrapping_mul(0x9E3779B9) >> 27) % 17) as usize)
                .collect(),
        ];
        for counts in patterns {
            let frames = frames_with_counts(&counts);
            let offline = Segmenter::default().segment(&frames);
            let online = online_replay(SegmenterConfig::default(), &counts);
            assert_eq!(offline, online, "counts {counts:?}");
        }
    }

    #[test]
    fn online_state_is_bounded() {
        let cfg = SegmenterConfig::default();
        let mut online = OnlineSegmenter::new(cfg.clone());
        for i in 0..10_000usize {
            let c = if i % 97 < 20 { 14 } else { 1 };
            online.push(c);
            assert!(online.counts.len() <= cfg.threshold_window + 1);
            assert!(online.motion.len() <= cfg.motion_window);
        }
        assert_eq!(online.frames_seen(), 10_000);
    }

    #[test]
    fn earliest_needed_never_exceeds_open_segment_start() {
        let counts = pattern(30, 25, 30, 12);
        let mut online = OnlineSegmenter::new(SegmenterConfig::default());
        let mut segments = Vec::new();
        for &c in &counts {
            let needed_before = online.earliest_needed();
            if let Some(seg) = online.push(c) {
                assert!(
                    needed_before <= seg.start,
                    "buffer trimmed past a segment start: {needed_before} > {}",
                    seg.start
                );
                segments.push(seg);
            }
        }
        segments.extend(online.finish());
        assert_eq!(segments.len(), 1);
        // Idle tail: the bound advances with the stream again.
        assert!(online.earliest_needed() > segments[0].start);
    }

    #[test]
    fn longer_gesture_gives_longer_segment() {
        // Segment length must track the true motion duration (paper
        // Fig. 13 measures user speed through this).
        let short = pattern(25, 14, 25, 12);
        let long = pattern(25, 30, 25, 12);
        let s1 = Segmenter::default().segment(&frames_with_counts(&short))[0];
        let s2 = Segmenter::default().segment(&frames_with_counts(&long))[0];
        assert!(s2.len() > s1.len());
    }
}
