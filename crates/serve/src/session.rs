//! Per-stream session state: an online segmenter plus a bounded frame
//! buffer that keeps exactly the frames a future segment can still
//! reference.
//!
//! A session declares its sensing modality when it is opened and keeps
//! the matching segmentation state: point-cloud sessions run
//! [`OnlineSegmenter`] over radar [`Frame`]s, range-Doppler sessions
//! run [`OnlineRdSegmenter`] over [`RdFrame`]s. A point-cloud session
//! may additionally be driven with *paired* pushes (one point frame +
//! the aligned RD frame), in which case it keeps an RD shadow buffer so
//! the engine can hand a sparse segment to the range-Doppler backend.

use gestureprint_core::SensingBackend;
use gp_pipeline::{GestureSample, GestureSegment, OnlineSegmenter, Preprocessor};
use gp_radar::Frame;
use gp_rd::{OnlineRdSegmenter, RdFrame, RdLabeledSample, RdSegment};
use gp_runtime::TokenBucket;
use std::collections::VecDeque;

/// Identifier of one radar stream multiplexed through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// A segment completed by one push (or by the session close), in
/// whichever representation the session streams.
#[derive(Debug)]
pub(crate) enum ClosedSegment {
    /// A point-cloud segment. The sample side is `None` when noise
    /// canceling rejects the closed segment (mirroring the offline
    /// pipeline's drop rule) — the segment is still reported so drop
    /// rates are observable. For hybrid (paired-push) sessions the
    /// aligned range-Doppler window rides along so the engine's
    /// sparse-cloud fallback can re-route the segment.
    Point(
        GestureSegment,
        Option<GestureSample>,
        Option<RdLabeledSample>,
    ),
    /// A range-Doppler segment with its assembled (unlabeled) sample.
    Rd(RdSegment, RdLabeledSample),
}

/// The modality-specific half of a session: segmentation state plus the
/// trailing frames needed to assemble the next segment's sample.
#[derive(Debug)]
enum Stream {
    Point {
        segmenter: OnlineSegmenter,
        /// Retained frames; `buffer[0]` has absolute index `base`.
        buffer: VecDeque<Frame>,
        /// Aligned RD shadow buffer, allocated on the first paired
        /// push. A session that starts paired must stay paired — the
        /// shadow shares `base` with the point buffer.
        rd_shadow: Option<VecDeque<RdFrame>>,
        base: usize,
    },
    Rd {
        segmenter: OnlineRdSegmenter,
        buffer: VecDeque<RdFrame>,
        base: usize,
    },
}

/// One live stream: incremental segmentation state plus the trailing
/// frames needed to assemble the next segment's sample.
#[derive(Debug)]
pub(crate) struct Session {
    stream: Stream,
    /// Per-session admission budget; `None` = unlimited. Guarded by the
    /// session mutex like the rest of the per-stream state.
    budget: Option<TokenBucket>,
}

impl Session {
    /// A point-cloud session (the paper's default modality).
    pub(crate) fn new_point(segmenter: OnlineSegmenter, budget: Option<TokenBucket>) -> Self {
        Session {
            stream: Stream::Point {
                segmenter,
                buffer: VecDeque::new(),
                rd_shadow: None,
                base: 0,
            },
            budget,
        }
    }

    /// A range-Doppler session.
    pub(crate) fn new_rd(segmenter: OnlineRdSegmenter, budget: Option<TokenBucket>) -> Self {
        Session {
            stream: Stream::Rd {
                segmenter,
                buffer: VecDeque::new(),
                base: 0,
            },
            budget,
        }
    }

    /// The sensing modality this session was opened with.
    pub(crate) fn backend(&self) -> SensingBackend {
        match &self.stream {
            Stream::Point { .. } => SensingBackend::PointCloud,
            Stream::Rd { .. } => SensingBackend::RangeDoppler,
        }
    }

    /// The session's admission budget, if one is configured.
    pub(crate) fn budget_mut(&mut self) -> Option<&mut TokenBucket> {
        self.budget.as_mut()
    }

    /// Feeds one point-cloud frame; when it closes a gesture, assembles
    /// the segment's sample from the buffered frames.
    ///
    /// # Panics
    ///
    /// Panics on a range-Doppler session, or on a hybrid session that
    /// has already received paired pushes (the shadow buffer would
    /// desynchronize).
    pub(crate) fn push(&mut self, frame: Frame, pre: &Preprocessor) -> Option<ClosedSegment> {
        self.push_point(frame, None, pre)
    }

    /// Feeds one point-cloud frame together with the aligned
    /// range-Doppler frame (hybrid session). The two streams must be
    /// paired from the session's first frame so absolute indices line
    /// up.
    ///
    /// # Panics
    ///
    /// Panics on a range-Doppler session, or when earlier frames were
    /// pushed unpaired.
    pub(crate) fn push_paired(
        &mut self,
        frame: Frame,
        rd: RdFrame,
        pre: &Preprocessor,
    ) -> Option<ClosedSegment> {
        self.push_point(frame, Some(rd), pre)
    }

    fn push_point(
        &mut self,
        frame: Frame,
        rd: Option<RdFrame>,
        pre: &Preprocessor,
    ) -> Option<ClosedSegment> {
        let Stream::Point {
            segmenter,
            buffer,
            rd_shadow,
            base,
        } = &mut self.stream
        else {
            panic!("point-cloud frame pushed into a range-Doppler session");
        };
        match (&mut *rd_shadow, rd) {
            (Some(shadow), Some(rd)) => shadow.push_back(rd),
            (None, Some(rd)) => {
                assert!(
                    buffer.is_empty() && *base == 0,
                    "hybrid sessions must be paired from the first frame"
                );
                let mut shadow = VecDeque::new();
                shadow.push_back(rd);
                *rd_shadow = Some(shadow);
            }
            (Some(_), None) => panic!("hybrid sessions must stay paired (unpaired push)"),
            (None, None) => {}
        }
        let segment = segmenter.push_frame(&frame);
        buffer.push_back(frame);
        let out = segment.map(|seg| {
            let sample = assemble_point(buffer, *base, seg, pre);
            let rd = rd_shadow
                .as_mut()
                .map(|shadow| assemble_rd(shadow, *base, seg.start, seg.end));
            ClosedSegment::Point(seg, sample, rd)
        });
        let keep_from = segmenter.earliest_needed();
        trim(buffer, base, keep_from, rd_shadow.as_mut());
        out
    }

    /// Feeds one range-Doppler frame; when it closes a segment,
    /// assembles the segment's sample from the buffered frames.
    ///
    /// # Panics
    ///
    /// Panics on a point-cloud session.
    pub(crate) fn push_rd(&mut self, frame: RdFrame) -> Option<ClosedSegment> {
        let Stream::Rd {
            segmenter,
            buffer,
            base,
        } = &mut self.stream
        else {
            panic!("range-Doppler frame pushed into a point-cloud session");
        };
        let segment = segmenter.push(&frame);
        buffer.push_back(frame);
        let out = segment.map(|seg| {
            let sample = assemble_rd(buffer, *base, seg.start, seg.end);
            ClosedSegment::Rd(seg, sample)
        });
        let keep_from = segmenter.earliest_needed();
        trim(buffer, base, keep_from, None);
        out
    }

    /// Closes a gesture still open at end of stream, if any.
    pub(crate) fn finish(&mut self, pre: &Preprocessor) -> Option<ClosedSegment> {
        match &mut self.stream {
            Stream::Point {
                segmenter,
                buffer,
                rd_shadow,
                base,
            } => {
                let seg = segmenter.finish()?;
                let sample = assemble_point(buffer, *base, seg, pre);
                let rd = rd_shadow
                    .as_mut()
                    .map(|shadow| assemble_rd(shadow, *base, seg.start, seg.end));
                Some(ClosedSegment::Point(seg, sample, rd))
            }
            Stream::Rd {
                segmenter,
                buffer,
                base,
            } => {
                let seg = segmenter.finish()?;
                Some(ClosedSegment::Rd(
                    seg,
                    assemble_rd(buffer, *base, seg.start, seg.end),
                ))
            }
        }
    }

    /// Total frames pushed into this session.
    pub(crate) fn frames_seen(&self) -> usize {
        match &self.stream {
            Stream::Point { segmenter, .. } => segmenter.frames_seen(),
            Stream::Rd { segmenter, .. } => segmenter.frames_seen(),
        }
    }

    /// Number of frames currently retained (bounded while idle; the RD
    /// shadow of a hybrid session mirrors this count).
    pub(crate) fn buffered(&self) -> usize {
        match &self.stream {
            Stream::Point { buffer, .. } => buffer.len(),
            Stream::Rd { buffer, .. } => buffer.len(),
        }
    }
}

fn assemble_point(
    buffer: &mut VecDeque<Frame>,
    base: usize,
    seg: GestureSegment,
    pre: &Preprocessor,
) -> Option<GestureSample> {
    debug_assert!(
        seg.start >= base,
        "segment start {} precedes trimmed buffer base {}",
        seg.start,
        base
    );
    let lo = seg.start - base;
    let hi = seg.end - base;
    let frames = buffer.make_contiguous();
    pre.assemble(&frames[lo..hi], seg.start)
}

/// Slices the `[start, end)` window out of an RD buffer as an unlabeled
/// sample (labels are inference-ignored placeholders, like the point
/// path's `LabeledSample::from_sample(sample, 0, 0)`).
fn assemble_rd(
    buffer: &mut VecDeque<RdFrame>,
    base: usize,
    start: usize,
    end: usize,
) -> RdLabeledSample {
    debug_assert!(
        start >= base,
        "segment start {start} precedes trimmed buffer base {base}"
    );
    let lo = start - base;
    let hi = end - base;
    let frames = buffer.make_contiguous();
    RdLabeledSample::from_segment(frames, lo, hi, 0, 0)
}

/// Drops frames no future segment can reference (see the segmenters'
/// `earliest_needed`). A hybrid session's RD shadow shares the point
/// buffer's base and is trimmed in lockstep.
fn trim<T>(
    buffer: &mut VecDeque<T>,
    base: &mut usize,
    keep_from: usize,
    mut shadow: Option<&mut VecDeque<RdFrame>>,
) {
    while *base < keep_from && !buffer.is_empty() {
        buffer.pop_front();
        if let Some(shadow) = shadow.as_deref_mut() {
            shadow.pop_front();
        }
        *base += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_pipeline::{PreprocessorConfig, SegmenterConfig};
    use gp_pointcloud::{Point, PointCloud, Vec3};
    use gp_rd::RdSegmentConfig;

    fn frame(i: usize, points: usize) -> Frame {
        let cloud: PointCloud = (0..points)
            .map(|k| Point::new(Vec3::new(k as f64 * 0.05, 1.2, 1.0), 0.4, 15.0))
            .collect();
        Frame::new(i as f64 * 0.1, cloud)
    }

    /// A 16 × 64 RD frame with roughly `level` off-DC log-power.
    fn rd_frame(i: usize, level: f64) -> RdFrame {
        let mut f = RdFrame::zeros(16, 64, i as f64 * 0.1);
        if level > 0.0 {
            f.power[12 * f.range_bins + 20] = level.exp() - 1.0;
        }
        f
    }

    #[test]
    fn idle_stream_keeps_buffer_bounded() {
        let cfg = SegmenterConfig::default();
        let motion_window = cfg.motion_window;
        let mut session = Session::new_point(OnlineSegmenter::new(cfg), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        for i in 0..5_000 {
            assert!(session.push(frame(i, 1), &pre).is_none());
            assert!(
                session.buffered() <= motion_window + 1,
                "idle buffer grew to {} at frame {i}",
                session.buffered()
            );
        }
        assert_eq!(session.frames_seen(), 5_000);
        assert_eq!(session.backend(), SensingBackend::PointCloud);
    }

    #[test]
    fn burst_yields_one_assembled_sample() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let mut out = Vec::new();
        for i in 0..70 {
            let points = if (20..45).contains(&i) { 14 } else { 1 };
            out.extend(session.push(frame(i, points), &pre));
        }
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1, "expected exactly one segment");
        let ClosedSegment::Point(seg, sample, rd) = &out[0] else {
            panic!("point session closed a non-point segment");
        };
        let sample = sample.as_ref().expect("noise canceling keeps the burst");
        assert!((18..=24).contains(&seg.start), "start {}", seg.start);
        assert_eq!(sample.start_frame, seg.start);
        assert_eq!(sample.duration_frames, seg.len());
        assert!(!sample.cloud.is_empty());
        assert!(rd.is_none(), "unpaired session has no RD window");
    }

    #[test]
    fn gesture_open_at_stream_end_is_flushed() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let mut out = Vec::new();
        for i in 0..45 {
            let points = if i >= 30 { 14 } else { 1 };
            out.extend(session.push(frame(i, points), &pre));
        }
        assert!(out.is_empty(), "gesture still open");
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rd_session_segments_a_burst() {
        let mut session = Session::new_rd(OnlineRdSegmenter::new(RdSegmentConfig::default()), None);
        assert_eq!(session.backend(), SensingBackend::RangeDoppler);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let mut out = Vec::new();
        for i in 0..40 {
            let level = if (10..22).contains(&i) { 20.0 } else { 0.1 };
            out.extend(session.push_rd(rd_frame(i, level)));
        }
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1, "expected exactly one segment");
        let ClosedSegment::Rd(seg, sample) = &out[0] else {
            panic!("RD session closed a non-RD segment");
        };
        assert_eq!((seg.start, seg.end), (10, 22));
        assert_eq!(sample.duration_frames, 12);
        assert_eq!(sample.frames.len(), 12);
        // Idle tail trimmed the buffer behind the stream head.
        assert!(session.buffered() <= 1, "buffered {}", session.buffered());
    }

    #[test]
    fn paired_session_carries_aligned_rd_window() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let mut out = Vec::new();
        for i in 0..70 {
            let points = if (20..45).contains(&i) { 14 } else { 1 };
            out.extend(session.push_paired(frame(i, points), rd_frame(i, 5.0), &pre));
        }
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1);
        let ClosedSegment::Point(seg, _, rd) = &out[0] else {
            panic!("paired session closed a non-point segment");
        };
        let rd = rd.as_ref().expect("paired session carries the RD window");
        assert_eq!(rd.duration_frames, seg.len());
        // Alignment: the window's first frame is the segment's start.
        assert!((rd.frames[0].timestamp - seg.start as f64 * 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "range-Doppler frame pushed into a point-cloud session")]
    fn point_session_rejects_rd_frames() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        session.push_rd(rd_frame(0, 0.1));
    }

    #[test]
    #[should_panic(expected = "point-cloud frame pushed into a range-Doppler session")]
    fn rd_session_rejects_point_frames() {
        let mut session = Session::new_rd(OnlineRdSegmenter::new(RdSegmentConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        session.push(frame(0, 1), &pre);
    }

    #[test]
    #[should_panic(expected = "paired from the first frame")]
    fn late_pairing_is_rejected() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        session.push(frame(0, 1), &pre);
        session.push_paired(frame(1, 1), rd_frame(1, 0.1), &pre);
    }
}
