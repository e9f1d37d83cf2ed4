//! Per-stream session state: an online segmenter plus a bounded frame
//! buffer that keeps exactly the frames a future segment can still
//! reference, and the session's [`SessionMode`].
//!
//! A session declares its sensing modality when it is opened and keeps
//! the matching segmentation state: point-cloud sessions run
//! [`OnlineSegmenter`] over radar [`Frame`]s, range-Doppler sessions
//! run [`OnlineRdSegmenter`] over [`RdFrame`]s. A point-cloud session
//! may additionally be driven with *paired* frames (one point frame +
//! the aligned RD frame), in which case it keeps an RD shadow buffer so
//! the engine can hand a sparse segment to the range-Doppler backend.

use crate::engine::SessionMode;
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

/// One frame offered to a session, in whichever representation the
/// session streams.
#[derive(Debug)]
pub(crate) enum SensorFrame {
    /// A point-cloud frame.
    Points(Frame),
    /// A range-Doppler frame.
    Rd(RdFrame),
    /// A point-cloud frame with the aligned range-Doppler frame
    /// (hybrid session).
    Paired(Frame, RdFrame),
}

impl From<Frame> for SensorFrame {
    fn from(frame: Frame) -> Self {
        SensorFrame::Points(frame)
    }
}

impl From<RdFrame> for SensorFrame {
    fn from(frame: RdFrame) -> Self {
        SensorFrame::Rd(frame)
    }
}

impl From<(Frame, RdFrame)> for SensorFrame {
    fn from((frame, rd): (Frame, RdFrame)) -> Self {
        SensorFrame::Paired(frame, rd)
    }
}

/// A segment completed by one push (or by the session close), stamped
/// with the mode its session was in when it closed.
#[derive(Debug)]
pub(crate) struct ClosedSegment {
    /// The session's mode at close: a later mode switch never relabels
    /// a segment that already closed.
    pub(crate) mode: SessionMode,
    pub(crate) data: SegmentData,
}

/// A closed segment's boundaries and assembled sample, in whichever
/// representation the session streams.
#[derive(Debug)]
pub(crate) enum SegmentData {
    /// A point-cloud segment. The sample side is `None` when noise
    /// canceling rejects the closed segment (mirroring the offline
    /// pipeline's drop rule) — the segment is still reported so drop
    /// rates are observable. For hybrid (paired) sessions the aligned
    /// range-Doppler window rides along so the engine's sparse-cloud
    /// fallback can re-route the segment.
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
        /// frame. A session that starts paired must stay paired — the
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
    pub(crate) budget: Option<TokenBucket>,
    /// What the engine does with this session's segments; stamped on
    /// each one as it closes.
    pub(crate) mode: SessionMode,
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
            mode: SessionMode::Classify,
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
            mode: SessionMode::Classify,
        }
    }

    /// Feeds one frame; when it closes a gesture, assembles the
    /// segment's sample from the buffered frames. A hybrid session's
    /// paired frames must start with its first frame, so the two
    /// buffers' absolute indices line up.
    ///
    /// # Panics
    ///
    /// Panics on a frame the session's modality does not stream, and
    /// on a point-cloud session whose pairing changes mid-stream (the
    /// shadow buffer would desynchronize).
    pub(crate) fn push(&mut self, frame: SensorFrame, pre: &Preprocessor) -> Option<ClosedSegment> {
        let data = match &mut self.stream {
            Stream::Point {
                segmenter,
                buffer,
                rd_shadow,
                base,
            } => {
                let (frame, rd) = match frame {
                    SensorFrame::Points(frame) => (frame, None),
                    SensorFrame::Paired(frame, rd) => (frame, Some(rd)),
                    SensorFrame::Rd(_) => {
                        panic!("range-Doppler frame pushed into a point-cloud session")
                    }
                };
                match (&mut *rd_shadow, rd) {
                    (Some(shadow), Some(rd)) => shadow.push_back(rd),
                    (None, Some(rd)) => {
                        assert!(
                            buffer.is_empty() && *base == 0,
                            "hybrid sessions must be paired from the first frame"
                        );
                        *rd_shadow = Some(VecDeque::from([rd]));
                    }
                    (Some(_), None) => panic!("hybrid sessions must stay paired (unpaired push)"),
                    (None, None) => {}
                }
                let segment = segmenter.push_frame(&frame);
                buffer.push_back(frame);
                let out = segment.map(|seg| point_data(buffer, rd_shadow, *base, seg, pre));
                let keep_from = segmenter.earliest_needed();
                trim(buffer, base, keep_from, rd_shadow.as_mut());
                out
            }
            Stream::Rd {
                segmenter,
                buffer,
                base,
            } => {
                let SensorFrame::Rd(frame) = frame else {
                    panic!("point-cloud frame pushed into a range-Doppler session");
                };
                let segment = segmenter.push(&frame);
                buffer.push_back(frame);
                let out = segment.map(|seg| {
                    SegmentData::Rd(seg, assemble_rd(buffer, *base, seg.start, seg.end))
                });
                trim(buffer, base, segmenter.earliest_needed(), None);
                out
            }
        }?;
        Some(self.stamp(data))
    }

    /// Closes a gesture still open at end of stream, if any.
    pub(crate) fn finish(&mut self, pre: &Preprocessor) -> Option<ClosedSegment> {
        let data = match &mut self.stream {
            Stream::Point {
                segmenter,
                buffer,
                rd_shadow,
                base,
            } => point_data(buffer, rd_shadow, *base, segmenter.finish()?, pre),
            Stream::Rd {
                segmenter,
                buffer,
                base,
            } => {
                let seg = segmenter.finish()?;
                SegmentData::Rd(seg, assemble_rd(buffer, *base, seg.start, seg.end))
            }
        };
        Some(self.stamp(data))
    }

    fn stamp(&self, data: SegmentData) -> ClosedSegment {
        ClosedSegment {
            mode: self.mode.clone(),
            data,
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
    #[cfg(test)]
    fn buffered(&self) -> usize {
        match &self.stream {
            Stream::Point { buffer, .. } => buffer.len(),
            Stream::Rd { buffer, .. } => buffer.len(),
        }
    }
}

/// Assembles a closed point-cloud segment's sample, with its aligned
/// RD window when the session is paired.
fn point_data(
    buffer: &mut VecDeque<Frame>,
    rd_shadow: &mut Option<VecDeque<RdFrame>>,
    base: usize,
    seg: GestureSegment,
    pre: &Preprocessor,
) -> SegmentData {
    debug_assert!(
        seg.start >= base,
        "segment start {} precedes trimmed buffer base {}",
        seg.start,
        base
    );
    let lo = seg.start - base;
    let hi = seg.end - base;
    let frames = buffer.make_contiguous();
    let sample = pre.assemble(&frames[lo..hi], seg.start);
    let rd = rd_shadow
        .as_mut()
        .map(|shadow| assemble_rd(shadow, base, seg.start, seg.end));
    SegmentData::Point(seg, sample, rd)
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
            assert!(session.push(frame(i, 1).into(), &pre).is_none());
            assert!(
                session.buffered() <= motion_window + 1,
                "idle buffer grew to {} at frame {i}",
                session.buffered()
            );
        }
        assert_eq!(session.frames_seen(), 5_000);
    }

    #[test]
    fn burst_yields_one_assembled_sample() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let mut out = Vec::new();
        for i in 0..70 {
            let points = if (20..45).contains(&i) { 14 } else { 1 };
            out.extend(session.push(frame(i, points).into(), &pre));
        }
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1, "expected exactly one segment");
        let SegmentData::Point(seg, sample, rd) = &out[0].data else {
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
            out.extend(session.push(frame(i, points).into(), &pre));
        }
        assert!(out.is_empty(), "gesture still open");
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rd_session_segments_a_burst() {
        let mut session = Session::new_rd(OnlineRdSegmenter::new(RdSegmentConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let mut out = Vec::new();
        for i in 0..40 {
            let level = if (10..22).contains(&i) { 20.0 } else { 0.1 };
            out.extend(session.push(rd_frame(i, level).into(), &pre));
        }
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1, "expected exactly one segment");
        let SegmentData::Rd(seg, sample) = &out[0].data else {
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
            out.extend(session.push((frame(i, points), rd_frame(i, 5.0)).into(), &pre));
        }
        out.extend(session.finish(&pre));
        assert_eq!(out.len(), 1);
        let SegmentData::Point(seg, _, rd) = &out[0].data else {
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
        let pre = Preprocessor::new(PreprocessorConfig::default());
        session.push(rd_frame(0, 0.1).into(), &pre);
    }

    #[test]
    #[should_panic(expected = "point-cloud frame pushed into a range-Doppler session")]
    fn rd_session_rejects_point_frames() {
        let mut session = Session::new_rd(OnlineRdSegmenter::new(RdSegmentConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        session.push(frame(0, 1).into(), &pre);
    }

    #[test]
    #[should_panic(expected = "paired from the first frame")]
    fn late_pairing_is_rejected() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        session.push(frame(0, 1).into(), &pre);
        session.push((frame(1, 1), rd_frame(1, 0.1)).into(), &pre);
    }
}
