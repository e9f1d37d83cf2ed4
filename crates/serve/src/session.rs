//! Per-stream session state: an online segmenter plus a bounded frame
//! buffer that keeps exactly the frames a future segment can still
//! reference, and the session's [`SessionMode`].
//!
//! A session declares its sensing modality when it is opened and keeps
//! the matching segmentation state: point-cloud sessions run
//! [`OnlineSegmenter`] over radar [`Frame`]s, range-Doppler sessions
//! run [`OnlineRdSegmenter`] over [`RdFrame`]s.

use crate::engine::SessionMode;
use gp_pipeline::{GestureSegment, LabeledSample, OnlineSegmenter, Preprocessor};
use gp_radar::Frame;
use gp_rd::{OnlineRdSegmenter, RdFrame, RdLabeledSample, RdSegment};
use gp_runtime::TokenBucket;
use gp_telemetry::AtomicHistogram;
use std::collections::VecDeque;
use std::time::Instant;

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

/// A segment completed by one push (or by the session close), stamped
/// with the mode its session was in when it closed.
#[derive(Debug)]
pub(crate) struct ClosedSegment {
    /// The session's mode at close: a later mode switch never relabels
    /// a segment that already closed.
    pub(crate) mode: SessionMode,
    /// The segment's `[start, end)` frame interval. RD segments share
    /// the point type's frame-index semantics, so events stay
    /// representation-agnostic downstream.
    pub(crate) segment: GestureSegment,
    /// The assembled sample. `None` when noise canceling rejects a
    /// point-cloud segment (mirroring the offline pipeline's drop rule)
    /// — the segment is still reported so drop rates are observable.
    pub(crate) sample: Option<SegmentSample>,
}

/// A closed segment's sample, in the representation its session
/// streams; the variant picks the backend that infers it. Labels are
/// inference-ignored placeholders (`0, 0`): the serving path classifies
/// unlabeled live segments.
#[derive(Debug)]
pub(crate) enum SegmentSample {
    /// For the engine's point-cloud system.
    Point(LabeledSample),
    /// For the attached range-Doppler system.
    Rd(RdLabeledSample),
}

/// The trailing frames of one stream; `frames[0]` has absolute index
/// `base`.
#[derive(Debug)]
struct FrameBuffer<T> {
    frames: VecDeque<T>,
    base: usize,
}

impl<T> FrameBuffer<T> {
    fn new() -> Self {
        FrameBuffer {
            frames: VecDeque::new(),
            base: 0,
        }
    }

    /// The frames of the absolute interval `[start, end)`.
    fn window(&mut self, start: usize, end: usize) -> &[T] {
        debug_assert!(
            start >= self.base,
            "segment start {start} precedes trimmed buffer base {}",
            self.base
        );
        &self.frames.make_contiguous()[start - self.base..end - self.base]
    }

    /// Drops frames no future segment can reference (see the
    /// segmenters' `earliest_needed`).
    fn trim(&mut self, keep_from: usize) {
        while self.base < keep_from && self.frames.pop_front().is_some() {
            self.base += 1;
        }
    }
}

/// The modality-specific half of a session: segmentation state plus the
/// trailing frames needed to assemble the next segment's sample.
#[derive(Debug)]
enum Stream {
    Point {
        segmenter: OnlineSegmenter,
        buffer: FrameBuffer<Frame>,
    },
    Rd {
        segmenter: OnlineRdSegmenter,
        buffer: FrameBuffer<RdFrame>,
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
                buffer: FrameBuffer::new(),
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
                buffer: FrameBuffer::new(),
            },
            budget,
            mode: SessionMode::Classify,
        }
    }

    /// Feeds one frame; when it closes a gesture, assembles the
    /// segment's sample from the buffered frames. `assembly` times each
    /// point-cloud assembly.
    ///
    /// # Panics
    ///
    /// Panics on a frame the session's modality does not stream.
    pub(crate) fn push(
        &mut self,
        frame: SensorFrame,
        pre: &Preprocessor,
        assembly: &AtomicHistogram,
    ) -> Option<ClosedSegment> {
        let (segment, sample) = match (&mut self.stream, frame) {
            (Stream::Point { segmenter, buffer }, SensorFrame::Points(frame)) => {
                let closed = segmenter.push_frame(&frame);
                buffer.frames.push_back(frame);
                let out = closed.map(|seg| close_point(buffer, seg, pre, assembly));
                buffer.trim(segmenter.earliest_needed());
                out
            }
            (Stream::Rd { segmenter, buffer }, SensorFrame::Rd(frame)) => {
                let closed = segmenter.push(&frame);
                buffer.frames.push_back(frame);
                let out = closed.map(|seg| close_rd(buffer, seg));
                buffer.trim(segmenter.earliest_needed());
                out
            }
            (Stream::Point { .. }, SensorFrame::Rd(_)) => {
                panic!("range-Doppler frame pushed into a point-cloud session")
            }
            (Stream::Rd { .. }, SensorFrame::Points(_)) => {
                panic!("point-cloud frame pushed into a range-Doppler session")
            }
        }?;
        Some(self.stamp(segment, sample))
    }

    /// Closes a gesture still open at end of stream, if any.
    pub(crate) fn finish(
        &mut self,
        pre: &Preprocessor,
        assembly: &AtomicHistogram,
    ) -> Option<ClosedSegment> {
        let (segment, sample) = match &mut self.stream {
            Stream::Point { segmenter, buffer } => {
                close_point(buffer, segmenter.finish()?, pre, assembly)
            }
            Stream::Rd { segmenter, buffer } => close_rd(buffer, segmenter.finish()?),
        };
        Some(self.stamp(segment, sample))
    }

    fn stamp(&self, segment: GestureSegment, sample: Option<SegmentSample>) -> ClosedSegment {
        ClosedSegment {
            mode: self.mode.clone(),
            segment,
            sample,
        }
    }

    /// Total frames pushed into this session.
    pub(crate) fn frames_seen(&self) -> usize {
        match &self.stream {
            Stream::Point { segmenter, .. } => segmenter.frames_seen(),
            Stream::Rd { segmenter, .. } => segmenter.frames_seen(),
        }
    }

    /// Number of frames currently retained (bounded while idle).
    #[cfg(test)]
    fn buffered(&self) -> usize {
        match &self.stream {
            Stream::Point { buffer, .. } => buffer.frames.len(),
            Stream::Rd { buffer, .. } => buffer.frames.len(),
        }
    }
}

/// Assembles a closed point-cloud segment's sample, recording the
/// assembly's time in `assembly`; `None` when noise canceling rejects
/// it.
fn close_point(
    buffer: &mut FrameBuffer<Frame>,
    seg: GestureSegment,
    pre: &Preprocessor,
    assembly: &AtomicHistogram,
) -> (GestureSegment, Option<SegmentSample>) {
    let frames = buffer.window(seg.start, seg.end);
    let start = Instant::now();
    let sample = pre.assemble(frames, seg.start);
    assembly.record_duration(start.elapsed());
    let sample =
        sample.map(|sample| SegmentSample::Point(LabeledSample::from_sample(sample, 0, 0)));
    (seg, sample)
}

/// Slices a closed range-Doppler segment's window out of the buffer.
fn close_rd(
    buffer: &mut FrameBuffer<RdFrame>,
    seg: RdSegment,
) -> (GestureSegment, Option<SegmentSample>) {
    let frames = buffer.window(seg.start, seg.end);
    let sample = RdLabeledSample::from_segment(frames, 0, frames.len(), 0, 0);
    let segment = GestureSegment {
        start: seg.start,
        end: seg.end,
    };
    (segment, Some(SegmentSample::Rd(sample)))
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
        let clock = AtomicHistogram::default();
        for i in 0..5_000 {
            assert!(session.push(frame(i, 1).into(), &pre, &clock).is_none());
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
        let clock = AtomicHistogram::default();
        let mut out = Vec::new();
        for i in 0..70 {
            let points = if (20..45).contains(&i) { 14 } else { 1 };
            out.extend(session.push(frame(i, points).into(), &pre, &clock));
        }
        out.extend(session.finish(&pre, &clock));
        assert_eq!(out.len(), 1, "expected exactly one segment");
        let seg = out[0].segment;
        let Some(SegmentSample::Point(sample)) = &out[0].sample else {
            panic!("noise canceling keeps the burst as a point sample");
        };
        assert!((18..=24).contains(&seg.start), "start {}", seg.start);
        assert_eq!(sample.duration_frames, seg.len());
        assert!(!sample.cloud.is_empty());
        assert_eq!(
            clock.snapshot().count(),
            1,
            "one assembly per closed segment"
        );
    }

    #[test]
    fn gesture_open_at_stream_end_is_flushed() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let clock = AtomicHistogram::default();
        let mut out = Vec::new();
        for i in 0..45 {
            let points = if i >= 30 { 14 } else { 1 };
            out.extend(session.push(frame(i, points).into(), &pre, &clock));
        }
        assert!(out.is_empty(), "gesture still open");
        out.extend(session.finish(&pre, &clock));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn rd_session_segments_a_burst() {
        let mut session = Session::new_rd(OnlineRdSegmenter::new(RdSegmentConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let clock = AtomicHistogram::default();
        let mut out = Vec::new();
        for i in 0..40 {
            let level = if (10..22).contains(&i) { 20.0 } else { 0.1 };
            out.extend(session.push(rd_frame(i, level).into(), &pre, &clock));
        }
        out.extend(session.finish(&pre, &clock));
        assert_eq!(out.len(), 1, "expected exactly one segment");
        let Some(SegmentSample::Rd(sample)) = &out[0].sample else {
            panic!("RD session closed a non-RD segment");
        };
        assert_eq!((out[0].segment.start, out[0].segment.end), (10, 22));
        assert_eq!(sample.duration_frames, 12);
        assert_eq!(sample.frames.len(), 12);
        // The window's first frame is the segment's start.
        assert!((sample.frames[0].timestamp - 1.0).abs() < 1e-12);
        // Idle tail trimmed the buffer behind the stream head.
        assert!(session.buffered() <= 1, "buffered {}", session.buffered());
        assert_eq!(clock.snapshot().count(), 0, "no point cloud to assemble");
    }

    #[test]
    #[should_panic(expected = "range-Doppler frame pushed into a point-cloud session")]
    fn point_session_rejects_rd_frames() {
        let mut session =
            Session::new_point(OnlineSegmenter::new(SegmenterConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let clock = AtomicHistogram::default();
        session.push(rd_frame(0, 0.1).into(), &pre, &clock);
    }

    #[test]
    #[should_panic(expected = "point-cloud frame pushed into a range-Doppler session")]
    fn rd_session_rejects_point_frames() {
        let mut session = Session::new_rd(OnlineRdSegmenter::new(RdSegmentConfig::default()), None);
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let clock = AtomicHistogram::default();
        session.push(frame(0, 1).into(), &pre, &clock);
    }
}
