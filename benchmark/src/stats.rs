//! Pure helpers behind the benchmark's numbers: tail-percentile
//! selection, the closing-frame map, ground-truth matching and the
//! failure ledger. Everything here is deterministic and unit-tested.

use gp_pipeline::OnlineSegmenter;
use gp_radar::Frame;
use gp_rd::{OnlineRdSegmenter, RdFrame};
use std::collections::HashMap;

/// Percentiles a tail latency may be reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (0.999 × 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Nearest-rank `p`-th percentile of ascending `sorted` values.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p)])
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (`0.0` for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(0.0)
}

/// Splits `(seconds since start, latency ms)` observations into
/// `count` equal windows over `[0, span_s)`; observations after the span
/// (the wind-down) are left out. Returns each window's observation
/// count and its sorted latencies.
pub fn windows(obs: &[(f64, Option<f64>)], span_s: f64, count: usize) -> Vec<(usize, Vec<f64>)> {
    let width = span_s / count as f64;
    let mut out = vec![(0, Vec::new()); count];
    for &(t, latency) in obs {
        let w = (t / width).floor();
        if (0.0..count as f64).contains(&w) {
            let slot = &mut out[w as usize];
            slot.0 += 1;
            slot.1.extend(latency);
        }
    }
    for (_, l) in &mut out {
        l.sort_by(f64::total_cmp);
    }
    out
}

/// CPU milliseconds per item in each of `counts.len()` equal windows of
/// `width_s` seconds: the CPU time the ascending `(seconds, CPU seconds)`
/// `marks` show across the window, over the window's item count (`None`
/// for a window with no items).
pub fn window_costs(marks: &[(f64, f64)], width_s: f64, counts: &[usize]) -> Vec<Option<f64>> {
    let cpu_at = |t: f64| {
        let i = marks.partition_point(|&(at, _)| at <= t);
        marks.get(i.saturating_sub(1)).map_or(0.0, |&(_, cpu)| cpu)
    };
    counts
        .iter()
        .enumerate()
        .map(|(w, &n)| {
            let (a, b) = (w as f64 * width_s, (w + 1) as f64 * width_s);
            (n > 0).then(|| (cpu_at(b) - cpu_at(a)) * 1e3 / n as f64)
        })
        .collect()
}

/// The online segmenters a stream is replayed through, behind one
/// interface so point-cloud and range-Doppler streams share the map.
pub trait StreamSegmenter {
    /// Frame type the segmenter consumes.
    type Frame;
    /// Pushes one frame; `Some((start, end))` when it closes a segment.
    fn push(&mut self, frame: &Self::Frame) -> Option<(usize, usize)>;
    /// Whether no segment is open (closing the stream now emits nothing).
    fn idle(&self) -> bool;
    /// Closes the stream; `Some((start, end))` when that flushes an open
    /// segment.
    fn finish(&mut self) -> Option<(usize, usize)>;
}

impl StreamSegmenter for OnlineSegmenter {
    type Frame = Frame;
    fn push(&mut self, frame: &Frame) -> Option<(usize, usize)> {
        self.push_frame(frame).map(|s| (s.start, s.end))
    }
    fn idle(&self) -> bool {
        !self.in_gesture()
    }
    fn finish(&mut self) -> Option<(usize, usize)> {
        OnlineSegmenter::finish(self).map(|s| (s.start, s.end))
    }
}

impl StreamSegmenter for OnlineRdSegmenter {
    type Frame = RdFrame;
    fn push(&mut self, frame: &RdFrame) -> Option<(usize, usize)> {
        OnlineRdSegmenter::push(self, frame).map(|s| (s.start, s.end))
    }
    fn idle(&self) -> bool {
        !self.in_segment()
    }
    fn finish(&mut self) -> Option<(usize, usize)> {
        OnlineRdSegmenter::finish(self).map(|s| (s.start, s.end))
    }
}

/// One segment of a stream and the frame that closes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closing {
    /// Index of the frame whose push closes the segment; the stream
    /// length for a segment flushed when the session closes.
    pub frame: usize,
    /// Segment start (absolute frame index).
    pub start: usize,
    /// Segment end (exclusive).
    pub end: usize,
}

/// Every segment a stream produces, keyed by the frame that closes it,
/// plus where the stream may stop without leaving a segment open.
#[derive(Debug, Clone, Default)]
pub struct ClosingMap {
    /// Segments in closing order.
    pub closings: Vec<Closing>,
    /// `closes[i]`: index into `closings` of the segment frame `i` closes.
    closes: Vec<Option<usize>>,
    /// `idle[k]`: no segment is open after the first `k` frames.
    idle: Vec<bool>,
}

impl ClosingMap {
    /// Replays `frames` through `segmenter` and records the map.
    pub fn build<S: StreamSegmenter>(mut segmenter: S, frames: &[S::Frame]) -> ClosingMap {
        let mut map = ClosingMap {
            idle: vec![true],
            ..ClosingMap::default()
        };
        for (i, frame) in frames.iter().enumerate() {
            let closed = segmenter.push(frame).map(|(start, end)| {
                map.closings.push(Closing {
                    frame: i,
                    start,
                    end,
                });
                map.closings.len() - 1
            });
            map.closes.push(closed);
            map.idle.push(segmenter.idle());
        }
        if let Some((start, end)) = segmenter.finish() {
            map.closings.push(Closing {
                frame: frames.len(),
                start,
                end,
            });
        }
        map
    }

    /// The segment closing the session after all `k` frames flushes.
    pub fn flushed_at(&self, k: usize) -> Option<usize> {
        let last = self.closings.len().checked_sub(1)?;
        (k == self.closes.len() && self.closings[last].frame == k).then_some(last)
    }

    /// The segment frame `i` closes, if any.
    pub fn closed_by(&self, i: usize) -> Option<usize> {
        self.closes.get(i).copied().flatten()
    }

    /// The segment ending at `end` (segments of one stream never share
    /// an end), as an index into `closings`.
    pub fn by_end(&self, end: usize) -> Option<usize> {
        self.closings.iter().position(|c| c.end == end)
    }

    /// The first prefix length `k >= from` after which no segment is
    /// open, so closing the session there emits nothing extra (the
    /// stream length when the stream ends mid-segment).
    pub fn next_stop(&self, from: usize) -> usize {
        let len = self.closes.len();
        (from..len).find(|&k| self.idle[k]).unwrap_or(len)
    }

    /// Segments closed by a session that saw the first `k` frames and
    /// then closed.
    pub fn closed_within(&self, k: usize) -> usize {
        let flushed = usize::from(self.flushed_at(k).is_some());
        self.closings.iter().take_while(|c| c.frame < k).count() + flushed
    }
}

/// One performed gesture of a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truth {
    /// First frame of the gesture (absolute).
    pub start: usize,
    /// One past its last frame.
    pub end: usize,
    /// Ground-truth gesture class.
    pub gesture: usize,
}

/// The ground-truth gesture a `[start, end)` segment shows: the truth
/// interval it overlaps most (the earlier one on a tie), or `None` when
/// it overlaps none.
pub fn match_truth(truth: &[Truth], start: usize, end: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for t in truth {
        let overlap = end.min(t.end).saturating_sub(start.max(t.start));
        if overlap > 0 && best.is_none_or(|(o, _)| overlap > o) {
            best = Some((overlap, t.gesture));
        }
    }
    best.map(|(_, g)| g)
}

/// What the identity store said about one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Identity {
    /// Classify-mode session: no identity resolution.
    None,
    /// Accepted as this enrolled cohort user.
    Accepted(usize),
    /// Rejected open-set.
    Rejected,
}

/// One verdict on one segment of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The benchmark's session key (not the engine's id).
    pub session: usize,
    /// Segment start.
    pub start: usize,
    /// Segment end (exclusive).
    pub end: usize,
    /// Recognised gesture.
    pub gesture: usize,
    /// Closed-set user.
    pub user: usize,
    /// Gallery outcome.
    pub identity: Identity,
}

/// Served verdicts reconciled against the expected set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Expected verdicts.
    pub expected: usize,
    /// Frames sent.
    pub frames: usize,
    /// Expected verdicts never served.
    pub missing: usize,
    /// Served more than once.
    pub duplicated: usize,
    /// Served with different content, or not expected at all.
    pub mismatched: usize,
    /// Frames shed or rejected on admission.
    pub shed: usize,
}

impl Ledger {
    /// Failed operations: verdict faults plus refused frames.
    pub fn failed(&self) -> usize {
        self.missing + self.duplicated + self.mismatched + self.shed
    }

    /// Attempted operations: expected verdicts plus frames sent.
    pub fn attempted(&self) -> usize {
        self.expected + self.frames
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// Matches `served` against `expected` on `(session, start, end)`: each
/// expected verdict must be served exactly once with bit-identical
/// content.
pub fn reconcile(expected: &[Verdict], served: &[Verdict], frames: usize, shed: usize) -> Ledger {
    let mut seen: HashMap<(usize, usize, usize), (&Verdict, usize)> = expected
        .iter()
        .map(|v| ((v.session, v.start, v.end), (v, 0)))
        .collect();
    let mut ledger = Ledger {
        expected: expected.len(),
        frames,
        shed,
        ..Ledger::default()
    };
    for v in served {
        match seen.get_mut(&(v.session, v.start, v.end)) {
            None => ledger.mismatched += 1,
            Some((want, count)) => {
                *count += 1;
                if *count > 1 {
                    ledger.duplicated += 1;
                } else if *want != v {
                    ledger.mismatched += 1;
                }
            }
        }
    }
    ledger.missing = seen.values().filter(|(_, count)| *count == 0).count();
    ledger
}

/// 64-bit FNV-1a, for provenance hashes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_pipeline::SegmenterConfig;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windows_split_by_observation_time() {
        let obs = [
            (0.1, Some(3.0)),
            (0.9, Some(1.0)),
            (1.2, None),
            (1.5, Some(2.0)),
            (2.0, Some(9.0)),
        ];
        let w = windows(&obs, 2.0, 2);
        assert_eq!(w[0], (2, vec![1.0, 3.0]));
        assert_eq!(
            w[1],
            (2, vec![2.0]),
            "the wind-down after the span is left out"
        );
    }

    #[test]
    fn window_costs_divide_cpu_by_items() {
        let marks = [
            (0.0, 10.0),
            (0.5, 10.2),
            (1.0, 10.4),
            (1.5, 11.0),
            (2.0, 11.6),
        ];
        let costs = window_costs(&marks, 1.0, &[4, 0]);
        assert!(
            (costs[0].unwrap() - 100.0).abs() < 1e-9,
            "0.4 CPU s over 4 items"
        );
        assert_eq!(costs[1], None, "a window without items has no cost");
        let costs = window_costs(&marks, 1.0, &[4, 6]);
        assert!(
            (costs[1].unwrap() - 200.0).abs() < 1e-9,
            "1.2 CPU s over 6 items"
        );
    }

    #[test]
    fn closing_map_matches_the_online_segmenter() {
        let stream = gp_testkit::stream_fixture();
        let config = SegmenterConfig::default();
        let map = ClosingMap::build(OnlineSegmenter::new(config.clone()), &stream.frames);
        assert!(!map.closings.is_empty(), "fixture stream must segment");

        let mut live = OnlineSegmenter::new(config);
        let mut closed = 0;
        assert!(
            map.closings.iter().all(|c| c.frame < stream.frames.len()),
            "fixture ends idle"
        );
        for (i, frame) in stream.frames.iter().enumerate() {
            match live.push_frame(frame) {
                Some(seg) => {
                    let c = map.closings[map.closed_by(i).expect("map knows the closing frame")];
                    assert_eq!((c.frame, c.start, c.end), (i, seg.start, seg.end));
                    assert_eq!(map.by_end(seg.end), map.closed_by(i));
                    closed += 1;
                }
                None => assert_eq!(map.closed_by(i), None, "frame {i}"),
            }
            assert_eq!(map.closed_within(i + 1), closed);
            // A stop point leaves nothing for `finish` to flush.
            if i + 1 < stream.frames.len() && map.next_stop(i + 1) == i + 1 {
                assert!(live.clone().finish().is_none(), "frame {i}");
            }
        }
        assert_eq!(closed, map.closings.len());
        assert_eq!(map.flushed_at(stream.frames.len()), None);

        // Cut mid-gesture, the close flushes the open segment.
        let c = map.closings[0];
        let cut = &stream.frames[..c.frame];
        let partial = ClosingMap::build(OnlineSegmenter::new(SegmenterConfig::default()), cut);
        let flushed = partial
            .flushed_at(cut.len())
            .expect("the open gesture is flushed");
        assert_eq!(partial.closings[flushed].frame, cut.len());
        assert_eq!(partial.closings[flushed].start, c.start);
        assert_eq!(partial.closed_within(cut.len()), 1);
        assert_eq!(partial.closed_within(cut.len() - 1), 0);
    }

    #[test]
    fn truth_matching_takes_the_largest_overlap() {
        let truth = [
            Truth {
                start: 10,
                end: 20,
                gesture: 3,
            },
            Truth {
                start: 30,
                end: 45,
                gesture: 7,
            },
        ];
        assert_eq!(match_truth(&truth, 12, 18), Some(3));
        assert_eq!(match_truth(&truth, 15, 40), Some(7));
        assert_eq!(
            match_truth(&truth, 15, 35),
            Some(3),
            "tie goes to the earlier"
        );
        assert_eq!(match_truth(&truth, 20, 30), None);
        assert_eq!(match_truth(&[], 0, 5), None);
    }

    fn verdict(session: usize, start: usize, gesture: usize) -> Verdict {
        Verdict {
            session,
            start,
            end: start + 5,
            gesture,
            user: 1,
            identity: Identity::None,
        }
    }

    #[test]
    fn ledger_counts_every_fault_once() {
        let expected = [verdict(0, 0, 1), verdict(0, 10, 2), verdict(1, 0, 3)];
        let clean = reconcile(&expected, &expected, 100, 0);
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.attempted(), 103);
        assert_eq!(clean.fail_frac(), 0.0);

        let served = [
            verdict(0, 0, 1),
            verdict(0, 0, 1),  // duplicate
            verdict(0, 10, 9), // wrong gesture
            verdict(2, 0, 3),  // unexpected session
        ];
        let ledger = reconcile(&expected, &served, 100, 2);
        assert_eq!(ledger.missing, 1);
        assert_eq!(ledger.duplicated, 1);
        assert_eq!(ledger.mismatched, 2);
        assert_eq!(ledger.shed, 2);
        assert_eq!(ledger.failed(), 6);
        assert!((ledger.fail_frac() - 6.0 / 103.0).abs() < 1e-12);
    }
}
