//! The serve event/result bus and per-session latency accounting.
//!
//! Workers publish one [`ServeEvent`] per classified segment; the bus
//! also keeps running per-session counters (frames in, segments
//! detected, results out) and a per-session [`Histogram`] of
//! segment-to-result latencies that backs the p50/p99 numbers in
//! [`ServeStats`]. Histograms are bounded-memory and merge *exactly*,
//! so folding evicted sessions into the aggregate weighs every sample
//! once — unlike the fixed sample ring this replaced, where later
//! sessions' samples silently overwrote earlier ones.

use crate::session::SessionId;
use gestureprint_core::{Inference, SensingBackend};
use gp_pipeline::GestureSegment;
use gp_telemetry::{Histogram, SpanId};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// One classified gesture segment flowing out of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Session the segment came from.
    pub session: SessionId,
    /// Global dispatch sequence number (ascending within a session in
    /// segment order).
    pub seq: u64,
    /// Stage-tracing span minted when the frame that closed this
    /// segment was admitted.
    pub span: SpanId,
    /// Segment boundaries in the session's absolute frame indices.
    pub segment: GestureSegment,
    /// Which sensing backend inferred this segment — range-Doppler for
    /// RD sessions and for sparse point-cloud segments the hybrid
    /// fallback re-routed.
    pub backend: SensingBackend,
    /// The two-task inference result (gesture + user + probabilities).
    pub inference: Inference,
    /// What the identity store did with this segment — `None` for
    /// plain classification sessions or when the engine has no store.
    pub identity: Option<IdentityOutcome>,
    /// Segment-detected → result-published latency.
    pub latency: Duration,
}

/// The identity store's verdict on one segment, for sessions in an
/// enrollment or identification mode (see
/// [`crate::engine::SessionMode`]).
#[derive(Debug, Clone, PartialEq)]
pub enum IdentityOutcome {
    /// The segment's embedding was folded into `user`'s gallery
    /// template.
    Enrolled {
        /// The user enrolled into.
        user: String,
        /// That user's gallery sample count after this enrollment.
        samples: u64,
    },
    /// Open-set identification accepted the nearest gallery user.
    Identified {
        /// The accepted user.
        user: String,
        /// Distance from the probe embedding to that user's centroid.
        distance: f64,
    },
    /// Open-set identification rejected the probe: nobody in the
    /// gallery was within the calibrated threshold.
    Unknown {
        /// Distance to the nearest (rejected) centroid, when the
        /// gallery was not empty.
        distance: Option<f64>,
    },
}

#[derive(Debug, Default, Clone)]
struct SessionCounters {
    frames: u64,
    segments: u64,
    /// Segments whose sample survived noise canceling and was enqueued
    /// for inference — the session is *settled* once `results` catches
    /// up with this.
    enqueued: u64,
    results: u64,
    /// Frames dropped by load shedding
    /// ([`crate::ServeEngine::try_push_frame`] on a saturated engine).
    shed_frames: u64,
    /// Frames dropped by the session's own admission budget.
    shed_budget: u64,
    /// Frames a front-end deferred (admission retried later) because
    /// the engine was saturated while the session was within budget.
    deferred: u64,
    /// Segments whose embedding was enrolled into the identity store's
    /// gallery on behalf of this session.
    enrolled: u64,
    /// Segment-to-result latency histogram: bounded memory, every
    /// sample weighed (no reservoir sampling).
    latency: Histogram,
}

#[derive(Debug, Default)]
struct BusInner {
    events: Vec<ServeEvent>,
    sessions: BTreeMap<SessionId, SessionCounters>,
    /// Closed sessions in close order (tagged with their close epoch),
    /// awaiting possible eviction.
    closed: std::collections::VecDeque<(u64, SessionId)>,
    /// Monotonic count of [`EventBus::mark_closed`] calls; each closed
    /// entry carries the value at its close as an eligibility epoch.
    closes: u64,
    /// Aggregate of evicted closed sessions (so totals stay correct
    /// after their per-session entries are dropped).
    evicted: SessionCounters,
    /// Number of closed sessions folded into `evicted`.
    evicted_sessions: u64,
}

/// Internal bus shared by the engine and its workers.
#[derive(Debug, Default)]
pub(crate) struct EventBus {
    inner: Mutex<BusInner>,
}

impl EventBus {
    fn lock(&self) -> std::sync::MutexGuard<'_, BusInner> {
        self.inner.lock().expect("event bus poisoned")
    }

    pub(crate) fn register_session(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default();
    }

    /// Persists a closed session's final frame count (live sessions
    /// keep the count in their own state, off the per-frame hot path).
    pub(crate) fn set_frames(&self, id: SessionId, frames: u64) {
        self.lock().sessions.entry(id).or_default().frames = frames;
    }

    pub(crate) fn record_segment(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default().segments += 1;
    }

    /// Records one segment enqueued for inference.
    pub(crate) fn record_enqueued(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default().enqueued += 1;
    }

    /// Records one frame dropped by load shedding.
    pub(crate) fn record_shed_frame(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default().shed_frames += 1;
    }

    /// Records one frame dropped by the session's own admission budget.
    pub(crate) fn record_shed_budget(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default().shed_budget += 1;
    }

    /// Records one frame a front-end deferred for later re-admission.
    pub(crate) fn record_deferred(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default().deferred += 1;
    }

    /// Records one segment enrolled into the identity gallery.
    pub(crate) fn record_enrolled(&self, id: SessionId) {
        self.lock().sessions.entry(id).or_default().enrolled += 1;
    }

    /// Whether every segment the session enqueued has published its
    /// result. Sessions already folded into the evicted aggregate were
    /// settled by construction (eviction requires final accounting).
    pub(crate) fn is_settled(&self, id: SessionId) -> bool {
        self.lock()
            .sessions
            .get(&id)
            .is_none_or(|c| c.results == c.enqueued)
    }

    /// Records that a session was closed; it becomes a candidate for
    /// [`EventBus::sweep_closed`]. Callers must mark a session closed
    /// only *after* enqueuing its final segment, so any sweep whose
    /// eligibility epoch covers this close also covers that segment.
    pub(crate) fn mark_closed(&self, id: SessionId) {
        let mut inner = self.lock();
        let epoch = inner.closes;
        inner.closes += 1;
        inner.closed.push_back((epoch, id));
    }

    /// The current close epoch — a snapshot taken *before* a flush
    /// bounds which closed sessions that drain may evict.
    pub(crate) fn close_epoch(&self) -> u64 {
        self.lock().closes
    }

    /// Folds the oldest closed sessions into the evicted aggregate
    /// until at most `retain` closed sessions keep their own entry,
    /// considering only sessions closed before `up_to_epoch`.
    ///
    /// The epoch bound is what makes eviction race-free against
    /// concurrent `close_session` calls: the engine snapshots
    /// [`EventBus::close_epoch`] before `flush`, so every eligible
    /// session's final segment was dispatched by that flush and
    /// published before the engine's gate emptied — its counters are
    /// final, folding them keeps every aggregate total exact, and a
    /// published result can never resurrect an evicted session's entry.
    pub(crate) fn sweep_closed(&self, retain: usize, up_to_epoch: u64) {
        let mut inner = self.lock();
        while inner.closed.len() > retain
            && inner
                .closed
                .front()
                .is_some_and(|&(epoch, _)| epoch < up_to_epoch)
        {
            let (_, id) = inner.closed.pop_front().expect("front checked above");
            if let Some(c) = inner.sessions.remove(&id) {
                inner.evicted_sessions += 1;
                inner.evicted.frames += c.frames;
                inner.evicted.segments += c.segments;
                inner.evicted.enqueued += c.enqueued;
                inner.evicted.results += c.results;
                inner.evicted.shed_frames += c.shed_frames;
                inner.evicted.shed_budget += c.shed_budget;
                inner.evicted.deferred += c.deferred;
                inner.evicted.enrolled += c.enrolled;
                // Exact: bucket-wise addition. The old sample ring
                // overwrote older evicted sessions' samples here,
                // skewing the aggregate percentiles towards whichever
                // session was folded last.
                inner.evicted.latency.merge(&c.latency);
            }
        }
    }

    pub(crate) fn publish(&self, event: ServeEvent) {
        let mut inner = self.lock();
        let counters = inner.sessions.entry(event.session).or_default();
        counters.results += 1;
        counters.latency.record_duration(event.latency);
        inner.events.push(event);
    }

    /// Drains all published events.
    pub(crate) fn take_events(&self) -> Vec<ServeEvent> {
        std::mem::take(&mut self.lock().events)
    }

    /// Snapshot of one session's counters without cloning the whole
    /// bus — the per-goodbye path for network fronts, O(1) in the
    /// number of sessions.
    pub(crate) fn session_stats(&self, id: SessionId) -> Option<SessionStats> {
        self.lock().sessions.get(&id).map(snapshot)
    }

    /// Snapshot of the accumulated per-session statistics.
    pub(crate) fn stats(&self) -> ServeStats {
        let inner = self.lock();
        ServeStats {
            sessions: inner
                .sessions
                .iter()
                .map(|(&id, c)| (id, snapshot(c)))
                .collect(),
            evicted_sessions: inner.evicted_sessions,
            evicted: snapshot(&inner.evicted),
        }
    }
}

/// Builds the public [`SessionStats`] view of one session's counters.
fn snapshot(c: &SessionCounters) -> SessionStats {
    SessionStats {
        frames: c.frames,
        segments: c.segments,
        enqueued: c.enqueued,
        results: c.results,
        shed_frames: c.shed_frames,
        shed_budget: c.shed_budget,
        deferred: c.deferred,
        enrolled: c.enrolled,
        latency: c.latency.clone(),
    }
}

/// Accumulated counters for one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Frames pushed into the session — every one of these was
    /// *admitted* (shed frames never enter the session).
    pub frames: u64,
    /// Segments the online segmenter closed, including those noise
    /// canceling then dropped — `segments - results` is the session's
    /// drop count once its batches have drained.
    pub segments: u64,
    /// Segments whose sample survived noise canceling and was enqueued
    /// for inference. Once a session is closed, `results == enqueued`
    /// means its accounting is final
    /// ([`crate::ServeEngine::session_settled`]).
    pub enqueued: u64,
    /// Classified results published for the session.
    pub results: u64,
    /// Frames dropped because the *engine* was saturated: offered
    /// through [`crate::ServeEngine::try_push_frame`] while the global
    /// gate was full. Not included in [`SessionStats::frames`] — shed
    /// frames never enter the session.
    pub shed_frames: u64,
    /// Frames dropped by the session's *own* admission budget
    /// ([`crate::AdmissionConfig`]): the over-rate tenant pays for its
    /// excess itself. Also never included in [`SessionStats::frames`].
    pub shed_budget: u64,
    /// Frames a network front deferred at least once (engine saturated
    /// while the session was within budget) before they were admitted.
    /// Deferred frames that were eventually admitted *are* counted in
    /// [`SessionStats::frames`].
    pub deferred: u64,
    /// Segments whose embedding this session enrolled into the
    /// identity gallery (sessions in an enrollment mode only).
    pub enrolled: u64,
    /// Segment-to-result latency histogram (µs buckets): every result
    /// is weighed, memory stays fixed, and histograms from different
    /// sessions merge exactly.
    pub latency: Histogram,
}

impl SessionStats {
    /// Frames admitted into the session — an alias for
    /// [`SessionStats::frames`], named for the admission ledger
    /// (`admitted + shed_frames + shed_budget` = frames offered).
    pub fn admitted(&self) -> u64 {
        self.frames
    }

    /// The `p`-th latency percentile (`0.0..=100.0`), nearest-rank over
    /// the histogram buckets: exact at the extremes, within one
    /// sub-bucket (≤25%, never under-reporting) elsewhere.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        self.latency.percentile_duration(p)
    }
}

/// A point-in-time snapshot of the engine's accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Per-session counters, keyed by session id. Live sessions plus
    /// the most recently closed ones; older closed sessions are folded
    /// into [`ServeStats::evicted`].
    pub sessions: BTreeMap<SessionId, SessionStats>,
    /// Closed sessions whose per-session entries were evicted.
    pub evicted_sessions: u64,
    /// Aggregate counters of the evicted sessions — included in every
    /// `total_*` so eviction never changes the totals.
    pub evicted: SessionStats,
}

impl ServeStats {
    /// Total frames pushed across all sessions (evicted included).
    pub fn total_frames(&self) -> u64 {
        self.sessions.values().map(|s| s.frames).sum::<u64>() + self.evicted.frames
    }

    /// Total segments closed across all sessions (evicted included, and
    /// including segments noise canceling then dropped).
    pub fn total_segments(&self) -> u64 {
        self.sessions.values().map(|s| s.segments).sum::<u64>() + self.evicted.segments
    }

    /// Total results published across all sessions (evicted included).
    pub fn total_results(&self) -> u64 {
        self.sessions.values().map(|s| s.results).sum::<u64>() + self.evicted.results
    }

    /// Total frames dropped by engine-saturation load shedding across
    /// all sessions (evicted included).
    pub fn total_shed_frames(&self) -> u64 {
        self.sessions.values().map(|s| s.shed_frames).sum::<u64>() + self.evicted.shed_frames
    }

    /// Total frames dropped by per-session admission budgets across all
    /// sessions (evicted included).
    pub fn total_shed_budget(&self) -> u64 {
        self.sessions.values().map(|s| s.shed_budget).sum::<u64>() + self.evicted.shed_budget
    }

    /// The `p`-th segment-to-result latency percentile across all
    /// sessions, evicted aggregate included — an exact merge of every
    /// session's histogram.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        self.pooled_latency().percentile_duration(p)
    }

    /// The exact merge of every session's latency histogram (evicted
    /// aggregate included).
    pub fn pooled_latency(&self) -> Histogram {
        let mut pooled = self.evicted.latency.clone();
        for s in self.sessions.values() {
            pooled.merge(&s.latency);
        }
        pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn hist_of(samples: &[Duration]) -> Histogram {
        let mut h = Histogram::new();
        for &d in samples {
            h.record_duration(d);
        }
        h
    }

    #[test]
    fn stats_aggregate_across_sessions() {
        let stats = ServeStats {
            sessions: [
                (
                    SessionId(1),
                    SessionStats {
                        frames: 10,
                        segments: 2,
                        results: 2,
                        latency: hist_of(&[ms(1), ms(3)]),
                        ..Default::default()
                    },
                ),
                (
                    SessionId(2),
                    SessionStats {
                        frames: 5,
                        segments: 1,
                        results: 1,
                        latency: hist_of(&[ms(2)]),
                        ..Default::default()
                    },
                ),
            ]
            .into_iter()
            .collect(),
            ..Default::default()
        };
        assert_eq!(stats.total_frames(), 15);
        assert_eq!(stats.total_results(), 3);
        // Percentiles bracket the true nearest-rank value: exact at
        // the extremes, within one log-linear sub-bucket in between.
        let p50 = stats.latency_percentile(50.0).unwrap();
        assert!(p50 >= ms(2) && p50 <= ms(2) + ms(2) / 4, "p50 = {p50:?}");
        assert_eq!(stats.latency_percentile(100.0), Some(ms(3)));
        assert_eq!(stats.latency_percentile(0.0), Some(ms(1)));
        assert_eq!(stats.pooled_latency().count(), 3);
    }

    #[test]
    fn eviction_merges_latency_histograms_exactly() {
        // Regression test for the old fixed-ring aggregate: folding
        // two evicted sessions with > ring-size samples each used to
        // leave only the *last* session's samples in the aggregate,
        // reporting its latency as the evicted p50/p99. Histograms
        // merge bucket-wise, so the pooled percentiles weigh every
        // session's every sample.
        let bus = EventBus::default();
        let (fast, slow) = (SessionId(1), SessionId(2));
        for id in [fast, slow] {
            bus.register_session(id);
        }
        for i in 0..600u64 {
            for (id, latency) in [(fast, ms(1)), (slow, ms(100))] {
                bus.publish(ServeEvent {
                    session: id,
                    seq: i,
                    span: SpanId(i),
                    segment: GestureSegment {
                        start: i as usize,
                        end: i as usize + 1,
                    },
                    backend: SensingBackend::PointCloud,
                    inference: Inference {
                        gesture: 0,
                        user: 0,
                        gesture_probs: Vec::new(),
                        user_probs: Vec::new(),
                        embedding: None,
                    },
                    identity: None,
                    latency,
                });
            }
        }
        bus.mark_closed(fast);
        bus.mark_closed(slow);
        bus.sweep_closed(0, bus.close_epoch());

        let stats = bus.stats();
        assert_eq!(stats.evicted_sessions, 2);
        // Every sample survived the fold…
        assert_eq!(stats.evicted.latency.count(), 1200);
        // …so the merged distribution still sees the fast session:
        // half the mass is at 1 ms (the ring would have reported
        // ~100 ms here), and the extremes are exact.
        let p25 = stats.evicted.latency_percentile(25.0).unwrap();
        assert!(p25 <= ms(1) + ms(1) / 4, "p25 = {p25:?} skewed high");
        assert_eq!(stats.evicted.latency_percentile(0.0), Some(ms(1)));
        assert_eq!(stats.evicted.latency_percentile(100.0), Some(ms(100)));
        let p99 = stats.evicted.latency_percentile(99.0).unwrap();
        assert!(
            p99 >= ms(100) && p99 <= ms(100) + ms(100) / 4,
            "p99 = {p99:?}"
        );
    }

    #[test]
    fn sweep_folds_oldest_closed_sessions_into_aggregate() {
        let bus = EventBus::default();
        for i in 0..5u64 {
            let id = SessionId(i);
            bus.register_session(id);
            bus.set_frames(id, 10 + i);
            bus.record_segment(id);
            bus.mark_closed(id);
        }
        let before = bus.stats();
        assert_eq!(before.sessions.len(), 5);
        let (frames, segments) = (before.total_frames(), before.total_segments());

        bus.sweep_closed(2, bus.close_epoch());
        let after = bus.stats();
        // The two most recently closed keep their entries…
        assert_eq!(
            after.sessions.keys().copied().collect::<Vec<_>>(),
            vec![SessionId(3), SessionId(4)]
        );
        assert_eq!(after.evicted_sessions, 3);
        // …and every aggregate total is unchanged by eviction.
        assert_eq!(after.total_frames(), frames);
        assert_eq!(after.total_segments(), segments);

        // Sweeping again with room to spare is a no-op.
        bus.sweep_closed(2, bus.close_epoch());
        assert_eq!(bus.stats(), after);
    }

    #[test]
    fn sweep_respects_the_eligibility_epoch() {
        let bus = EventBus::default();
        for i in 0..3u64 {
            bus.register_session(SessionId(i));
            bus.mark_closed(SessionId(i));
        }
        let snapshot = bus.close_epoch();
        // Sessions closed after the snapshot (a racing `close_session`)
        // must survive a sweep bounded by it, even with `retain: 0`.
        for i in 3..6u64 {
            bus.register_session(SessionId(i));
            bus.mark_closed(SessionId(i));
        }
        bus.sweep_closed(0, snapshot);
        let stats = bus.stats();
        assert_eq!(stats.evicted_sessions, 3);
        assert_eq!(
            stats.sessions.keys().copied().collect::<Vec<_>>(),
            vec![SessionId(3), SessionId(4), SessionId(5)]
        );
    }
}
