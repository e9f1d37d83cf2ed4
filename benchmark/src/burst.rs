//! `point_burst` / `rd_burst`: one generator thread pushes a pool of
//! pre-generated streams into many concurrent in-process sessions,
//! round-robin and as fast as each push returns. A session whose stream
//! ends is closed and replaced by a fresh session replaying the next
//! stream of the pool, until the run's time is up; then every live
//! session runs on to its next stop point (no gesture open) and closes,
//! and `drain` collects the rest. A second thread polls published
//! verdicts meanwhile, so each verdict's latency is read as it appears.

use crate::cpu;
use crate::inputs::Stream;
use crate::stats::{Identity, Verdict};
use crate::trace::Tracer;
use gp_radar::Frame;
use gp_rd::RdFrame;
use gp_serve::{ServeEngine, ServeEvent, SessionId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How often the verdict poller looks for published events.
const POLL: Duration = Duration::from_millis(1);
/// Sessions live at once.
pub const SLOTS: usize = 48;

/// The session API of one sensing backend.
pub trait Feed {
    /// The frames this backend's sessions consume.
    type Frame: Clone;
    /// Opens a session.
    fn open(engine: &ServeEngine) -> SessionId;
    /// Pushes one frame; returns the segments it completed.
    fn push(engine: &ServeEngine, id: SessionId, frame: Self::Frame) -> usize;
}

/// Point-cloud sessions (`open_session` / `push_frame`).
pub struct PointFeed;

impl Feed for PointFeed {
    type Frame = Frame;
    fn open(engine: &ServeEngine) -> SessionId {
        engine.open_session()
    }
    fn push(engine: &ServeEngine, id: SessionId, frame: Frame) -> usize {
        engine.push_frame(id, frame)
    }
}

/// Range-Doppler sessions (`open_rd_session` / `push_rd_frame`).
pub struct RdFeed;

impl Feed for RdFeed {
    type Frame = RdFrame;
    fn open(engine: &ServeEngine) -> SessionId {
        engine.open_rd_session()
    }
    fn push(engine: &ServeEngine, id: SessionId, frame: RdFrame) -> usize {
        engine.push_rd_frame(id, frame)
    }
}

/// One served verdict with its latency.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// The verdict, keyed on the benchmark's session key.
    pub verdict: Verdict,
    /// The closing push (or close) returned → verdict observed (ms);
    /// `None` when the verdict matches no segment of its stream.
    pub latency_ms: Option<f64>,
    /// When the verdict was observed (s since the first push).
    pub at_s: f64,
}

/// Everything one burst run observed.
#[derive(Debug)]
pub struct BurstRun {
    /// Per session key: the pool stream replayed and frames pushed.
    pub sessions: Vec<(usize, usize)>,
    /// Published verdicts.
    pub served: Vec<Served>,
    /// Frames pushed.
    pub frames: usize,
    /// Pushes and closes whose completed-segment count disagreed with
    /// the closing map.
    pub push_mismatches: usize,
    /// First push → `drain` returned (s).
    pub wall_s: f64,
    /// The final `drain` call (ms).
    pub drain_ms: f64,
    /// CPU seconds the serving side used, first push to `drain`
    /// returned: the whole process less the verdict poller and the probe.
    pub cpu_s: f64,
    /// `(seconds since the first push, serving-side CPU seconds)`,
    /// sampled at every poll.
    pub cpu_marks: Vec<(f64, f64)>,
    /// Mean CPU seconds of one reference kernel run ([`cpu::probe`]).
    pub reference_s: f64,
    /// Spans, when tracing.
    pub tracer: Tracer,
}

struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

struct Slot {
    id: SessionId,
    key: usize,
    stream: usize,
    pos: usize,
    stop: usize,
}

/// Runs the burst for about `seconds` over `streams`, with [`SLOTS`]
/// sessions live at a time.
pub fn run<F: Feed>(
    engine: &ServeEngine,
    streams: &[Stream<F::Frame>],
    seconds: f64,
    epoch: Instant,
    tracing: bool,
) -> BurstRun
where
    F::Frame: Sync,
{
    let mut tracer = Tracer::new(epoch, 1, tracing);
    let stop_polling = AtomicBool::new(false);
    let mut sessions: Vec<(usize, usize)> = Vec::new();
    let mut engine_ids: HashMap<SessionId, usize> = HashMap::new();
    // (session key, segment end) → when the closing push returned.
    let mut closed_at: HashMap<(usize, usize), Instant> = HashMap::new();
    let mut frames = 0;
    let mut push_mismatches = 0;

    let probe_spent = AtomicU64::new(0);
    let cpu_start = cpu::process_s();
    let (events, marks, start, drained, drain_ms, poller_cpu_s, reference_s) =
        std::thread::scope(|s| {
            let poller = s.spawn(|| {
                let mut seen: Vec<(ServeEvent, Instant)> = Vec::new();
                let mut marks: Vec<(Instant, f64)> = Vec::new();
                loop {
                    let done = stop_polling.load(Ordering::Acquire);
                    let batch = engine.poll_events();
                    let at = Instant::now();
                    let serving = cpu::process_s() - cpu::thread_s() - cpu::spent_s(&probe_spent);
                    marks.push((at, serving));
                    seen.extend(batch.into_iter().map(|e| (e, at)));
                    if done {
                        return (seen, marks, cpu::thread_s());
                    }
                    std::thread::sleep(POLL);
                }
            });

            let prober = s.spawn(|| cpu::probe(&stop_polling, &probe_spent));
            // Releases the poller and the probe even if the generator panics,
            // so the scope can join them and the panic surfaces instead of
            // hanging.
            let _release = Release(&stop_polling);
            let start = Instant::now();
            let deadline = start + Duration::from_secs_f64(seconds);
            let mut open =
                |stream: usize, tracer: &mut Tracer, sessions: &mut Vec<(usize, usize)>| {
                    let key = sessions.len();
                    let id = tracer.span("serve.open_session", 0, key as u64, || F::open(engine));
                    engine_ids.insert(id, key);
                    sessions.push((stream, 0));
                    Slot {
                        id,
                        key,
                        stream,
                        pos: 0,
                        stop: streams[stream].frames.len(),
                    }
                };
            let live = SLOTS.min(streams.len());
            let mut slots: Vec<Slot> = (0..live)
                .map(|s| open(s, &mut tracer, &mut sessions))
                .collect();
            let mut next_stream = live % streams.len();
            let mut stopping = false;
            while !slots.is_empty() {
                let mut i = 0;
                while i < slots.len() {
                    if slots[i].pos >= slots[i].stop {
                        let slot = &slots[i];
                        let map = &streams[slot.stream].map;
                        let start = Instant::now();
                        let flushed = engine.close_session(slot.id);
                        let done = Instant::now();
                        tracer.record("serve.close_session", start, done, 0, slot.key as u64);
                        let expected = map.flushed_at(slot.pos);
                        if flushed != usize::from(expected.is_some()) {
                            push_mismatches += 1;
                        }
                        if let Some(j) = expected {
                            closed_at.insert((slot.key, map.closings[j].end), done);
                        }
                        sessions[slot.key].1 = slot.pos;
                        if stopping {
                            slots.swap_remove(i);
                            continue;
                        }
                        slots[i] = open(next_stream, &mut tracer, &mut sessions);
                        next_stream = (next_stream + 1) % streams.len();
                    }
                    let slot = &mut slots[i];
                    let stream = &streams[slot.stream];
                    let closes = stream.map.closed_by(slot.pos);
                    let frame = stream.frames[slot.pos].clone();
                    let pushed = Instant::now();
                    let completed = F::push(engine, slot.id, frame);
                    let done = Instant::now();
                    let name = if closes.is_some() {
                        "serve.push_close"
                    } else {
                        "serve.push"
                    };
                    tracer.record(name, pushed, done, 0, slot.key as u64);
                    if completed != usize::from(closes.is_some()) {
                        push_mismatches += 1;
                    }
                    if let Some(j) = closes {
                        closed_at.insert((slot.key, stream.map.closings[j].end), done);
                    }
                    slot.pos += 1;
                    frames += 1;
                    i += 1;
                }
                if !stopping && Instant::now() >= deadline {
                    stopping = true;
                    for slot in &mut slots {
                        slot.stop = streams[slot.stream].map.next_stop(slot.pos);
                    }
                }
            }
            let drain_start = Instant::now();
            let drained = engine.drain();
            let drained_at = Instant::now();
            tracer.record("serve.drain", drain_start, drained_at, 0, 0);
            stop_polling.store(true, Ordering::Release);
            let (mut events, marks, poller_cpu_s) = poller.join().expect("verdict poller panicked");
            let reference_s = prober.join().expect("reference probe panicked");
            events.extend(drained.into_iter().map(|e| (e, drained_at)));
            let drain_ms = drained_at.duration_since(drain_start).as_secs_f64() * 1e3;
            (
                events,
                marks,
                start,
                drained_at,
                drain_ms,
                poller_cpu_s,
                reference_s,
            )
        });
    let cpu_s = cpu::process_s() - cpu_start - poller_cpu_s - cpu::spent_s(&probe_spent);
    let cpu_marks = marks
        .into_iter()
        .map(|(at, cpu)| (at.saturating_duration_since(start).as_secs_f64(), cpu))
        .collect();

    let served = events
        .into_iter()
        .map(|(e, at)| {
            let key = engine_ids[&e.session];
            let end = e.segment.end;
            let latency_ms = closed_at.get(&(key, end)).map(|&done| {
                tracer.record(
                    "burst.verdict",
                    done,
                    at,
                    0,
                    ((key as u64) << 32) | end as u64,
                );
                at.saturating_duration_since(done).as_secs_f64() * 1e3
            });
            Served {
                verdict: Verdict {
                    session: key,
                    start: e.segment.start,
                    end,
                    gesture: e.inference.gesture,
                    user: e.inference.user,
                    identity: if e.identity.is_some() {
                        Identity::Rejected
                    } else {
                        Identity::None
                    },
                },
                latency_ms,
                at_s: at.saturating_duration_since(start).as_secs_f64(),
            }
        })
        .collect();
    BurstRun {
        sessions,
        served,
        frames,
        push_mismatches,
        wall_s: drained.duration_since(start).as_secs_f64(),
        drain_ms,
        cpu_s,
        cpu_marks,
        reference_s,
        tracer,
    }
}
