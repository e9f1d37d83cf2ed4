//! `point_socket`: open-loop, fixed-rate replay over loopback TCP.
//!
//! Each connection replays one stream on its own schedule: frame `i` is
//! due at `start + offset + i / RATE_FPS`, whether or not earlier
//! verdicts have arrived. A verdict's latency runs from the instant its
//! closing frame was *due* to the instant the client reads it, so a
//! stall is charged to every frame queued behind it.

use crate::cpu;
use crate::inputs::Stream;
use crate::stats::{Identity, Verdict};
use crate::trace::Tracer;
use gp_net::{ClientResult, IdentityOutcome, NetClient, WireLedger};
use gp_radar::Frame;
use gp_serve::ServeEngine;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frames per second each connection replays at.
pub const RATE_FPS: f64 = 1500.0;
/// Concurrent connections (one stream, one cohort user each).
pub const CONNECTIONS: usize = 2;
/// A run whose sends ran later than this at p99 (ms) is invalid: the
/// generator no longer kept its schedule. Host stalls on a shared
/// 2-core VM delay sends by tens of ms; a generator that falls behind
/// drifts by far more.
pub const LATE_P99_BOUND_MS: f64 = 100.0;
/// A run whose backlog grew by more than this many segments between its
/// first and last quarter is invalid: the server no longer keeps up. A
/// server 10% short of capacity grows it by ~90 segments over a run.
pub const BACKLOG_GROWTH_BOUND: f64 = 20.0;
/// How often results are polled while waiting for the next due frame.
const POLL: Duration = Duration::from_micros(100);
/// How often the backlog is sampled.
const BACKLOG_EVERY: Duration = Duration::from_millis(100);
/// How often the serving side's CPU time is sampled.
const CPU_EVERY: Duration = Duration::from_millis(5);
/// Longest wait for the last verdicts after the final frame.
const SETTLE: Duration = Duration::from_secs(10);

/// One result as the client read it.
#[derive(Debug, Clone)]
pub struct Read {
    /// The verdict, keyed on the connection index.
    pub verdict: Verdict,
    /// Due time of the closing frame → read (ms); `None` when the
    /// result matches no segment of the stream.
    pub latency_ms: Option<f64>,
    /// When the client read it (s since the schedule started).
    pub at_s: f64,
}

/// Everything one socket run observed.
#[derive(Debug)]
pub struct SocketRun {
    /// Results in read order.
    pub reads: Vec<Read>,
    /// Per-frame lateness of the send against its due time (ms).
    pub late_ms: Vec<f64>,
    /// `(seconds since start, unanswered closing frames + outstanding)`.
    pub backlog: Vec<(f64, f64)>,
    /// Frames sent over all connections.
    pub frames: usize,
    /// Final per-connection admission ledgers.
    pub ledgers: Vec<WireLedger>,
    /// First due frame → last result read (s).
    pub wall_s: f64,
    /// CPU seconds the serving side used over the run: the whole process
    /// less the client threads and the probe.
    pub cpu_s: f64,
    /// `(seconds since the schedule started, serving-side CPU seconds)`,
    /// sampled by the first client thread: the process less that thread
    /// and the probe, so with one client thread the whole load generator
    /// is left out.
    pub cpu_marks: Vec<(f64, f64)>,
    /// Mean CPU seconds of one reference kernel run ([`cpu::probe`]).
    pub reference_s: f64,
    /// Spans, when tracing.
    pub tracer: Tracer,
}

fn identity(outcome: &Option<IdentityOutcome>) -> Identity {
    match outcome {
        Some(IdentityOutcome::Identified { user, .. }) => {
            crate::inputs::parse_user(user).map_or(Identity::Rejected, Identity::Accepted)
        }
        Some(IdentityOutcome::Unknown { .. }) => Identity::Rejected,
        Some(IdentityOutcome::Enrolled { .. }) | None => Identity::None,
    }
}

struct Conn<'a> {
    index: usize,
    /// `None` once closed.
    client: Option<NetClient>,
    stream: &'a Stream<Frame>,
    offset: Duration,
    pos: usize,
    /// Kept segments whose closing frame was sent / whose verdict was read.
    closings_sent: usize,
    answered: usize,
}

impl Conn<'_> {
    fn due(&self, start: Instant, frame: usize) -> Instant {
        start + self.offset + Duration::from_secs_f64(frame as f64 / RATE_FPS)
    }
}

struct Shared<'a> {
    start: Instant,
    engine: &'a ServeEngine,
    /// CPU time the reference probe has used ([`cpu::probe`]).
    probe_spent: AtomicU64,
    unanswered: AtomicI64,
    backlog: Mutex<Vec<(f64, f64)>>,
}

/// Records results read on `conn`.
fn take(
    conn: &mut Conn,
    results: Vec<ClientResult>,
    shared: &Shared,
    reads: &mut Vec<Read>,
    tracer: &mut Tracer,
) {
    let at = Instant::now();
    for r in results {
        let (start, end) = (r.start as usize, r.end as usize);
        let closing = conn.stream.map.by_end(end);
        let latency_ms = closing.map(|j| {
            let due = conn.due(shared.start, conn.stream.map.closings[j].frame);
            tracer.record(
                "socket.verdict",
                due,
                at,
                0,
                ((conn.index as u64) << 32) | end as u64,
            );
            at.saturating_duration_since(due).as_secs_f64() * 1e3
        });
        if closing.is_some_and(|j| conn.stream.expected.get(j).is_some_and(Option::is_some)) {
            shared.unanswered.fetch_sub(1, Ordering::Relaxed);
            conn.answered += 1;
        }
        reads.push(Read {
            verdict: Verdict {
                session: conn.index,
                start,
                end,
                gesture: r.gesture as usize,
                user: r.user as usize,
                identity: identity(&r.identity),
            },
            latency_ms,
            at_s: at.saturating_duration_since(shared.start).as_secs_f64(),
        });
    }
}

fn poll(conn: &mut Conn, shared: &Shared, reads: &mut Vec<Read>, tracer: &mut Tracer) {
    let start = Instant::now();
    let Some(client) = conn.client.as_mut() else {
        return;
    };
    let results = client.try_recv_results().expect("reading results");
    if !results.is_empty() {
        tracer.record(
            "net.recv_results",
            start,
            Instant::now(),
            0,
            conn.index as u64,
        );
        take(conn, results, shared, reads, tracer);
    }
}

struct ThreadOut {
    reads: Vec<Read>,
    late_ms: Vec<f64>,
    frames: usize,
    ledgers: Vec<(usize, WireLedger)>,
    last_read: Instant,
    tracer: Tracer,
    /// CPU seconds this client thread used.
    cpu_s: f64,
    cpu_marks: Vec<(f64, f64)>,
}

/// Drives this thread's connections to the end of their schedules,
/// waits for their last verdicts, and closes them.
fn drive(mut conns: Vec<Conn>, shared: &Shared, sampler: bool, mut tracer: Tracer) -> ThreadOut {
    let mut reads = Vec::new();
    let mut late_ms = Vec::new();
    let mut frames = 0;
    let mut next_sample = shared.start;
    let mut next_mark = shared.start;
    let mut cpu_marks = Vec::new();
    loop {
        let next = (0..conns.len())
            .filter(|&k| conns[k].pos < conns[k].stream.frames.len())
            .min_by_key(|&k| conns[k].due(shared.start, conns[k].pos));
        let Some(k) = next else { break };
        let due = conns[k].due(shared.start, conns[k].pos);
        // Poll only while a verdict is outstanding: no result can arrive
        // before its closing frame was sent.
        loop {
            let awaiting = conns.iter().any(|c| c.answered < c.closings_sent);
            if awaiting {
                for conn in conns.iter_mut() {
                    poll(conn, shared, &mut reads, &mut tracer);
                }
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            std::thread::sleep(if awaiting { POLL.min(wait) } else { wait });
        }
        let sent = Instant::now();
        late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let conn = &mut conns[k];
        conn.client
            .as_mut()
            .expect("connections stay open while sending")
            .send_frame(&conn.stream.frames[conn.pos])
            .expect("sending a frame");
        tracer.record("net.send_frame", sent, Instant::now(), 0, conn.index as u64);
        let closes_kept = conn
            .stream
            .map
            .closed_by(conn.pos)
            .is_some_and(|j| conn.stream.expected[j].is_some());
        if closes_kept {
            shared.unanswered.fetch_add(1, Ordering::Relaxed);
            conn.closings_sent += 1;
        }
        conn.pos += 1;
        frames += 1;
        if sampler && sent >= next_mark {
            let t = sent.saturating_duration_since(shared.start).as_secs_f64();
            let serving = cpu::process_s() - cpu::thread_s() - cpu::spent_s(&shared.probe_spent);
            cpu_marks.push((t, serving));
            next_mark = sent + CPU_EVERY;
        }
        if sampler && sent >= next_sample {
            let backlog =
                shared.unanswered.load(Ordering::Relaxed) + shared.engine.outstanding() as i64;
            let t = sent.duration_since(shared.start).as_secs_f64();
            shared
                .backlog
                .lock()
                .expect("backlog samples")
                .push((t, backlog as f64));
            next_sample = sent + BACKLOG_EVERY;
        }
    }
    let give_up = Instant::now() + SETTLE;
    while conns.iter().any(|c| c.answered < c.stream.kept()) && Instant::now() < give_up {
        for conn in conns.iter_mut() {
            poll(conn, shared, &mut reads, &mut tracer);
        }
        std::thread::sleep(POLL);
    }
    let last_read = Instant::now();
    let mut ledgers = Vec::new();
    for mut conn in conns {
        let start = Instant::now();
        let client = conn.client.take().expect("each connection closes once");
        let report = client.close().expect("closing the session");
        tracer.record("net.close", start, Instant::now(), 0, conn.index as u64);
        take(&mut conn, report.results, shared, &mut reads, &mut tracer);
        ledgers.push((conn.index, report.ledger));
    }
    ThreadOut {
        reads,
        late_ms,
        frames,
        ledgers,
        last_read,
        tracer,
        cpu_s: cpu::thread_s(),
        cpu_marks,
    }
}

/// Replays `streams[c]` over `clients[c]` on the open-loop schedule,
/// using at most `threads` threads.
pub fn run(
    engine: &ServeEngine,
    clients: Vec<NetClient>,
    streams: &[Stream<Frame>],
    threads: usize,
    epoch: Instant,
    tracing: bool,
) -> SocketRun {
    let threads = threads.clamp(1, clients.len());
    let interval = 1.0 / RATE_FPS;
    let shared = Shared {
        // A short lead so every thread is waiting when frame 0 falls due.
        start: Instant::now() + Duration::from_millis(20),
        engine,
        probe_spent: AtomicU64::new(0),
        unanswered: AtomicI64::new(0),
        backlog: Mutex::new(Vec::new()),
    };
    let mut groups: Vec<Vec<Conn>> = (0..threads).map(|_| Vec::new()).collect();
    for (index, (client, stream)) in clients.into_iter().zip(streams).enumerate() {
        groups[index % threads].push(Conn {
            index,
            client: Some(client),
            stream,
            offset: Duration::from_secs_f64(interval * index as f64 / CONNECTIONS as f64),
            pos: 0,
            closings_sent: 0,
            answered: 0,
        });
    }
    let stop_probe = AtomicBool::new(false);
    let cpu_start = cpu::process_s();
    let (outs, reference_s) = std::thread::scope(|s| {
        let prober = s.spawn(|| cpu::probe(&stop_probe, &shared.probe_spent));
        let handles: Vec<_> = groups
            .into_iter()
            .enumerate()
            .map(|(t, conns)| {
                let shared = &shared;
                let tracer = Tracer::new(epoch, t as u64 + 1, tracing);
                s.spawn(move || drive(conns, shared, t == 0, tracer))
            })
            .collect();
        // Join every client before stopping the probe, so a panicking
        // client cannot leave the probe running and the scope waiting.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop_probe.store(true, Ordering::Release);
        let reference_s = prober.join().expect("reference probe panicked");
        let outs: Vec<ThreadOut> = joined
            .into_iter()
            .map(|r| r.expect("a connection thread panicked"))
            .collect();
        (outs, reference_s)
    });
    let cpu_s = cpu::process_s() - cpu_start - cpu::spent_s(&shared.probe_spent);
    let mut tracer = Tracer::new(epoch, 0, tracing);
    let mut run = SocketRun {
        reads: Vec::new(),
        late_ms: Vec::new(),
        backlog: shared.backlog.into_inner().expect("backlog samples"),
        frames: 0,
        ledgers: Vec::new(),
        wall_s: 0.0,
        cpu_s,
        cpu_marks: Vec::new(),
        reference_s,
        tracer: Tracer::new(epoch, 0, false),
    };
    let mut ledgers = Vec::new();
    let mut last = shared.start;
    for out in outs {
        run.reads.extend(out.reads);
        run.late_ms.extend(out.late_ms);
        run.frames += out.frames;
        ledgers.extend(out.ledgers);
        last = last.max(out.last_read);
        run.cpu_s -= out.cpu_s;
        run.cpu_marks.extend(out.cpu_marks);
        tracer.absorb(out.tracer);
    }
    ledgers.sort_by_key(|(i, _)| *i);
    run.ledgers = ledgers.into_iter().map(|(_, l)| l).collect();
    run.wall_s = last.saturating_duration_since(shared.start).as_secs_f64();
    run.tracer = tracer;
    run
}

/// Mean backlog of the last quarter of the run minus that of the first.
pub fn backlog_growth(samples: &[(f64, f64)]) -> f64 {
    let q = samples.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let mean = |s: &[(f64, f64)]| s.iter().map(|(_, b)| b).sum::<f64>() / s.len() as f64;
    mean(&samples[samples.len() - q..]) - mean(&samples[..q])
}
