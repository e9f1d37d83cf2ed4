//! Runs one workload end to end and turns what it observed into the
//! benchmark's metrics, correctness verdict and provenance stamp.

use crate::burst::{self, Feed, PointFeed, RdFeed};
use crate::inputs::{self, mix, Stream, ENVIRONMENTS};
use crate::replay::{self, ReplayOut, ServedIndex};
use crate::setup::{self, SetupTimes, Source, COHORT};
use crate::socket;
use crate::stats::{self, match_truth, reconcile, Fnv, Identity, Ledger, Truth, Verdict};
use crate::trace::Tracer;
use crate::{Args, Workload};
use gestureprint_core::GesturePrint;
use gp_codec::Value;
use gp_pipeline::Preprocessor;
use gp_radar::Frame;
use gp_rd::RdFrame;
use gp_serve::{ServeEngine, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in print order. The serving cost is
/// CPU time in units of a reference kernel's ([`crate::cpu`]): the speed
/// of a shared host moves wall-clock latency and rate, and raw CPU time,
/// from run to run, so those are per-layer metrics, reported but not
/// gated.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_cost", "ref"),
    ("gra", "fraction"),
    ("uia", "fraction"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in print order. A layer a workload
/// does not exercise reads 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.send_us.p50", "us"),
    ("net.send_us.p99", "us"),
    ("net.decoded_frames", "count"),
    ("net.protocol_errors", "count"),
    ("net.dropped_results", "count"),
    ("serve.push_us.p50", "us"),
    ("serve.push_us.p99", "us"),
    ("serve.push_close_us.p50", "us"),
    ("serve.push_close_us.p99", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.stage.admission_wait.p50_us", "us"),
    ("serve.stage.admission_wait.p99_us", "us"),
    ("serve.stage.admission_wait.count", "count"),
    ("serve.stage.segmentation.p50_us", "us"),
    ("serve.stage.segmentation.p99_us", "us"),
    ("serve.stage.segmentation.count", "count"),
    ("serve.stage.queue_wait.p50_us", "us"),
    ("serve.stage.queue_wait.p99_us", "us"),
    ("serve.stage.queue_wait.count", "count"),
    ("serve.stage.inference.p50_us", "us"),
    ("serve.stage.inference.p99_us", "us"),
    ("serve.stage.inference.count", "count"),
    ("serve.stage.publish.p50_us", "us"),
    ("serve.stage.publish.p99_us", "us"),
    ("serve.stage.publish.count", "count"),
    ("serve.pool.busy_frac", "fraction"),
    ("serve.pool.jobs", "count"),
    ("pipeline.segment_us", "us"),
    ("pipeline.assemble_us", "us"),
    ("pipeline.kept_frac", "fraction"),
    ("pointcloud.dbscan_us", "us"),
    ("pointcloud.dbscan_points", "count"),
    ("models.encode_us.b1", "us"),
    ("models.encode_us.b8", "us"),
    ("core.gr_us.b1", "us"),
    ("core.gr_us.b8", "us"),
    ("core.ui_us.b1", "us"),
    ("core.ui_us.b8", "us"),
    ("core.ui_groups_per_batch", "count"),
    ("core.infer_batch_us", "us"),
    ("core.embedding_us", "us"),
    ("store.identify_us", "us"),
    ("store.accept_frac", "fraction"),
    ("store.identify_acc", "fraction"),
    ("rd.segment_us", "us"),
    ("rd.extract_us", "us"),
    ("rd.infer_us", "us"),
    ("setup.train_s", "s"),
    ("setup.enroll_s", "s"),
    ("setup.connect_s", "s"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("fail_frac", "fraction"),
    ("wall.verdict_latency_p50_ms", "ms"),
    ("wall.verdict_latency_p99_ms", "ms"),
    ("wall.verdicts_per_s", "1/s"),
    ("cpu.ms_per_verdict", "ms"),
    ("cpu.reference_us", "us"),
    ("trace.overhead.verdict_cost", "ref"),
    ("trace.overhead.verdict_latency_p50_ms", "ms"),
    ("trace.overhead.verdict_latency_p99_ms", "ms"),
    ("trace.overhead.verdicts_per_s", "1/s"),
];

/// Target length of one measurement window (s). The CPU cost of every
/// workload, and the bursts' wall-clock rate and percentiles, are medians
/// over windows, so a few seconds of a slower host move them less.
pub const WINDOW_S: f64 = 1.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Shuffled gesture orders per (user, room) in the point burst pool:
/// 144 streams, ~1900 distinct segments, so accuracy is not decided by
/// a few streams.
pub const POINT_BURST_ORDERS: usize = 24;
/// RD captures per (user, gesture) the RD burst pool draws from.
pub const RD_CLIP_REPS: usize = 2;
/// Seed of the training captures (and of the RD capture pool). Fixed,
/// so every run serves the same trained models and accuracy moves only
/// with the served inputs; a model trained per `--seed` swung GRA by
/// ±20% between seeds. RD synthesis costs ~30 ms a capture, so the RD
/// pool is fixed too and `--seed` orders it, which sets how sessions
/// interleave and batch.
pub const TRAINING_SEED: u64 = 0x5EED_00D0;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Outputs verified and the run valid.
    pub correct: bool,
    /// Expected verdicts plus frames sent.
    pub attempted: usize,
    /// Faulty verdicts plus refused frames.
    pub failed: usize,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Report {
    /// Prints one line per metric, then the JSON result line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<40} {:>16} {:<8} n={}", m.name, m.value, m.unit, m.n);
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Accuracy of served verdicts against the generator's ground truth.
#[derive(Debug, Clone, Copy, Default)]
struct Scored {
    gra: f64,
    uia: f64,
    identify_acc: f64,
    accept_frac: f64,
}

fn score<'a>(served: &[Verdict], truth_of: impl Fn(usize) -> (&'a [Truth], usize)) -> Scored {
    let n = served.len().max(1) as f64;
    let mut s = Scored::default();
    for v in served {
        let (truth, user) = truth_of(v.session);
        s.gra += f64::from(match_truth(truth, v.start, v.end) == Some(v.gesture));
        s.uia += f64::from(v.user == user);
        s.identify_acc += f64::from(v.identity == Identity::Accepted(user));
        s.accept_frac += f64::from(matches!(v.identity, Identity::Accepted(_)));
    }
    Scored {
        gra: s.gra / n,
        uia: s.uia / n,
        identify_acc: s.identify_acc / n,
        accept_frac: s.accept_frac / n,
    }
}

/// What one serving phase observed.
struct Phase {
    served: Vec<Verdict>,
    latencies_ms: Vec<f64>,
    /// Burst only: per-window verdict counts and sorted latencies. Rates
    /// and percentiles are the median over windows, so a few seconds of
    /// interference from outside the process move them less.
    windows: Vec<(usize, Vec<f64>)>,
    window_s: f64,
    ledger: Ledger,
    wall_s: f64,
    /// Serving-side CPU seconds (see [`crate::cpu`]).
    cpu_s: f64,
    /// Serving-side CPU ms per verdict in each window.
    cpu_windows: Vec<f64>,
    /// Mean CPU seconds of one reference kernel run during the phase.
    reference_s: f64,
    scored: Scored,
    snapshot: TelemetrySnapshot,
    tracer: Tracer,
    /// Socket only: sorted send lateness (ms).
    late_ms: Vec<f64>,
    net: gp_net::NetStats,
    drain_ms: f64,
}

impl Phase {
    /// The `p`-th latency percentile: the median of the per-window
    /// percentiles when every window has ten samples beyond it, else the
    /// percentile over the whole run.
    fn latency(&self, p: f64) -> f64 {
        let windowed = !self.windows.is_empty()
            && self
                .windows
                .iter()
                .all(|(_, l)| stats::tail_percentile(l.len()).is_some_and(|t| t >= p));
        if windowed {
            let per: Vec<f64> = self
                .windows
                .iter()
                .filter_map(|(_, l)| stats::percentile(l, p))
                .collect();
            return stats::median(&per);
        }
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, p).unwrap_or(0.0)
    }

    /// Verdicts per second: the median window's rate, or the whole run's.
    fn verdicts_per_s(&self) -> f64 {
        if self.windows.is_empty() {
            return self.served.len() as f64 / self.wall_s.max(1e-9);
        }
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|(n, _)| *n as f64 / self.window_s)
            .collect();
        stats::median(&rates)
    }

    /// Serving-side CPU milliseconds per published verdict: the median
    /// window's, or the whole run's.
    fn cpu_ms_per_verdict(&self) -> f64 {
        if self.cpu_windows.is_empty() {
            return self.cpu_s * 1e3 / self.served.len().max(1) as f64;
        }
        stats::median(&self.cpu_windows)
    }

    /// Serving-side CPU time per verdict in reference kernel runs.
    fn verdict_cost(&self) -> f64 {
        self.cpu_ms_per_verdict() * 1e-3 / self.reference_s.max(1e-12)
    }

    fn served_index(&self) -> ServedIndex {
        self.served
            .iter()
            .map(|v| ((v.session, v.start, v.end), *v))
            .collect()
    }
}

/// Per-run context shared by every workload.
struct Ctx {
    args: Args,
    nproc: usize,
    /// Engine workers. A burst's generator thread never sleeps, so one
    /// core is left to it; the socket clients sleep between frames, and
    /// the executor gets every core so a verdict rarely waits behind
    /// another (at one worker the tail blew up whenever the shared host
    /// slowed down).
    workers: usize,
    out: PathBuf,
    epoch: Instant,
    pre: Preprocessor,
    problems: Vec<String>,
    setups: Vec<SetupTimes>,
    model_hashes: Vec<u64>,
}

impl Ctx {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Records one set-up's timings and its model's artifact hash.
    fn set_up(&mut self, times: SetupTimes, system: &GesturePrint) {
        self.setups.push(times);
        self.model_hashes
            .push(Fnv::default().bytes(&setup::artifact(system)).finish());
    }

    fn setup_count(&self) -> usize {
        if self.args.trace {
            1
        } else {
            SETUPS
        }
    }
}

/// Runs the workload `args` names.
pub fn run(args: Args) -> Report {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).expect("creating the benchmark's output directory");
    let mut ctx = Ctx {
        args,
        nproc,
        workers: match args.workload {
            Workload::PointSocket => nproc,
            Workload::PointBurst | Workload::RdBurst => nproc.saturating_sub(1).max(1),
        },
        out,
        epoch: Instant::now(),
        pre: Preprocessor::new(setup::serve_config(0).preprocessor),
        problems: Vec::new(),
        setups: Vec::new(),
        model_hashes: Vec::new(),
    };
    let (phases, layers, config) = match args.workload {
        Workload::PointSocket => point_socket(&mut ctx),
        Workload::PointBurst => point_burst(&mut ctx),
        Workload::RdBurst => rd_burst(&mut ctx),
    };
    finish(ctx, phases, layers, config)
}

/// The traced run's layer replay: what it saw and its spans.
type Layers = Option<(ReplayOut, Tracer)>;

fn socket_stream(seed: u64, conn: usize, target: usize, pre: &Preprocessor) -> Stream<Frame> {
    // ~660 frames per 15-gesture chunk; generate a little more than the
    // schedule needs and cut at the first stop point past it.
    let chunks: Vec<_> = (0..target / 500 + 2)
        .map(|k| {
            let salt = (conn * 10_000 + k) as u64;
            (
                ENVIRONMENTS[k % ENVIRONMENTS.len()],
                inputs::shuffled_gestures(mix(seed, 100 + salt)),
                mix(seed, 200 + salt),
            )
        })
        .collect();
    inputs::point_stream(conn, &chunks, pre, Some(target))
}

fn socket_phase(
    ctx: &mut Ctx,
    stack: &mut setup::SocketStack,
    streams: &[Stream<Frame>],
    tracing: bool,
) -> Phase {
    let clients = std::mem::take(&mut stack.clients);
    // One client thread drives both connections (a few percent of a
    // core at this rate), so the CPU marks it takes leave the whole load
    // generator out.
    let run = socket::run(&stack.engine, clients, streams, 1, ctx.epoch, tracing);
    let served: Vec<Verdict> = run.reads.iter().map(|r| r.verdict).collect();
    let expected: Vec<Verdict> = streams
        .iter()
        .enumerate()
        .flat_map(|(c, s)| s.expected_verdicts(c, s.frames.len()))
        .collect();
    let shed = run
        .ledgers
        .iter()
        .map(|l| (l.shed_budget + l.shed_capacity) as usize)
        .sum();
    let ledger = reconcile(&expected, &served, run.frames, shed);
    let scored = score(&served, |c| (&streams[c].truth, streams[c].user));
    let mut late = run.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let growth = socket::backlog_growth(&run.backlog);
    let late_p99 = stats::percentile(&late, 99.0).unwrap_or(0.0);
    ctx.check(late_p99 <= socket::LATE_P99_BOUND_MS, || {
        format!(
            "generator fell behind: sends ran {late_p99:.3} ms late at p99 (bound {} ms)",
            socket::LATE_P99_BOUND_MS
        )
    });
    ctx.check(growth <= socket::BACKLOG_GROWTH_BOUND, || {
        format!(
            "backlog grew by {growth:.1} segments over the run (bound {})",
            socket::BACKLOG_GROWTH_BOUND
        )
    });
    let count = (ctx.args.seconds / WINDOW_S).floor().max(1.0) as usize;
    let window_s = ctx.args.seconds / count as f64;
    let obs: Vec<(f64, Option<f64>)> = run.reads.iter().map(|r| (r.at_s, r.latency_ms)).collect();
    let counts: Vec<usize> = stats::windows(&obs, window_s * count as f64, count)
        .iter()
        .map(|(n, _)| *n)
        .collect();
    let cpu_windows = stats::window_costs(&run.cpu_marks, window_s, &counts)
        .into_iter()
        .flatten()
        .collect();
    Phase {
        latencies_ms: run.reads.iter().filter_map(|r| r.latency_ms).collect(),
        windows: Vec::new(),
        window_s: 0.0,
        served,
        ledger,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        cpu_windows,
        reference_s: run.reference_s,
        scored,
        snapshot: stack.engine.telemetry_snapshot().unwrap_or_default(),
        tracer: run.tracer,
        late_ms: late,
        net: stack.server.stats(),
        drain_ms: 0.0,
    }
}

fn point_socket(ctx: &mut Ctx) -> (Vec<Phase>, Layers, String) {
    let seed = ctx.args.seed;
    let training = inputs::point_training(TRAINING_SEED, COHORT, setup::POINT_REPS, &ctx.pre);
    let target = (socket::RATE_FPS * ctx.args.seconds).ceil() as usize;
    let mut streams: Vec<Stream<Frame>> = (0..socket::CONNECTIONS)
        .map(|c| socket_stream(seed, c, target, &ctx.pre))
        .collect();
    let store_dir = |ctx: &Ctx, k: usize| ctx.out.join(format!("store-{}-{k}", std::process::id()));

    let mut stack: Option<setup::SocketStack> = None;
    for k in 0..ctx.setup_count() {
        if let Some(old) = stack.take() {
            old.teardown();
        }
        let dir = store_dir(ctx, k);
        let (s, times) = setup::socket(
            &training,
            Source::Train,
            ctx.workers,
            socket::CONNECTIONS,
            &dir,
        );
        ctx.set_up(times, s.engine.system());
        stack = Some(s);
    }
    let mut stack = stack.expect("at least one set-up");
    let gallery = stack.store.gallery_snapshot();
    inputs::point_reference(
        &mut streams,
        stack.engine.system(),
        &ctx.pre,
        Some(&gallery),
        ctx.nproc,
    );
    let mut phases = vec![socket_phase(ctx, &mut stack, &streams, false)];
    let mut layers = None;
    if ctx.args.trace {
        let bytes = setup::artifact(stack.engine.system());
        stack.teardown();
        let dir = store_dir(ctx, SETUPS);
        let (s, _) = setup::socket(
            &training,
            Source::Artifact(&bytes),
            ctx.workers,
            socket::CONNECTIONS,
            &dir,
        );
        stack = s;
        let phase = socket_phase(ctx, &mut stack, &streams, true);
        let mut tracer = Tracer::new(ctx.epoch, 9, true);
        let refs: Vec<&Stream<Frame>> = streams.iter().collect();
        let keys: Vec<usize> = (0..streams.len()).collect();
        let wire_mismatches = replay::wire(&refs, &mut tracer);
        ctx.check(wire_mismatches == 0, || {
            format!("{wire_mismatches} frames did not survive the wire codec")
        });
        let out = replay::point(
            stack.engine.system(),
            &ctx.pre,
            &refs,
            &keys,
            &phase.served_index(),
            1,
            Some(&stack.store),
            &mut tracer,
        );
        layers = Some((out, tracer));
        phases.push(phase);
    }
    stack.teardown();
    let config = format!(
        "point_socket rate={} conns={} seconds={} {:?} {:?} {:?}",
        socket::RATE_FPS,
        socket::CONNECTIONS,
        ctx.args.seconds,
        setup::point_config(),
        setup::serve_config(ctx.workers),
        gp_net::NetConfig::default()
    );
    (phases, layers, config)
}

fn burst_phase<F: Feed>(
    engine: &ServeEngine,
    streams: &[Stream<F::Frame>],
    ctx: &Ctx,
    tracing: bool,
) -> Phase
where
    F::Frame: Sync,
{
    let run = burst::run::<F>(engine, streams, ctx.args.seconds, ctx.epoch, tracing);
    let served: Vec<Verdict> = run.served.iter().map(|s| s.verdict).collect();
    let expected: Vec<Verdict> = run
        .sessions
        .iter()
        .enumerate()
        .flat_map(|(key, &(s, k))| streams[s].expected_verdicts(key, k))
        .collect();
    let stats = engine.stats();
    let shed = (stats.total_shed_frames() + stats.total_shed_budget()) as usize;
    let mut ledger = reconcile(&expected, &served, run.frames, shed);
    ledger.mismatched += run.push_mismatches;
    let count = (ctx.args.seconds / WINDOW_S).floor().max(1.0) as usize;
    let window_s = ctx.args.seconds / count as f64;
    let obs: Vec<(f64, Option<f64>)> = run.served.iter().map(|s| (s.at_s, s.latency_ms)).collect();
    let sessions = &run.sessions;
    let scored = score(&served, |key| {
        let s = &streams[sessions[key].0];
        (&s.truth, s.user)
    });
    let windows = stats::windows(&obs, window_s * count as f64, count);
    let counts: Vec<usize> = windows.iter().map(|(n, _)| *n).collect();
    let cpu_windows = stats::window_costs(&run.cpu_marks, window_s, &counts)
        .into_iter()
        .flatten()
        .collect();
    Phase {
        latencies_ms: run.served.iter().filter_map(|s| s.latency_ms).collect(),
        windows,
        window_s,
        served,
        ledger,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        cpu_windows,
        reference_s: run.reference_s,
        scored,
        snapshot: engine.telemetry_snapshot().unwrap_or_default(),
        tracer: run.tracer,
        late_ms: Vec::new(),
        net: gp_net::NetStats::default(),
        drain_ms: run.drain_ms,
    }
}

/// The burst's first [`burst::SLOTS`] sessions replay the first pool
/// streams, interleaved frame by frame: session key `s` is stream `s`.
/// The layer replay takes exactly those, in the same interleaving.
fn first_sessions(pool: usize) -> Vec<usize> {
    (0..pool.min(burst::SLOTS)).collect()
}

fn point_burst(ctx: &mut Ctx) -> (Vec<Phase>, Layers, String) {
    let seed = ctx.args.seed;
    let training = inputs::point_training(TRAINING_SEED, COHORT, setup::POINT_REPS, &ctx.pre);
    let mut streams: Vec<Stream<Frame>> = Vec::new();
    for user in 0..COHORT {
        for (e, env) in ENVIRONMENTS.iter().enumerate() {
            for k in 0..POINT_BURST_ORDERS {
                let salt = ((user * ENVIRONMENTS.len() + e) * POINT_BURST_ORDERS + k) as u64;
                let chunk = (
                    *env,
                    inputs::shuffled_gestures(mix(seed, 300 + salt)),
                    mix(seed, 400 + salt),
                );
                streams.push(inputs::point_stream(user, &[chunk], &ctx.pre, None));
            }
        }
    }
    let mut engine = None;
    for _ in 0..ctx.setup_count() {
        // Free the previous set-up's engine before building the next.
        drop(engine.take());
        let (e, times) = setup::point_burst(&training, Source::Train, ctx.workers);
        ctx.set_up(times, e.system());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    inputs::point_reference(&mut streams, engine.system(), &ctx.pre, None, ctx.nproc);
    let mut phases = vec![burst_phase::<PointFeed>(&engine, &streams, ctx, false)];
    let mut layers = None;
    if ctx.args.trace {
        let bytes = setup::artifact(engine.system());
        drop(engine);
        engine = setup::point_burst(&training, Source::Artifact(&bytes), ctx.workers).0;
        let phase = burst_phase::<PointFeed>(&engine, &streams, ctx, true);
        let mut tracer = Tracer::new(ctx.epoch, 9, true);
        let keys = first_sessions(streams.len());
        let refs: Vec<&Stream<Frame>> = keys.iter().map(|&k| &streams[k]).collect();
        let out = replay::point(
            engine.system(),
            &ctx.pre,
            &refs,
            &keys,
            &phase.served_index(),
            8,
            None,
            &mut tracer,
        );
        let rd = rd_layers(ctx, &mut tracer);
        ctx.check(rd.compared > 0 && rd.mismatches == 0, || {
            format!(
                "RD layer replay: {} of {} verdicts differ from the reference pass",
                rd.mismatches, rd.compared
            )
        });
        layers = Some((out, tracer));
        phases.push(phase);
    }
    let config = format!(
        "point_burst pool={} seconds={} {:?} {:?}",
        streams.len(),
        ctx.args.seconds,
        setup::point_config(),
        setup::serve_config(ctx.workers)
    );
    (phases, layers, config)
}

/// The RD burst pool: every cohort user's captures in a seeded order, one
/// capture per stream, as RD sessions are used elsewhere in the
/// repository (the default RD segmenter keeps a capture's segment open
/// until the session closes and flushes it).
fn rd_streams(seed: u64) -> Vec<Stream<RdFrame>> {
    let segmenter = setup::serve_config(0).rd_segmenter;
    let mut clips: Vec<(usize, inputs::RdClip)> = (0..COHORT)
        .flat_map(|user| {
            inputs::rd_clips(mix(TRAINING_SEED, 2), user, RD_CLIP_REPS)
                .into_iter()
                .map(move |clip| (user, clip))
        })
        .collect();
    clips.shuffle(&mut StdRng::seed_from_u64(mix(seed, 500)));
    clips
        .iter()
        .map(|(user, clip)| inputs::rd_stream(*user, clip, &segmenter))
        .collect()
}

/// The range-Doppler layer replay of a traced `point_burst` run. The RD
/// cost spread too far from run to run on a shared host for `rd_burst`
/// to be a gated workload, so its layers are measured here: the first
/// streams of the RD pool through `replay::rd`, on an RD system trained
/// as `rd_burst` trains it, against the per-sample reference pass.
fn rd_layers(ctx: &Ctx, tracer: &mut Tracer) -> ReplayOut {
    let training = inputs::rd_training(mix(TRAINING_SEED, 1), COHORT, setup::RD_REPS);
    let (system, _) = setup::rd_system(&training, Source::Train);
    let mut streams = rd_streams(ctx.args.seed);
    inputs::rd_reference(&mut streams, &system, ctx.nproc);
    let keys = first_sessions(streams.len());
    let refs: Vec<&Stream<RdFrame>> = keys.iter().map(|&k| &streams[k]).collect();
    let expected: ServedIndex = keys
        .iter()
        .flat_map(|&k| streams[k].expected_verdicts(k, streams[k].frames.len()))
        .map(|v| ((v.session, v.start, v.end), v))
        .collect();
    let segmenter = setup::serve_config(0).rd_segmenter;
    replay::rd(&system, &segmenter, &refs, &keys, &expected, tracer)
}

fn rd_burst(ctx: &mut Ctx) -> (Vec<Phase>, Layers, String) {
    let training = inputs::rd_training(mix(TRAINING_SEED, 1), COHORT, setup::RD_REPS);
    let segmenter = setup::serve_config(0).rd_segmenter;
    let mut streams = rd_streams(ctx.args.seed);
    let mut engine = None;
    for _ in 0..ctx.setup_count() {
        // Free the previous set-up's engine before building the next.
        drop(engine.take());
        let (e, times) = setup::rd_burst(&training, Source::Train, ctx.workers);
        ctx.set_up(times, rd_system(&e));
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    inputs::rd_reference(&mut streams, rd_system(&engine), ctx.nproc);
    let mut phases = vec![burst_phase::<RdFeed>(&engine, &streams, ctx, false)];
    let mut layers = None;
    if ctx.args.trace {
        let bytes = setup::artifact(rd_system(&engine));
        drop(engine);
        engine = setup::rd_burst(&training, Source::Artifact(&bytes), ctx.workers).0;
        let phase = burst_phase::<RdFeed>(&engine, &streams, ctx, true);
        let mut tracer = Tracer::new(ctx.epoch, 9, true);
        let keys = first_sessions(streams.len());
        let refs: Vec<&Stream<RdFrame>> = keys.iter().map(|&k| &streams[k]).collect();
        let out = replay::rd(
            rd_system(&engine),
            &segmenter,
            &refs,
            &keys,
            &phase.served_index(),
            &mut tracer,
        );
        layers = Some((out, tracer));
        phases.push(phase);
    }
    let config = format!(
        "rd_burst pool={} seconds={} {:?} {:?}",
        streams.len(),
        ctx.args.seconds,
        setup::rd_config(),
        setup::serve_config(ctx.workers)
    );
    (phases, layers, config)
}

fn rd_system(engine: &ServeEngine) -> &GesturePrint {
    engine
        .rd_system()
        .expect("the RD burst engine carries an RD system")
}

/// `VmHWM` of this process (MiB).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(ctx: &Ctx, phase: &Phase) -> Vec<Metric> {
    let totals: Vec<f64> = ctx.setups.iter().map(|t| t.total_s).collect();
    let values = [
        (stats::median(&totals), totals.len()),
        (phase.verdict_cost(), phase.served.len()),
        (phase.scored.gra, phase.served.len()),
        (phase.scored.uia, phase.served.len()),
        (peak_rss_mb(), 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric {
            name,
            value,
            unit,
            n,
        })
        .collect()
}

fn per_layer(ctx: &Ctx, untraced: &Phase, traced: &Phase, layers: &Layers) -> Vec<Metric> {
    let mut v: HashMap<String, (f64, usize)> = HashMap::new();
    let mut put = |name: &str, value: f64, n: usize| {
        v.insert(name.to_owned(), (value, n));
    };
    let spans = |name: &str| -> Vec<f64> {
        let mut d = traced.tracer.durations_us(name);
        if let Some((_, t)) = layers {
            d.extend(t.durations_us(name));
        }
        d.sort_by(f64::total_cmp);
        d
    };
    for (metric, span, p) in [
        ("net.encode_us", "net.encode", 50.0),
        ("net.decode_us", "net.decode", 50.0),
        ("net.send_us.p50", "net.send_frame", 50.0),
        ("net.send_us.p99", "net.send_frame", 99.0),
        ("serve.push_us.p50", "serve.push", 50.0),
        ("serve.push_us.p99", "serve.push", 99.0),
        ("serve.push_close_us.p50", "serve.push_close", 50.0),
        ("serve.push_close_us.p99", "serve.push_close", 99.0),
        ("pipeline.segment_us", "pipeline.segment", 50.0),
        ("pipeline.assemble_us", "pipeline.assemble", 50.0),
        ("pointcloud.dbscan_us", "pointcloud.dbscan", 50.0),
        ("models.encode_us.b1", "models.encode.b1", 50.0),
        ("models.encode_us.b8", "models.encode.b8", 50.0),
        ("core.gr_us.b1", "core.gr.b1", 50.0),
        ("core.gr_us.b8", "core.gr.b8", 50.0),
        ("core.ui_us.b1", "core.ui.b1", 50.0),
        ("core.ui_us.b8", "core.ui.b8", 50.0),
        ("core.infer_batch_us", "core.infer_batch", 50.0),
        ("core.embedding_us", "core.embedding", 50.0),
        ("store.identify_us", "store.identify", 50.0),
        ("rd.segment_us", "rd.segment", 50.0),
        ("rd.extract_us", "rd.extract", 50.0),
        ("rd.infer_us", "rd.infer", 50.0),
    ] {
        let d = spans(span);
        if let Some(x) = stats::percentile(&d, p) {
            put(metric, x, d.len());
        }
    }

    let snap = &traced.snapshot;
    for stage in [
        "admission_wait",
        "segmentation",
        "queue_wait",
        "inference",
        "publish",
    ] {
        if let Some(h) = snap.histograms.get(&format!("serve.stage.{stage}")) {
            let n = h.count() as usize;
            put(
                &format!("serve.stage.{stage}.p50_us"),
                h.percentile(50.0).unwrap_or(0) as f64,
                n,
            );
            put(
                &format!("serve.stage.{stage}.p99_us"),
                h.percentile(99.0).unwrap_or(0) as f64,
                n,
            );
            put(&format!("serve.stage.{stage}.count"), n as f64, n);
        }
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let workers = snap
        .gauges
        .get("serve.pool.workers")
        .copied()
        .unwrap_or(1)
        .max(1) as f64;
    let busy = counter("serve.pool.busy_us") / (workers * traced.wall_s.max(1e-9) * 1e6);
    put("serve.pool.busy_frac", busy, 1);
    put("serve.pool.jobs", counter("serve.pool.jobs"), 1);
    if traced.drain_ms > 0.0 {
        put("serve.drain_ms", traced.drain_ms, 1);
    }
    if ctx.args.workload == Workload::PointSocket {
        put("net.decoded_frames", traced.net.decoded_frames as f64, 1);
        put("net.protocol_errors", traced.net.protocol_errors as f64, 1);
        put("net.dropped_results", traced.net.dropped_results as f64, 1);
        let n = traced.served.len();
        put("store.accept_frac", traced.scored.accept_frac, n);
        put("store.identify_acc", traced.scored.identify_acc, n);
        let late = &traced.late_ms;
        put(
            "gen.late_p99_ms",
            stats::percentile(late, 99.0).unwrap_or(0.0),
            late.len(),
        );
        put(
            "gen.late_max_ms",
            late.last().copied().unwrap_or(0.0),
            late.len(),
        );
    }
    if let Some((r, _)) = layers {
        if ctx.args.workload != Workload::RdBurst && r.closed > 0 {
            put(
                "pipeline.kept_frac",
                r.kept as f64 / r.closed as f64,
                r.closed,
            );
        }
        if !r.dbscan_points.is_empty() {
            put(
                "pointcloud.dbscan_points",
                stats::median(&r.dbscan_points),
                r.dbscan_points.len(),
            );
        }
        if !r.ui_groups.is_empty() {
            put(
                "core.ui_groups_per_batch",
                stats::median(&r.ui_groups),
                r.ui_groups.len(),
            );
        }
    }
    let first = ctx.setups.first().copied().unwrap_or_default();
    put("setup.train_s", first.train_s, 1);
    if ctx.args.workload == Workload::PointSocket {
        put("setup.enroll_s", first.enroll_s, 1);
        put("setup.connect_s", first.connect_s, 1);
    }
    put(
        "fail_frac",
        traced.ledger.fail_frac(),
        traced.ledger.attempted(),
    );
    let n = traced.latencies_ms.len();
    for (metric, p) in [
        ("trace.overhead.verdict_latency_p50_ms", 50.0),
        ("trace.overhead.verdict_latency_p99_ms", 99.0),
    ] {
        put(metric, traced.latency(p) - untraced.latency(p), n);
    }
    put(
        "trace.overhead.verdicts_per_s",
        traced.verdicts_per_s() - untraced.verdicts_per_s(),
        traced.served.len(),
    );
    put(
        "trace.overhead.verdict_cost",
        traced.verdict_cost() - untraced.verdict_cost(),
        traced.served.len(),
    );
    put(
        "cpu.ms_per_verdict",
        untraced.cpu_ms_per_verdict(),
        untraced.served.len(),
    );
    put("cpu.reference_us", untraced.reference_s * 1e6, 1);
    let n = untraced.latencies_ms.len();
    put("wall.verdict_latency_p50_ms", untraced.latency(50.0), n);
    put("wall.verdict_latency_p99_ms", untraced.latency(99.0), n);
    put(
        "wall.verdicts_per_s",
        untraced.verdicts_per_s(),
        untraced.served.len(),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = v.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                value,
                unit,
                n,
            }
        })
        .collect()
}

fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Hash of every source and manifest file the program is built from.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path
                    .file_name()
                    .is_some_and(|n| n != "target" && n != "results")
                {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.bytes(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn finish(mut ctx: Ctx, phases: Vec<Phase>, layers: Layers, config: String) -> Report {
    let last = phases.last().expect("every run serves at least once");
    for (i, phase) in phases.iter().enumerate() {
        let l = phase.ledger;
        ctx.check(l.failed() == 0, || {
            format!(
                "phase {i}: {} missing, {} duplicated, {} mismatched verdicts, {} frames shed (of {} expected verdicts, {} frames)",
                l.missing, l.duplicated, l.mismatched, l.shed, l.expected, l.frames
            )
        });
        let (gra, uia) = (phase.scored.gra, phase.scored.uia);
        ctx.check(gra > 1.0 / inputs::GESTURES as f64, || {
            format!("phase {i}: gra {gra} does not beat chance")
        });
        ctx.check(uia > 1.0 / COHORT as f64, || {
            format!("phase {i}: uia {uia} does not beat chance")
        });
        let n = phase.latencies_ms.len();
        let tail = stats::tail_percentile(n);
        ctx.check(tail.is_some_and(|p| p >= 99.0), || {
            format!(
                "phase {i}: {n} verdicts leave fewer than {} beyond p99",
                stats::MIN_BEYOND
            )
        });
        if ctx.args.workload == Workload::PointSocket {
            ctx.check(phase.net.protocol_errors == 0, || {
                format!("phase {i}: wire protocol errors")
            });
        }
    }
    let hashes = ctx.model_hashes.clone();
    ctx.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("set-ups trained different models: {hashes:x?}")
    });
    if let Some((r, _)) = &layers {
        ctx.check(r.compared > 0 && r.mismatches == 0, || {
            format!(
                "layer replay: {} of {} verdicts differ from the served ones",
                r.mismatches, r.compared
            )
        });
    }

    let metrics = if ctx.args.trace {
        per_layer(&ctx, &phases[0], last, &layers)
    } else {
        end_to_end(&ctx, last)
    };
    let attempted = phases.iter().map(|p| p.ledger.attempted()).sum();
    let failed = phases.iter().map(|p| p.ledger.failed()).sum();

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut snapshot = last.snapshot.clone();
    let mut attr = |k: &str, v: Value| {
        snapshot.attrs.insert(format!("bench.{k}"), v);
    };
    attr("git_rev", Value::Str(git_rev(&root)));
    attr("source_hash", Value::Str(source_hash(&root)));
    attr("workload", Value::Str(ctx.args.workload.name().into()));
    attr("seed", Value::Int(ctx.args.seed as i64));
    attr("seconds", Value::Float(ctx.args.seconds));
    attr("trace", Value::Bool(ctx.args.trace));
    attr("config", Value::Str(config.clone()));
    attr(
        "config_hash",
        Value::Str(format!(
            "{:016x}",
            Fnv::default().bytes(config.as_bytes()).finish()
        )),
    );
    attr(
        "model_hash",
        Value::Str(
            hashes
                .first()
                .map_or("none".into(), |h| format!("{h:016x}")),
        ),
    );
    attr(
        "simd_backend",
        Value::Str(format!("{:?}", gp_nn::kernels::active_backend())),
    );
    attr("nproc", Value::Int(ctx.nproc as i64));
    attr("workers", Value::Int(ctx.workers as i64));
    attr("correct", Value::Bool(ctx.problems.is_empty()));
    attr(
        "metrics",
        Value::Map(
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Value::record([
                            (
                                "value",
                                Value::Float(if m.value.is_finite() { m.value } else { 0.0 }),
                            ),
                            ("unit", Value::Str(m.unit.into())),
                            ("n", Value::Int(m.n as i64)),
                        ]),
                    )
                })
                .collect::<BTreeMap<_, _>>(),
        ),
    );
    let tag = format!(
        "{}-trace{}",
        ctx.args.workload.name(),
        u8::from(ctx.args.trace)
    );
    if let Err(e) = std::fs::write(
        ctx.out.join(format!("{tag}.json")),
        gp_bench::telemetry_artifact(&snapshot),
    ) {
        ctx.problems
            .push(format!("writing the telemetry artifact: {e}"));
    }
    if ctx.args.trace {
        let mut spans = Tracer::new(ctx.epoch, 0, true);
        for phase in phases {
            spans.absorb(phase.tracer);
        }
        if let Some((_, t)) = layers {
            spans.absorb(t);
        }
        let path = ctx
            .out
            .join(format!("{}.spans.csv", ctx.args.workload.name()));
        if let Err(e) = spans.write_csv(&path) {
            ctx.problems.push(format!("writing spans: {e}"));
        }
    }
    Report {
        correct: ctx.problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems: ctx.problems,
    }
}
