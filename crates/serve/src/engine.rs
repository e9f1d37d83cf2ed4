//! The streaming engine: session registry + micro-batching executor.
//!
//! Frames from many concurrent radar streams are pushed into per-session
//! [`OnlineSegmenter`]s; segments that close are preprocessed and queued
//! as jobs. The executor collects jobs *across sessions* into
//! micro-batches of up to [`ServeConfig::max_batch`] segments and runs
//! each batch through [`GesturePrint::infer_batch`] on the
//! [`WorkerPool`], whose idle workers take the oldest queued batch, so a
//! burst on one stream and trickles on ten others still fill batches
//! and keep every core busy.
//!
//! Determinism: inference is a pure per-sample function, so predictions
//! are identical regardless of worker count or how segments were split
//! into batches — only event *arrival order* varies, and
//! [`ServeEngine::drain`] sorts events by `(session, seq)` to remove
//! even that.

use crate::bus::{EventBus, IdentityOutcome, ServeEvent, ServeStats};
use crate::session::{ClosedSegment, SegmentData, SensorFrame, Session, SessionId};
use gestureprint_core::{GesturePrint, Inference, SensingBackend};
use gp_pipeline::{
    GestureSample, GestureSegment, LabeledSample, OnlineSegmenter, Preprocessor, PreprocessorConfig,
};
use gp_radar::Frame;
use gp_rd::{OnlineRdSegmenter, RdFrame, RdLabeledSample, RdSegment, RdSegmentConfig};
use gp_runtime::{Gate, TokenBucket, WorkerPool};
use gp_store::{Identification, IdentityStore};
use gp_telemetry::{AtomicHistogram, Counter, Registry, SpanId, TelemetrySnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Per-session admission budget: a token bucket refilled at
/// [`AdmissionConfig::frames_per_sec`] with capacity
/// [`AdmissionConfig::burst`]. One bucket per session means an
/// over-rate tenant sheds *its own* frames
/// ([`crate::SessionStats::shed_budget`]) instead of consuming the
/// engine-global capacity that quiet sessions rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained admission rate (frames per second).
    pub frames_per_sec: f64,
    /// Burst allowance (frames): how far a tenant may briefly exceed
    /// the sustained rate. Buckets start full.
    pub burst: f64,
}

impl AdmissionConfig {
    /// A budget admitting `frames_per_sec` sustained with `burst`
    /// frames of headroom.
    pub fn new(frames_per_sec: f64, burst: f64) -> Self {
        AdmissionConfig {
            frames_per_sec,
            burst,
        }
    }

    fn bucket(&self) -> TokenBucket {
        TokenBucket::new(self.frames_per_sec, self.burst)
    }
}

impl gp_codec::Encode for AdmissionConfig {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("frames_per_sec", self.frames_per_sec.encode()),
            ("burst", self.burst.encode()),
        ])
    }
}

impl gp_codec::Decode for AdmissionConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(AdmissionConfig {
            frames_per_sec: value.get("frames_per_sec")?,
            burst: value.get("burst")?,
        })
    }
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Preprocessing (segmentation + noise canceling) shared by all
    /// sessions.
    pub preprocessor: PreprocessorConfig,
    /// Micro-batch size cap: a batch dispatches to the pool as soon as
    /// this many segments are pending (partial batches dispatch on
    /// [`ServeEngine::flush`] / [`ServeEngine::drain`]).
    pub max_batch: usize,
    /// Worker threads for the executor (`0` = available parallelism).
    pub workers: usize,
    /// Backpressure high watermark: the maximum number of segments
    /// dispatched but not yet published. Once reached, the thread that
    /// closes the next batch blocks in `push_frame`/`flush` until the
    /// executor drains below the watermark, so a producer that outpaces
    /// inference cannot grow the queue without limit. (A batch larger
    /// than the watermark is still admitted when the queue is empty.)
    pub pending_high_watermark: usize,
    /// How many *closed* sessions keep their own [`crate::bus::SessionStats`]
    /// entry. Older closed sessions are folded into the evicted
    /// aggregate on [`ServeEngine::drain`], keeping totals correct while
    /// bounding per-session state for millions of short-lived streams.
    pub retain_closed_sessions: usize,
    /// Default per-session admission budget applied by
    /// [`ServeEngine::open_session`]; `None` (the default) admits
    /// without a budget. [`ServeEngine::open_session_with`] overrides
    /// this per session (weighted tenants).
    pub admission: Option<AdmissionConfig>,
    /// Whether the engine records per-stage telemetry (span timing
    /// into the gp-telemetry registry). On by default; the overhead
    /// smoke in `gp-bench` pins the cost at < 5% of throughput. Off
    /// disables all stage clocks and the registry itself.
    pub telemetry: bool,
    /// Segmentation thresholds for sessions opened in range-Doppler
    /// mode ([`ServeEngine::open_rd_session`]).
    pub rd_segmenter: RdSegmentConfig,
    /// Sparse-cloud fallback threshold for hybrid sessions driven with
    /// [`ServeEngine::push_paired_frame`]: a closed point-cloud segment
    /// whose sample was rejected by noise canceling, or whose cloud has
    /// fewer than this many points, is re-routed to the range-Doppler
    /// backend instead (counted in `serve.rd.fallback`). `None` (the
    /// default) disables the fallback — paired RD frames are buffered
    /// but never dispatched.
    pub rd_fallback_min_points: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            preprocessor: PreprocessorConfig::default(),
            max_batch: 8,
            workers: 0,
            pending_high_watermark: 256,
            retain_closed_sessions: 1024,
            admission: None,
            telemetry: true,
            rd_segmenter: RdSegmentConfig::default(),
            rd_fallback_min_points: None,
        }
    }
}

impl gp_codec::Encode for ServeConfig {
    fn encode(&self) -> gp_codec::Value {
        let mut fields = vec![
            ("preprocessor", self.preprocessor.encode()),
            ("max_batch", self.max_batch.encode()),
            ("workers", self.workers.encode()),
            (
                "pending_high_watermark",
                self.pending_high_watermark.encode(),
            ),
            (
                "retain_closed_sessions",
                self.retain_closed_sessions.encode(),
            ),
        ];
        // Additive fields: emitted only when non-default, so configs
        // written before they existed re-encode byte-identically (the
        // golden-fixture identity check relies on this).
        if let Some(admission) = &self.admission {
            fields.push(("admission", admission.encode()));
        }
        if !self.telemetry {
            fields.push(("telemetry", self.telemetry.encode()));
        }
        if self.rd_segmenter != RdSegmentConfig::default() {
            fields.push(("rd_segmenter", self.rd_segmenter.encode()));
        }
        if let Some(min_points) = self.rd_fallback_min_points {
            fields.push(("rd_fallback_min_points", min_points.encode()));
        }
        gp_codec::Value::record(fields)
    }
}

impl gp_codec::Decode for ServeConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(ServeConfig {
            preprocessor: value.get("preprocessor")?,
            max_batch: value.get("max_batch")?,
            workers: value.get("workers")?,
            pending_high_watermark: value.get("pending_high_watermark")?,
            retain_closed_sessions: value.get("retain_closed_sessions")?,
            admission: value.get_or("admission", None)?,
            telemetry: value.get_or("telemetry", true)?,
            rd_segmenter: value.get_or("rd_segmenter", RdSegmentConfig::default())?,
            rd_fallback_min_points: value.get_or("rd_fallback_min_points", None)?,
        })
    }
}

/// Outcome of offering one frame through two-stage admission
/// ([`ServeEngine::offer_frame`]).
#[derive(Debug)]
pub enum Admission {
    /// The frame entered its session; carries the number of segments it
    /// completed (0 or 1), like [`ServeEngine::push_frame`].
    Admitted(usize),
    /// The frame was refused and is handed back untouched.
    Rejected {
        /// The refused frame, returned so a deferring caller can retry
        /// it without having cloned up front.
        frame: Frame,
        /// Which admission stage refused it.
        reason: RejectReason,
    },
}

/// Which admission stage refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The session's own [`AdmissionConfig`] bucket was empty — a
    /// definitive, already-recorded shed charged to the tenant.
    Budget,
    /// The engine-global gate was full while the session was within
    /// budget — transient; the caller may defer and retry.
    Capacity,
}

/// What a session does with the segments it produces, beyond
/// classification. Every session starts in [`SessionMode::Classify`];
/// fronts switch modes via [`ServeEngine::set_session_mode`] (the
/// gp-net `Enroll`/`Identify` wire messages). The session stamps its
/// mode on each segment as it closes, under the session lock, including
/// the gesture [`ServeEngine::close_session`] flushes. A mode switch
/// therefore never relabels a segment that already closed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SessionMode {
    /// Plain gesture + user classification (no identity resolution).
    #[default]
    Classify,
    /// Classify, then fold each segment's embedding into the named
    /// user's gallery template.
    Enroll(String),
    /// Classify, then resolve each segment's embedding open-set
    /// against the gallery.
    Identify,
}

/// The representation-specific half of a [`SegmentJob`]: which backend
/// infers it, with the matching segment and sample types.
enum JobPayload {
    /// A point-cloud segment for [`GesturePrint::infer_batch`]. Labels
    /// are inference-ignored placeholders (`0, 0`): the serving path
    /// classifies unlabeled live segments.
    Point {
        segment: GestureSegment,
        sample: LabeledSample,
    },
    /// A range-Doppler segment for the RD system's
    /// [`GesturePrint::infer_batch`] — from an RD session, or re-routed
    /// from a sparse point-cloud segment by the hybrid fallback (counted
    /// in `serve.rd.fallback` at enqueue).
    Rd {
        segment: RdSegment,
        sample: RdLabeledSample,
    },
}

/// One preprocessed segment waiting for (or undergoing) inference.
struct SegmentJob {
    session: SessionId,
    seq: u64,
    /// Span of the frame that closed this segment (minted at ingest).
    span: SpanId,
    payload: JobPayload,
    detected: Instant,
    /// When the job entered the batch queue — the clock behind the
    /// `queue_wait` stage histogram.
    enqueued: Instant,
    /// The session's mode when this segment closed.
    mode: SessionMode,
}

/// Per-stage latency histograms (`serve.stage.*` in the registry): one
/// result's end-to-end latency decomposed along the span's path through
/// the engine.
struct StageMetrics {
    /// Frame ingest → admission decision (session-lock contention plus
    /// budget/gate probes).
    admission_wait: Arc<AtomicHistogram>,
    /// Online segmentation + preprocessing of the admitted frame.
    segmentation: Arc<AtomicHistogram>,
    /// Segment enqueued → batch claimed by a worker.
    queue_wait: Arc<AtomicHistogram>,
    /// Batch inference time as each result experienced it (the whole
    /// batch's, not an N-th share).
    inference: Arc<AtomicHistogram>,
    /// Inference end → result event published on the bus. In enroll and
    /// identify sessions this stage also holds identity resolution: the
    /// gallery enroll or lookup of the embedding the inference returned.
    publish: Arc<AtomicHistogram>,
}

impl StageMetrics {
    fn register(registry: &Registry) -> StageMetrics {
        StageMetrics {
            admission_wait: registry.histogram("serve.stage.admission_wait"),
            segmentation: registry.histogram("serve.stage.segmentation"),
            queue_wait: registry.histogram("serve.stage.queue_wait"),
            inference: registry.histogram("serve.stage.inference"),
            publish: registry.histogram("serve.stage.publish"),
        }
    }
}

/// Range-Doppler path counters: frames into RD/hybrid sessions,
/// segments routed to the RD backend, results it published, and how
/// many of those segments were sparse point-cloud fallbacks.
struct RdMetrics {
    frames: Arc<Counter>,
    segments: Arc<Counter>,
    results: Arc<Counter>,
    fallback: Arc<Counter>,
}

impl RdMetrics {
    fn register(registry: &Registry) -> RdMetrics {
        RdMetrics {
            frames: registry.counter("serve.rd.frames"),
            segments: registry.counter("serve.rd.segments"),
            results: registry.counter("serve.rd.results"),
            fallback: registry.counter("serve.rd.fallback"),
        }
    }
}

/// The engine's telemetry half: the shared registry every subsystem
/// publishes into, plus the engine's own stage histograms.
struct EngineTelemetry {
    registry: Arc<Registry>,
    stages: Arc<StageMetrics>,
    rd: Arc<RdMetrics>,
}

/// The streaming multi-session inference engine.
///
/// All methods take `&self`. Per-frame work locks only the stream's own
/// session mutex (the registry is read-locked for the lookup, which
/// concurrent drivers share); global locks are touched only when a
/// segment closes.
pub struct ServeEngine {
    system: Arc<GesturePrint>,
    /// The range-Doppler system, when this engine serves RD or hybrid
    /// sessions ([`ServeEngine::with_rd_system`]).
    rd_system: Option<Arc<GesturePrint>>,
    config: ServeConfig,
    preprocessor: Preprocessor,
    pool: WorkerPool,
    /// Bounded-submission gate: weight = segments dispatched but not
    /// yet published. Each job releases its weight after publishing its
    /// event, so an empty gate means every dispatched result is on the
    /// bus ([`ServeEngine::drain`] waits for that).
    gate: Arc<Gate>,
    sessions: RwLock<HashMap<SessionId, Arc<Mutex<Session>>>>,
    pending: Mutex<VecDeque<SegmentJob>>,
    next_session: AtomicU64,
    next_seq: AtomicU64,
    /// Span ids minted at frame ingest ([`ServeConfig::telemetry`] on
    /// or off — events always carry a span).
    next_span: AtomicU64,
    bus: Arc<EventBus>,
    /// The identity store, when this engine serves enrollment and
    /// open-set identification ([`ServeEngine::with_store`]).
    store: Option<Arc<IdentityStore>>,
    /// `Some` when [`ServeConfig::telemetry`] is on.
    telemetry: Option<EngineTelemetry>,
    /// Epoch for the admission buckets' caller-supplied clock.
    epoch: Instant,
}

impl ServeEngine {
    /// Creates an engine serving a trained system (no identity store:
    /// sessions classify only).
    pub fn new(system: GesturePrint, config: ServeConfig) -> Self {
        Self::build(system, config, None)
    }

    /// Creates an engine serving a trained system *with* an identity
    /// store: sessions may switch into [`SessionMode::Enroll`] /
    /// [`SessionMode::Identify`] and each such segment is resolved
    /// against the store's gallery after inference. When telemetry is
    /// on, the store's `store.*` instruments are registered in the
    /// engine's shared registry.
    pub fn with_store(
        system: GesturePrint,
        config: ServeConfig,
        store: Arc<IdentityStore>,
    ) -> Self {
        Self::build(system, config, Some(store))
    }

    fn build(system: GesturePrint, config: ServeConfig, store: Option<Arc<IdentityStore>>) -> Self {
        assert_eq!(
            system.backend(),
            SensingBackend::PointCloud,
            "the engine's primary system serves point clouds; attach a \
             range-Doppler system with ServeEngine::with_rd_system"
        );
        let pool = WorkerPool::new(config.workers);
        let gate = Arc::new(Gate::new(config.pending_high_watermark));
        let preprocessor = Preprocessor::new(config.preprocessor.clone());
        let telemetry = config.telemetry.then(|| {
            let registry = Arc::new(Registry::new());
            pool.instrument(&registry, "serve.pool");
            if let Some(store) = &store {
                store.attach_telemetry(&registry);
            }
            let stages = Arc::new(StageMetrics::register(&registry));
            let rd = Arc::new(RdMetrics::register(&registry));
            EngineTelemetry {
                registry,
                stages,
                rd,
            }
        });
        ServeEngine {
            system: Arc::new(system),
            rd_system: None,
            config,
            preprocessor,
            pool,
            gate,
            sessions: RwLock::new(HashMap::new()),
            pending: Mutex::new(VecDeque::new()),
            next_session: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            bus: Arc::new(EventBus::default()),
            store,
            telemetry,
            epoch: Instant::now(),
        }
    }

    /// Attaches a trained range-Doppler system, enabling
    /// [`ServeEngine::open_rd_session`] /
    /// [`ServeEngine::push_rd_frame`] and the hybrid sparse-cloud
    /// fallback ([`ServeEngine::push_paired_frame`]). Consumed-builder
    /// style: call between construction and first use.
    ///
    /// # Panics
    ///
    /// Panics if `rd`'s backend is not
    /// [`SensingBackend::RangeDoppler`].
    pub fn with_rd_system(mut self, rd: GesturePrint) -> Self {
        assert_eq!(
            rd.backend(),
            SensingBackend::RangeDoppler,
            "with_rd_system requires a system trained on the range-Doppler backend"
        );
        self.rd_system = Some(Arc::new(rd));
        self
    }

    /// The attached range-Doppler system (`None` for point-cloud-only
    /// engines).
    pub fn rd_system(&self) -> Option<&Arc<GesturePrint>> {
        self.rd_system.as_ref()
    }

    /// The identity store this engine resolves identities through
    /// (`None` for classify-only engines).
    pub fn store(&self) -> Option<&Arc<IdentityStore>> {
        self.store.as_ref()
    }

    /// Switches a live session's segment-handling mode. Returns `false`
    /// (and changes nothing) when the session is not live, or when a
    /// non-[`SessionMode::Classify`] mode is requested on an engine
    /// without an identity store.
    pub fn set_session_mode(&self, id: SessionId, mode: SessionMode) -> bool {
        if mode != SessionMode::Classify && self.store.is_none() {
            return false;
        }
        let Some(session) = self.session(id) else {
            return false;
        };
        session.lock().expect("session poisoned").mode = mode;
        true
    }

    /// The trained system being served.
    pub fn system(&self) -> &GesturePrint {
        &self.system
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of executor worker threads.
    pub fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Segments dispatched to the executor whose result has not been
    /// published yet — bounded by
    /// [`ServeConfig::pending_high_watermark`] (except a single
    /// oversized batch admitted on an empty queue).
    pub fn outstanding(&self) -> usize {
        self.gate.outstanding()
    }

    /// Opens a new stream session (with the engine's default admission
    /// budget, [`ServeConfig::admission`]) and returns its id.
    pub fn open_session(&self) -> SessionId {
        self.open_session_with(self.config.admission)
    }

    /// Opens a new stream session with an explicit admission budget
    /// (`None` = unlimited), overriding [`ServeConfig::admission`] —
    /// the hook for weighted tenants.
    pub fn open_session_with(&self, admission: Option<AdmissionConfig>) -> SessionId {
        let segmenter = OnlineSegmenter::new(self.config.preprocessor.segmenter.clone());
        let budget = admission.map(|a| a.bucket());
        self.register(Session::new_point(segmenter, budget))
    }

    /// Opens a new stream session in range-Doppler mode (with the
    /// engine's default admission budget): the session segments
    /// [`RdFrame`] streams pushed via [`ServeEngine::push_rd_frame`]
    /// and its segments infer through the attached RD system.
    ///
    /// # Panics
    ///
    /// Panics when the engine has no range-Doppler system
    /// ([`ServeEngine::with_rd_system`]).
    pub fn open_rd_session(&self) -> SessionId {
        self.open_rd_session_with(self.config.admission)
    }

    /// Opens a range-Doppler session with an explicit admission budget
    /// (`None` = unlimited) — the RD counterpart of
    /// [`ServeEngine::open_session_with`].
    ///
    /// # Panics
    ///
    /// Panics when the engine has no range-Doppler system.
    pub fn open_rd_session_with(&self, admission: Option<AdmissionConfig>) -> SessionId {
        assert!(
            self.rd_system.is_some(),
            "open_rd_session on an engine without an RD system (ServeEngine::with_rd_system)"
        );
        let segmenter = OnlineRdSegmenter::new(self.config.rd_segmenter.clone());
        let budget = admission.map(|a| a.bucket());
        self.register(Session::new_rd(segmenter, budget))
    }

    fn register(&self, session: Session) -> SessionId {
        let id = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
        self.sessions
            .write()
            .expect("session registry poisoned")
            .insert(id, Arc::new(Mutex::new(session)));
        self.bus.register_session(id);
        id
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.sessions
            .read()
            .expect("session registry poisoned")
            .len()
    }

    fn session(&self, id: SessionId) -> Option<Arc<Mutex<Session>>> {
        self.sessions
            .read()
            .expect("session registry poisoned")
            .get(&id)
            .cloned()
    }

    /// Feeds one frame into a session; returns the number of segments
    /// this frame completed (0 or 1). Segments whose sample noise
    /// canceling rejects count here (and in [`ServeStats`]) but publish
    /// no result.
    ///
    /// Full micro-batches dispatch to the worker pool immediately;
    /// results surface later via [`ServeEngine::drain`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live session.
    pub fn push_frame(&self, id: SessionId, frame: Frame) -> usize {
        self.push(id, frame)
    }

    /// Feeds one range-Doppler frame into an RD session; returns the
    /// number of segments this frame completed (0 or 1) — the RD
    /// counterpart of [`ServeEngine::push_frame`], sharing the same
    /// span clocks (`admission_wait`/`segmentation`) and executor path.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live session, or was not opened in
    /// range-Doppler mode.
    pub fn push_rd_frame(&self, id: SessionId, frame: RdFrame) -> usize {
        self.push(id, frame)
    }

    /// Feeds one point-cloud frame *plus* the aligned range-Doppler
    /// frame into a hybrid session. The point path segments and infers
    /// exactly as [`ServeEngine::push_frame`]; the RD frames shadow the
    /// point buffer so that when a closed segment's cloud is sparse
    /// (see [`ServeConfig::rd_fallback_min_points`]) the segment is
    /// re-routed to the range-Doppler backend instead of the unreliable
    /// point path. The two streams must be paired from the session's
    /// first frame.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live point-cloud session, if earlier
    /// frames were pushed unpaired, or if the engine has no RD system.
    pub fn push_paired_frame(&self, id: SessionId, frame: Frame, rd: RdFrame) -> usize {
        assert!(
            self.rd_system.is_some(),
            "push_paired_frame requires an RD system (ServeEngine::with_rd_system)"
        );
        self.push(id, (frame, rd))
    }

    /// Load-shedding variant of [`ServeEngine::push_frame`]: a frame
    /// that cannot be admitted is *dropped* instead of risking a
    /// blocking dispatch, so an over-rate producer degrades (loses
    /// frames) rather than stalls.
    ///
    /// Admission runs in two stages, **per-session budget first**:
    ///
    /// 1. The session's own [`AdmissionConfig`] token bucket (when
    ///    configured). An over-budget frame is shed against the tenant
    ///    ([`crate::SessionStats::shed_budget`]) *before* the global
    ///    gate is consulted, so a hot tenant's excess never competes
    ///    for — or is excused by — engine-global capacity.
    /// 2. The engine-global backpressure gate, probed for a full
    ///    batch's worth of headroom. When `max_batch` more segments
    ///    would not fit below [`ServeConfig::pending_high_watermark`],
    ///    the frame is shed against engine saturation
    ///    ([`crate::SessionStats::shed_frames`]).
    ///
    /// Shed frames never enter the session (not counted in
    /// [`crate::SessionStats::frames`]) and return `None`. When
    /// admitted, the frame proceeds exactly like
    /// [`ServeEngine::push_frame`], and because the probed headroom
    /// covers the largest possible batch, a dispatch this frame
    /// triggers never blocks a lone producer. (Producers racing each
    /// other can still briefly block on the gate between admission and
    /// dispatch — bounded by one batch in flight.)
    ///
    /// Network fronts that would rather *defer* than shed on engine
    /// saturation use [`ServeEngine::offer_frame`], which hands the
    /// frame back instead of recording a capacity shed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live session.
    pub fn try_push_frame(&self, id: SessionId, frame: Frame) -> Option<usize> {
        match self.offer_frame(id, frame) {
            Admission::Admitted(completed) => Some(completed),
            Admission::Rejected {
                reason: RejectReason::Budget,
                ..
            } => None, // already recorded as a budget shed
            Admission::Rejected {
                reason: RejectReason::Capacity,
                ..
            } => {
                self.bus.record_shed_frame(id);
                None
            }
        }
    }

    /// Two-stage admission (session budget, then global gate) that
    /// hands a refused frame *back* to the caller instead of deciding
    /// its fate:
    ///
    /// * [`RejectReason::Budget`] — the session's own bucket refused;
    ///   the shed is definitive and already recorded
    ///   ([`crate::SessionStats::shed_budget`]).
    /// * [`RejectReason::Capacity`] — the engine is saturated but the
    ///   session was within budget (its token was refunded). *Nothing*
    ///   was recorded: the caller chooses to retry later (calling
    ///   [`ServeEngine::note_deferred`] once per deferred frame) or to
    ///   drop via [`ServeEngine::try_push_frame`] semantics.
    ///
    /// This is the primitive `gp-net` builds socket backpressure on: a
    /// capacity-rejected frame pauses that connection's reads (TCP
    /// pushes back on the remote), while a budget-rejected frame is
    /// simply gone — the tenant outran its own contract.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live session.
    pub fn offer_frame(&self, id: SessionId, frame: Frame) -> Admission {
        match self.ingest(id, frame, true) {
            Ok(completed) => Admission::Admitted(completed),
            Err((frame, reason)) => Admission::Rejected { frame, reason },
        }
    }

    /// [`ServeEngine::ingest`] without admission, which admits every
    /// frame.
    fn push(&self, id: SessionId, frame: impl Into<SensorFrame>) -> usize {
        match self.ingest(id, frame, false) {
            Ok(completed) => completed,
            Err(_) => unreachable!("ingest refuses frames only under admission"),
        }
    }

    /// The one frame path. Mints the frame's span, runs admission when
    /// `admit` is set (handing a refused frame back), feeds the frame
    /// to its session and enqueues the segment it closes.
    ///
    /// `admission_wait` times session-lock contention plus admission;
    /// `segmentation` times the session's push.
    fn ingest<F: Into<SensorFrame>>(
        &self,
        id: SessionId,
        frame: F,
        admit: bool,
    ) -> Result<usize, (F, RejectReason)> {
        let session = self
            .session(id)
            .unwrap_or_else(|| panic!("frame pushed into unknown {id}"));
        let span = self.mint_span();
        let ingest = self.telemetry.as_ref().map(|t| (t, Instant::now()));
        let completed = {
            let mut session = session.lock().expect("session poisoned");
            if admit {
                if let Err(reason) = self.admit(&mut session) {
                    drop(session);
                    if reason == RejectReason::Budget {
                        self.bus.record_shed_budget(id);
                    }
                    return Err((frame, reason));
                }
            }
            let frame = frame.into();
            let seg_start = ingest.map(|(t, start)| {
                t.stages.admission_wait.record_duration(start.elapsed());
                if !matches!(frame, SensorFrame::Points(_)) {
                    t.rd.frames.inc();
                }
                (t, Instant::now())
            });
            let completed = session.push(frame, &self.preprocessor);
            if let Some((t, seg_start)) = seg_start {
                t.stages.segmentation.record_duration(seg_start.elapsed());
            }
            // Sequence numbers are drawn while the session lock is still
            // held, so concurrent pushers to one session cannot invert
            // the per-session `seq` order `drain` sorts by.
            completed.map(|c| (c, self.next_seq.fetch_add(1, Ordering::Relaxed)))
        };
        Ok(self.record_completed(id, completed, span))
    }

    /// Two-stage admission under the session lock. The session's own
    /// budget goes first, so a hot tenant sheds against itself even
    /// when the engine also happens to be saturated. Then the engine's
    /// gate must have room for a full batch; this probe acquires
    /// nothing. A capacity refusal refunds the budget token.
    fn admit(&self, session: &mut Session) -> Result<(), RejectReason> {
        if let Some(bucket) = &mut session.budget {
            if !bucket.try_take(1.0, self.epoch.elapsed().as_secs_f64()) {
                return Err(RejectReason::Budget);
            }
        }
        if !self.gate.has_room(self.config.max_batch.max(1)) {
            // Not the tenant's fault — give the token back.
            if let Some(bucket) = &mut session.budget {
                bucket.refund(1.0);
            }
            return Err(RejectReason::Capacity);
        }
        Ok(())
    }

    fn mint_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Records that a front-end deferred a capacity-rejected frame for
    /// later re-admission (see [`ServeEngine::offer_frame`]). Call once
    /// per frame, on its first deferral, so
    /// [`crate::SessionStats::deferred`] counts frames rather than
    /// retries.
    pub fn note_deferred(&self, id: SessionId) {
        self.bus.record_deferred(id);
    }

    /// Closes a session: flushes a gesture still open at stream end and
    /// removes the session from the registry. Returns the number of
    /// segments the close completed (0 or 1). Statistics and queued
    /// results survive the close.
    pub fn close_session(&self, id: SessionId) -> usize {
        let session = self
            .sessions
            .write()
            .expect("session registry poisoned")
            .remove(&id);
        let Some(session) = session else { return 0 };
        // A segment flushed by stream end is "ingested" by the close
        // itself — it still gets a span for its trip through the queue.
        let span = self.mint_span();
        let (finished, frames_seen) = {
            let mut session = session.lock().expect("session poisoned");
            let finished = session
                .finish(&self.preprocessor)
                .map(|c| (c, self.next_seq.fetch_add(1, Ordering::Relaxed)));
            (finished, session.frames_seen())
        };
        // The registry entry is gone; enqueue the final segment (if
        // any) and persist the stream's final frame count *before*
        // marking the session closed: `mark_closed` makes the session
        // eligible for stats eviction, and eviction's correctness rests
        // on everything the session will ever account for being
        // enqueued by then (see [`crate::bus::EventBus::sweep_closed`]).
        let completed = self.record_completed(id, finished, span);
        self.bus.set_frames(id, frames_seen as u64);
        self.bus.mark_closed(id);
        completed
    }

    /// Accounts for a possibly-closed segment: records it, and enqueues
    /// a job for whichever backend should infer it — the point path
    /// when noise canceling kept a sample, the RD path for RD sessions
    /// and for sparse hybrid segments the fallback re-routes.
    fn record_completed(
        &self,
        id: SessionId,
        completed: Option<(ClosedSegment, u64)>,
        span: SpanId,
    ) -> usize {
        let Some((ClosedSegment { mode, data }, seq)) = completed else {
            return 0;
        };
        self.bus.record_segment(id);
        let payload = match data {
            SegmentData::Point(segment, sample, rd_window) => {
                if let Some(rd_sample) = self.take_rd_fallback(&sample, rd_window) {
                    if let Some(t) = &self.telemetry {
                        t.rd.fallback.inc();
                        t.rd.segments.inc();
                    }
                    Some(JobPayload::Rd {
                        segment: RdSegment {
                            start: segment.start,
                            end: segment.end,
                        },
                        sample: rd_sample,
                    })
                } else {
                    sample.map(|sample| JobPayload::Point {
                        segment,
                        sample: LabeledSample::from_sample(sample, 0, 0),
                    })
                }
            }
            SegmentData::Rd(segment, sample) => {
                if let Some(t) = &self.telemetry {
                    t.rd.segments.inc();
                }
                Some(JobPayload::Rd { segment, sample })
            }
        };
        if let Some(payload) = payload {
            let now = Instant::now();
            self.enqueue(SegmentJob {
                session: id,
                seq,
                span,
                payload,
                detected: now,
                enqueued: now,
                mode,
            });
        }
        1
    }

    /// The hybrid fallback decision: hand back the RD window when the
    /// fallback is configured, the session is paired, and the point
    /// sample is missing (noise-canceling reject) or too sparse.
    fn take_rd_fallback(
        &self,
        sample: &Option<GestureSample>,
        rd_window: Option<RdLabeledSample>,
    ) -> Option<RdLabeledSample> {
        let min_points = self.config.rd_fallback_min_points?;
        let rd = rd_window?;
        debug_assert!(self.rd_system.is_some(), "paired push without an RD system");
        let sparse = match sample {
            None => true,
            Some(sample) => sample.cloud.len() < min_points,
        };
        sparse.then_some(rd)
    }

    fn enqueue(&self, job: SegmentJob) {
        self.bus.record_enqueued(job.session);
        // Collect under the lock, dispatch after releasing it: dispatch
        // touches the bus and the pool, and other sessions' segment
        // closes must not serialize behind that.
        let batch = {
            let mut pending = self.pending.lock().expect("pending queue poisoned");
            pending.push_back(job);
            if pending.len() >= self.config.max_batch.max(1) {
                Some(pending.drain(..).collect::<Vec<SegmentJob>>())
            } else {
                None
            }
        };
        if let Some(batch) = batch {
            self.dispatch(batch);
        }
    }

    /// Dispatches any pending partial micro-batch.
    pub fn flush(&self) {
        let batch: Vec<SegmentJob> = {
            let mut pending = self.pending.lock().expect("pending queue poisoned");
            pending.drain(..).collect()
        };
        if !batch.is_empty() {
            self.dispatch(batch);
        }
    }

    fn dispatch(&self, batch: Vec<SegmentJob>) {
        // Backpressure: block here — on the producer that closed the
        // batch — while the executor already has a high watermark's
        // worth of segments outstanding.
        self.gate.acquire(batch.len());
        let system = self.system.clone();
        let rd_system = self.rd_system.clone();
        let bus = self.bus.clone();
        let gate = self.gate.clone();
        let store = self.store.clone();
        let stages = self.telemetry.as_ref().map(|t| t.stages.clone());
        let rd_metrics = self.telemetry.as_ref().map(|t| t.rd.clone());
        self.pool.spawn(move || {
            // Guard: if inference panics, release the gate weight of
            // the batch's unpublished segments so neither blocked
            // producers nor `drain` can hang on lost segments.
            struct Forfeit {
                gate: Arc<Gate>,
                remaining: usize,
            }
            impl Drop for Forfeit {
                fn drop(&mut self) {
                    self.gate.release(self.remaining);
                }
            }
            let mut guard = Forfeit {
                gate,
                remaining: batch.len(),
            };
            // A worker claimed the batch: the queue-wait stage ends
            // here for every job in it.
            if let Some(stages) = &stages {
                let claimed = Instant::now();
                for job in &batch {
                    stages
                        .queue_wait
                        .record_duration(claimed.saturating_duration_since(job.enqueued));
                }
            }
            // Partition by backend: one batched call per system, then
            // results are stitched back into batch order — so a mixed
            // batch still publishes per-job in `(session, seq)` order.
            let mut point_refs: Vec<&LabeledSample> = Vec::new();
            let mut point_at: Vec<usize> = Vec::new();
            let mut rd_refs: Vec<&RdLabeledSample> = Vec::new();
            let mut rd_at: Vec<usize> = Vec::new();
            for (i, job) in batch.iter().enumerate() {
                match &job.payload {
                    JobPayload::Point { sample, .. } => {
                        point_at.push(i);
                        point_refs.push(sample);
                    }
                    JobPayload::Rd { sample, .. } => {
                        rd_at.push(i);
                        rd_refs.push(sample);
                    }
                }
            }
            let infer_start = stages.as_ref().map(|_| Instant::now());
            let mut inferences: Vec<Option<Inference>> = (0..batch.len()).map(|_| None).collect();
            if !point_refs.is_empty() {
                for (&i, inference) in point_at.iter().zip(system.infer_batch(&point_refs)) {
                    inferences[i] = Some(inference);
                }
            }
            if !rd_refs.is_empty() {
                let rd_system = rd_system
                    .as_ref()
                    .expect("RD job enqueued without an RD system");
                for (&i, inference) in rd_at.iter().zip(rd_system.infer_batch(&rd_refs)) {
                    inferences[i] = Some(inference);
                }
            }
            // Every result in the batch experienced the whole batch's
            // inference time — that is its latency, not an N-th share.
            let infer_done = infer_start.map(|start| (start.elapsed(), Instant::now()));
            let inferences = inferences
                .into_iter()
                .map(|i| i.expect("every job in the batch was inferred"));
            for (job, inference) in batch.iter().zip(inferences) {
                // Identity resolution happens on the worker, after
                // inference: the inference carries the fusion feature of
                // the identifier the predicted gesture routed to, which
                // is enrolled or matched open-set.
                let identity = resolve_identity(store.as_deref(), &job.mode, &inference);
                if matches!(identity, Some(IdentityOutcome::Enrolled { .. })) {
                    bus.record_enrolled(job.session);
                }
                // Stage clocks are recorded *before* the gate release:
                // the release is what lets `drain` return, so anything
                // recorded after it races a stats() reader.
                if let (Some(stages), Some((infer_elapsed, done_at))) = (&stages, &infer_done) {
                    stages.inference.record_duration(*infer_elapsed);
                    // Publish delay includes waiting behind this
                    // batch's earlier results — the real delay this
                    // result saw between inference end and its event.
                    stages.publish.record_duration(done_at.elapsed());
                }
                let (segment, backend) = match &job.payload {
                    JobPayload::Point { segment, .. } => (*segment, SensingBackend::PointCloud),
                    JobPayload::Rd { segment, .. } => (
                        // RD segments share the point type's frame-index
                        // semantics, so events stay representation-
                        // agnostic downstream.
                        GestureSegment {
                            start: segment.start,
                            end: segment.end,
                        },
                        SensingBackend::RangeDoppler,
                    ),
                };
                if backend == SensingBackend::RangeDoppler {
                    if let Some(rd) = &rd_metrics {
                        rd.results.inc();
                    }
                }
                bus.publish(ServeEvent {
                    session: job.session,
                    seq: job.seq,
                    span: job.span,
                    segment,
                    backend,
                    inference,
                    identity,
                    latency: job.detected.elapsed(),
                });
                // Gate weight releases *after* the publish: once the gate
                // is empty, every dispatched result is on the bus
                // (`drain` relies on this).
                guard.gate.release(1);
                guard.remaining -= 1;
            }
        });
    }

    /// Takes every event published so far *without* flushing pending
    /// partial batches or waiting for in-flight work — the non-blocking
    /// pump for streaming consumers (the `gp-net` reactor) that must
    /// never barrier behind inference. Each poll's events are sorted by
    /// `(session, seq)`, but unlike [`ServeEngine::drain`] there is no
    /// barrier, so with multiple workers a later poll can surface an
    /// earlier `seq` from a still-in-flight batch — order-sensitive
    /// consumers should reorder on `seq` per session.
    ///
    /// Pair with a periodic [`ServeEngine::flush`] so lone segments in
    /// a partial batch don't wait forever, and use
    /// [`ServeEngine::drain`] when a full barrier (and closed-session
    /// stats eviction) is actually wanted.
    pub fn poll_events(&self) -> Vec<ServeEvent> {
        let mut events = self.bus.take_events();
        events.sort_by_key(|e| (e.session, e.seq));
        events
    }

    /// Whether a session's accounting is final: it has been closed and
    /// every segment it enqueued for inference has published its
    /// result. (A live session is never settled — more frames may
    /// arrive.) Streaming fronts use this to know when a closed
    /// stream's last results are out before saying goodbye; the queued
    /// final segment still needs a [`ServeEngine::flush`] (or full
    /// [`ServeEngine::drain`]) to dispatch first.
    pub fn session_settled(&self, id: SessionId) -> bool {
        self.session(id).is_none() && self.bus.is_settled(id)
    }

    /// Flushes pending segments, waits for all in-flight batches, and
    /// returns every event published since the last drain, sorted by
    /// `(session, seq)` for deterministic consumption.
    pub fn drain(&self) -> Vec<ServeEvent> {
        // Eviction eligibility is snapshotted *before* the flush: a
        // session closed before this point has already enqueued its
        // final segment (see `close_session`), so the flush dispatches
        // it and the gate empties only once its result is published —
        // its accounting is final. Sessions closed concurrently after
        // the snapshot simply wait for the next drain.
        let eligible = self.bus.close_epoch();
        self.flush();
        self.gate.wait_empty();
        self.bus
            .sweep_closed(self.config.retain_closed_sessions, eligible);
        let mut events = self.bus.take_events();
        events.sort_by_key(|e| (e.session, e.seq));
        events
    }

    /// Snapshot of one session's statistics — O(1) in the number of
    /// sessions, unlike [`ServeEngine::stats`], so per-connection
    /// goodbye paths can read their ledger without cloning the world.
    /// `None` once the session's entry has been evicted (or never
    /// existed).
    pub fn session_stats(&self, id: SessionId) -> Option<crate::SessionStats> {
        let mut stats = self.bus.session_stats(id)?;
        if let Some(session) = self.session(id) {
            stats.frames = session.lock().expect("session poisoned").frames_seen() as u64;
        }
        Some(stats)
    }

    /// Snapshot of per-session and aggregate statistics.
    ///
    /// Frame counts live in each session's own state (off the per-frame
    /// hot path); live sessions are folded in here, closed sessions were
    /// persisted at close time.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.bus.stats();
        let sessions = self.sessions.read().expect("session registry poisoned");
        for (&id, session) in sessions.iter() {
            let frames = session.lock().expect("session poisoned").frames_seen() as u64;
            stats.sessions.entry(id).or_default().frames = frames;
        }
        drop(sessions);
        stats
    }

    /// The shared telemetry registry, the namespace every subsystem
    /// publishes into: the engine's stage histograms and pool
    /// utilization live here, and fronts (gp-net) register their own
    /// counters alongside. `None` when [`ServeConfig::telemetry`] is
    /// off.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// A point-in-time [`TelemetrySnapshot`] of the whole registry,
    /// with the engine's instantaneous gauges (gate depth, live
    /// sessions) refreshed first. `None` when telemetry is off.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let t = self.telemetry.as_ref()?;
        t.registry
            .gauge("serve.gate.depth")
            .set(self.gate.outstanding() as i64);
        t.registry
            .gauge("serve.gate.high_watermark")
            .set(self.config.pending_high_watermark as i64);
        t.registry
            .gauge("serve.sessions.live")
            .set(self.session_count() as i64);
        Some(t.registry.snapshot())
    }
}

/// Resolves one job's identity against the store, per its mode
/// snapshot, from the embedding the job's inference returned — no
/// model runs here. Returns `None` for classify jobs, engines without a
/// store, or systems whose identifier exposes no fusion embedding
/// (non-GesIDNet models); enrollment failures (e.g. an embedding
/// dimension that no longer matches the gallery, counted as
/// `store.enroll.rejected`) also resolve to `None` rather than
/// poisoning the batch. The embedding comes from whichever backend
/// inferred the job, so an RD gallery and a point-cloud gallery never
/// mix (their dimensions differ and the store's dimension check
/// rejects a crossover).
fn resolve_identity(
    store: Option<&IdentityStore>,
    mode: &SessionMode,
    inference: &Inference,
) -> Option<IdentityOutcome> {
    let store = store?;
    let embedding = inference.embedding.as_deref()?;
    match mode {
        SessionMode::Classify => None,
        SessionMode::Enroll(user) => {
            store
                .enroll(user, embedding)
                .ok()
                .map(|receipt| IdentityOutcome::Enrolled {
                    user: receipt.user,
                    samples: receipt.samples,
                })
        }
        SessionMode::Identify => Some(match store.identify(embedding) {
            Identification::Accepted(m) => IdentityOutcome::Identified {
                user: m.user,
                distance: m.distance,
            },
            Identification::Rejected(nearest) => IdentityOutcome::Unknown {
                distance: nearest.map(|m| m.distance),
            },
        }),
    }
}
