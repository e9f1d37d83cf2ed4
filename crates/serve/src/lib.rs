//! Streaming multi-session serving for GesturePrint.
//!
//! The paper's system runs *inside* a live mmWave deployment: frames
//! arrive continuously at 10 fps and every detected gesture is
//! classified twice (which gesture, which user). This crate turns the
//! offline reproduction into that serving path:
//!
//! * **Session registry** ([`ServeEngine`]) — multiplexes many
//!   concurrent radar streams; each session runs
//!   [`gp_pipeline::OnlineSegmenter`], the incremental port of the
//!   offline sliding-window segmenter, over its frames as they arrive,
//!   with a bounded frame buffer (idle streams retain only the motion
//!   window).
//! * **Micro-batching executor** — segments that close are preprocessed
//!   and collected *across sessions* into batches of up to
//!   [`ServeConfig::max_batch`], then run through
//!   [`gestureprint_core::GesturePrint::infer_batch`] on the engine's
//!   [`gp_runtime::WorkerPool`], whose workers take batches from one
//!   FIFO queue. Submission is bounded by one gate, which counts the
//!   segments dispatched but not yet published: once
//!   [`ServeConfig::pending_high_watermark`] of them are in flight,
//!   `push_frame` blocks the producer (backpressure)
//!   instead of growing the queue without limit, while
//!   [`ServeEngine::try_push_frame`] *sheds* the frame instead — for
//!   producers that must never stall — counting it in the session's
//!   [`SessionStats::shed_frames`]. [`ServeEngine::drain`] waits for
//!   the same gate to empty.
//! * **One frame path** — `push_frame`, `push_rd_frame` and
//!   `offer_frame` all enter through one ingest body: time the frame's
//!   admission, feed the session under its lock, enqueue the segment
//!   it closes. Each session owns its [`SessionMode`] and stamps it on
//!   every segment as it closes, including the gesture
//!   [`ServeEngine::close_session`] flushes.
//! * **Per-session admission** ([`AdmissionConfig`]) — the one step
//!   [`ServeEngine::offer_frame`] adds to that path: an optional token
//!   bucket charged *before* a read-only probe of the shared gate, in
//!   that order. A `Budget` rejection is definitive (the tenant is over
//!   its own rate, counted in [`SessionStats::shed_budget`]), while a
//!   `Capacity` rejection refunds the token, so transient engine-wide
//!   overload is never billed to an in-budget tenant. `offer_frame`
//!   exposes the staged decision (admitted / rejected with the frame
//!   handed back) for fronts like `gp-net` that want to defer rather
//!   than drop on capacity.
//! * **Event/result bus** ([`ServeEvent`], [`ServeStats`]) — classified
//!   segments flow out with per-session frame/segment/result counters
//!   and segment-to-result latency percentiles (p50/p99), backed by
//!   mergeable `gp_telemetry` histograms.
//! * **Backend-agnostic sessions** — a session declares its one sensing
//!   modality at open: [`ServeEngine::open_session`] streams point
//!   clouds, [`ServeEngine::open_rd_session`] streams range-Doppler
//!   frames through [`gp_rd::OnlineRdSegmenter`] and infers them on
//!   the engine's attached RD system
//!   ([`ServeEngine::with_rd_system`]). Mixed batches partition by
//!   backend and publish in the same `(session, seq)` order.
//! * **Observability** — every engine owns a shared
//!   [`gp_telemetry::Registry`] ([`ServeEngine::registry`]). Each frame
//!   and each result are timed through the five pipeline stages
//!   (admission-wait → segmentation → queue-wait → inference →
//!   publish) into its `serve.stage.*` histograms, with each closed
//!   point segment's assembly inside segmentation timed on its own
//!   (`serve.stage.assembly`); the worker pool and
//!   the identity store publish into it too, and
//!   [`ServeEngine::telemetry_snapshot`] exports the registry (stage
//!   histograms, pool utilization, gate-depth gauges) as a versioned
//!   [`gp_telemetry::TelemetrySnapshot`].
//!
//! # Example
//!
//! ```no_run
//! use gp_serve::{ServeConfig, ServeEngine};
//! # fn demo(system: gestureprint_core::GesturePrint, frames: Vec<gp_radar::Frame>) {
//! let engine = ServeEngine::new(system, ServeConfig::default());
//! let session = engine.open_session();
//! for frame in frames {
//!     engine.push_frame(session, frame);
//! }
//! engine.close_session(session);
//! for event in engine.drain() {
//!     println!(
//!         "{}: frames [{}, {}) → gesture {} by user {} ({:?})",
//!         event.session,
//!         event.segment.start,
//!         event.segment.end,
//!         event.inference.gesture,
//!         event.inference.user,
//!         event.latency,
//!     );
//! }
//! # }
//! ```
//!
//! Replaying a recording frame-by-frame through the engine yields the
//! same segment boundaries as the offline
//! [`gp_pipeline::Preprocessor`] on the whole recording — enforced by
//! `tests/parity.rs` — and predictions are identical across 1 and N
//! worker threads because inference is a pure per-sample function.

#![forbid(unsafe_code)]

pub mod bus;
pub mod engine;
pub mod session;

pub use bus::{IdentityOutcome, ServeEvent, ServeStats, SessionStats};
pub use engine::{Admission, AdmissionConfig, RejectReason, ServeConfig, ServeEngine, SessionMode};
// Sessions are representation-agnostic: a session declares its sensing
// backend at open (`open_session` = point cloud, `open_rd_session` =
// range-Doppler) and every event reports which backend inferred it.
pub use gestureprint_core::SensingBackend;
// The RD frame/segmenter types flow through `push_rd_frame` and
// `ServeConfig::rd_segmenter`; re-exported so serving callers can
// construct them without naming gp-rd directly.
pub use gp_rd::{RdFrame, RdSegmentConfig};
// The identity store is co-owned with callers (enrollment tooling,
// gp-net fronts); re-exported so they can construct one without
// naming gp-store directly.
pub use gp_store::{IdentityStore, RegistryConfig};
// The observability layer is shared with gp-net and gp-runtime;
// re-exported so serving callers can name snapshot/histogram types.
pub use gp_telemetry::{Histogram, Registry, TelemetrySnapshot};
pub use session::SessionId;
