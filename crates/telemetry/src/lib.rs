//! # gp-telemetry
//!
//! The unified observability layer for the GesturePrint serving stack:
//! one metric namespace, bounded-memory latency histograms, and a
//! versioned export format — with no dependencies beyond `gp-codec`.
//!
//! Two pieces:
//!
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`],
//!   [`AtomicHistogram`]): named registration hands out `Arc` handles
//!   that record through relaxed atomics; the registry is locked only
//!   at registration and snapshot time. [`Histogram`] is the plain
//!   mergeable variant — per-octave log-linear buckets (≤25% relative
//!   error, exact `min`/`max`), exact bucket-wise [`Histogram::merge`],
//!   fixed [`hist::BUCKETS`]-sized memory. The serve engine times each
//!   frame and result with `Instant`s into one histogram per stage
//!   (`admission_wait → segmentation → queue_wait → inference →
//!   publish`), which decompose a result's end-to-end latency.
//! - **Export** ([`TelemetrySnapshot`]): a versioned, deterministic,
//!   sparsely-encoded snapshot of the whole registry — the payload
//!   behind `BENCH_*.json` trajectory artifacts, the gp-net
//!   `StatsQuery` reply, and the soak test's tier-2 upload.

#![forbid(unsafe_code)]

pub mod hist;
pub mod registry;
pub mod snapshot;

pub use hist::{AtomicHistogram, Histogram};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::{TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION};
