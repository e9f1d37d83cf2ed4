//! The shared execution layer for the GesturePrint workspace.
//!
//! Before this crate existed, three different crates hand-rolled their
//! own parallelism: `gestureprint-core` chunked per-gesture identifier
//! training over `std::thread::scope`, `gp-datasets` did the same for
//! capture work items, and `gp-serve` owned a private pool for its
//! micro-batching executor. This crate is the single home for all of
//! it:
//!
//! * [`WorkerPool`] — a fixed-size pool of long-lived workers over one
//!   FIFO job queue: [`WorkerPool::spawn`] appends a `'static` job and
//!   the next idle worker takes the oldest. A panicking job is caught
//!   and counted; dropping the pool runs every queued job first. The
//!   pool publishes its utilization (busy workers, jobs, panics, busy
//!   time) into the `gp_telemetry::Registry` it is built with.
//! * **Ordered map** — [`scope_map`] applies a function across items on
//!   scoped threads and returns results in input order. Its closure may
//!   borrow the caller's stack, and it waits only on threads it
//!   started, so it is safe to call from a pool job or from inside
//!   another `scope_map` item.
//! * [`Gate`] — a weighted high-watermark counter for bounded-queue
//!   submission: acquiring past the watermark blocks the producer until
//!   enough outstanding work drains, so a runaway producer blocks
//!   instead of growing the queue without limit. [`Gate::has_room`]
//!   probes without acquiring, and [`Gate::wait_empty`] waits until
//!   everything acquired has been released. `gp-serve` acquires one
//!   weight per dispatched segment and releases it once that segment's
//!   result is published, so its gate is the engine's one count of
//!   in-flight segments.
//! * [`TokenBucket`] — a per-tenant rate budget (capacity `burst`,
//!   refilling at `rate`/second, caller-supplied clock). Where the
//!   `Gate` bounds *global* capacity, a bucket bounds one tenant: an
//!   over-rate tenant exhausts its own tokens and sheds its own work
//!   instead of consuming shared headroom. `gp-serve` keeps one per
//!   session for admission control.
//!
//! Everything here is deterministic in the sense callers rely on:
//! the ordered map returns results positionally, so a pure per-item
//! function yields identical output for 1 or N threads regardless of
//! scheduling.

#![forbid(unsafe_code)]

pub mod budget;
pub mod gate;
pub mod pool;

pub use budget::TokenBucket;
pub use gate::Gate;
pub use pool::{scope_map, WorkerPool};
