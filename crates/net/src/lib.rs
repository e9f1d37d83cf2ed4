//! Socket-fronted serving for GesturePrint: the network edge of
//! [`gp_serve`].
//!
//! The paper's deployment model is a live mmWave sensor pushing frames
//! to a recognition service. This crate is that wire: radar streams
//! arrive over TCP or Unix domain sockets as length-prefixed,
//! checksummed frames ([`gp_codec::framing`]) carrying [`wire`]
//! messages — radar frames in a fixed little-endian binary layout,
//! every other message as gp-codec JSON — and a single-threaded
//! non-blocking reactor ([`NetServer`]) feeds them through
//! [`gp_serve::ServeEngine`]'s two-stage admission:
//!
//! 1. **Per-session budget** ([`gp_serve::AdmissionConfig`], a token
//!    bucket) — an over-rate tenant sheds *its own* frames, recorded
//!    against that session, before engine capacity is ever consulted.
//! 2. **Engine capacity** — when the global gate is full for a
//!    within-budget session, the frame is *deferred*: the reactor parks
//!    it and stops reading that connection, so the kernel's socket
//!    buffer fills and TCP pushes back on the sender instead of the
//!    server buffering without bound.
//!
//! Classified results stream back to each client, and a graceful close
//! ends with a [`wire::ServerMsg::Bye`] carrying the session's exact
//! admission ledger — every frame a client sent is accounted admitted,
//! budget-shed, or capacity-shed, with nothing lost in between.
//!
//! Observability rides the same wire: [`wire::ClientMsg::StatsQuery`]
//! mid-stream returns a live, versioned
//! [`gp_telemetry::TelemetrySnapshot`] ([`NetClient::query_stats`]) —
//! per-stage latency histograms, pool utilization, and the reactor's
//! `net.*` counters in one export.
//!
//! Identity rides it too (since wire v2): [`NetClient::enroll`] switches a
//! session into enrollment mode (every completed segment's embedding
//! joins that user's gallery template in the server's
//! [`gp_serve::IdentityStore`]), and [`NetClient::identify_mode`] turns
//! results into open-set identity verdicts — a known user within the
//! calibrated gallery threshold, or an explicit *unknown*.
//!
//! # Example
//!
//! ```no_run
//! use gp_net::{NetClient, NetConfig, NetListener, NetServer};
//! use gp_serve::ServeEngine;
//! use std::sync::Arc;
//! # fn demo(engine: Arc<ServeEngine>, frames: Vec<gp_radar::Frame>) -> std::io::Result<()> {
//! let listener = NetListener::bind_tcp("127.0.0.1:0")?;
//! let server = NetServer::spawn(engine, listener, NetConfig::default())?;
//! let addr = server.local_addr().expect("tcp listener has an address");
//!
//! let mut client = NetClient::connect_tcp(addr, 1 << 20)?;
//! for frame in &frames {
//!     client.send_frame(frame)?;
//! }
//! let report = client.close()?;
//! println!("{} results, {:?}", report.results.len(), report.ledger);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod server;
mod stream;
pub mod wire;

pub use client::{ClientResult, NetClient, SessionReport};
pub use server::{NetConfig, NetListener, NetServer, NetStats};
// Re-exported so socket peers can name the `StatsQuery` reply type.
pub use gp_telemetry::TelemetrySnapshot;
// Re-exported so result consumers can match identity verdicts without
// naming gp-serve.
pub use gp_serve::IdentityOutcome;
pub use wire::{ClientMsg, ServerMsg, WireLedger, MIN_WIRE_VERSION, WIRE_VERSION};
