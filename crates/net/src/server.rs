//! The socket front: a single-threaded, non-blocking reactor that
//! multiplexes framed radar streams into a shared
//! [`gp_serve::ServeEngine`].
//!
//! # Design
//!
//! One reactor thread owns every connection. Sockets are plain `std`
//! non-blocking streams; each tick the reactor
//!
//! 1. every 2 ms, accepts pending connections,
//! 2. flushes each connection's outbound buffer,
//! 3. re-offers each connection's *deferred* frame (see below),
//! 4. reads a bounded chunk per connection (round-robin fairness),
//!    deframes with [`gp_codec::FrameDecoder`], and routes decoded
//!    [`ClientMsg`]s through [`ServeEngine::offer_frame`] two-stage
//!    admission,
//! 5. periodically [`ServeEngine::flush`]es partial micro-batches,
//! 6. polls published results ([`ServeEngine::poll_events`]) and writes
//!    them back to the owning connection.
//!
//! **No probe that is sure to find nothing.** `accept` is probed every
//! 2 ms, so a new connection waits at most that long (plus a tick) for
//! its `Welcome`, instead of every tick paying for an `accept` that
//! returns `EAGAIN`. The period is its own, not
//! [`NetConfig::flush_interval`]: a server that batches on a long
//! interval still accepts promptly. A connection's read
//! loop ends at a short read — the kernel had no more bytes queued —
//! instead of reading once more to see `WouldBlock`. A tick still reads
//! every connection once, and one with nothing queued answers
//! `WouldBlock`; only readiness would skip that read. The
//! `net.reactor.*` counters count the ticks, the idle ticks, the accept
//! probes, the reads and the reads that came back empty.
//!
//! **Backpressure, not buffering.** A frame the engine rejects for
//! *capacity* (session within budget, engine saturated) is parked as
//! the connection's one `deferred` frame and the connection stops
//! reading — the kernel socket buffer fills and TCP pushes back on the
//! remote. A frame rejected by the session's own *budget* is already
//! shed against that tenant and simply dropped. This is how an
//! over-rate tenant sheds its own frames while quiet tenants keep
//! their latency.
//!
//! **Slow readers are shed, not grown.** Outbound buffers are capped
//! ([`NetConfig::out_buffer_cap`]); a result that would overflow a slow
//! reader's buffer is counted ([`NetStats::dropped_results`]) and
//! dropped rather than ballooning server memory. `Welcome`/`Stats`/
//! `Bye`/`Error` control messages are always queued.
//!
//! **Live observability.** [`ClientMsg::StatsQuery`] mid-stream is
//! answered with [`ServerMsg::Stats`] carrying the current
//! [`gp_telemetry::TelemetrySnapshot`] of the engine's registry — stage
//! latency histograms, pool utilization, and the reactor's own `net.*`
//! counters, which it registers there.
//!
//! **Exact goodbyes.** On [`ClientMsg::Close`] the engine session is
//! closed; once [`ServeEngine::session_settled`] reports every enqueued
//! segment published *and* the results have been routed, the reactor
//! sends [`ServerMsg::Bye`] with the session's full admission ledger.
//! The settled check is snapshotted *before* the event poll in the same
//! tick, so a result can never be published after its session's Bye.
//!
//! The reactor never blocks on inference: it uses the non-blocking
//! [`ServeEngine::poll_events`] pump (never `drain`), and the only
//! blocking engine calls are bounded gate waits inside `flush`.

use crate::stream::Stream;
use crate::wire::{
    from_wire, try_to_wire, ClientMsg, ServerMsg, WireLedger, MIN_WIRE_VERSION, WIRE_VERSION,
};
use gp_codec::FrameDecoder;
use gp_radar::Frame;
use gp_serve::{Admission, RejectReason, ServeEngine, SessionId, SessionMode};
use gp_telemetry::{AtomicHistogram, Counter, Registry};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest `Error` text the server sends (bytes). Error texts may quote
/// client bytes, and an `Error` must always fit the frame cap.
const MAX_ERROR_TEXT: usize = 256;

/// Maximum bytes read from one connection per reactor tick —
/// round-robin fairness so a firehose connection cannot starve the
/// rest of the tick.
const READ_CHUNK: usize = 16 << 10;

/// Reactor sleep when a tick found no work (bounds idle CPU).
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// How often the reactor probes its listener: a new connection waits
/// at most this long (plus a tick) for its `Welcome`.
const ACCEPT_EVERY: Duration = Duration::from_millis(2);

/// Socket-front configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Maximum framed message size accepted or produced (bytes).
    pub max_frame: usize,
    /// Whether classified results are streamed back to clients. Off,
    /// results are still polled and accounted, just not serialized —
    /// useful for ingest-only deployments and admission benchmarks.
    pub send_results: bool,
    /// Outbound buffer cap per connection (bytes). Results that would
    /// overflow it are dropped and counted, so one slow reader cannot
    /// grow server memory.
    pub out_buffer_cap: usize,
    /// How often partial micro-batches are flushed to the executor, so
    /// a lone segment never waits indefinitely for a full batch.
    pub flush_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame: 1 << 20,
            send_results: true,
            out_buffer_cap: 256 << 10,
            flush_interval: Duration::from_millis(2),
        }
    }
}

/// A bound, not-yet-serving listener for [`NetServer::spawn`].
#[derive(Debug)]
pub enum NetListener {
    /// TCP on any interface `bind_tcp` resolved.
    Tcp(TcpListener),
    /// A Unix domain socket (Unix only).
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds a TCP listener (use port 0 for an ephemeral port, then
    /// [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(NetListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix domain socket listener at `path` (the path must not
    /// already exist).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    #[cfg(unix)]
    pub fn bind_unix(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(NetListener::Unix(UnixListener::bind(path)?))
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            NetListener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            NetListener::Unix(_) => None,
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            NetListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    /// Accepts one pending connection, or `None` when none is waiting.
    fn accept(&self) -> io::Result<Option<Stream>> {
        let accepted = match self {
            NetListener::Tcp(l) => l.accept().map(|(stream, _)| {
                // Results are small and latency-sensitive.
                let _ = stream.set_nodelay(true);
                Stream::Tcp(stream)
            }),
            #[cfg(unix)]
            NetListener::Unix(l) => l.accept().map(|(stream, _)| Stream::Unix(stream)),
        };
        match accepted {
            Ok(stream) => {
                stream.set_nonblocking(true)?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for [`ClientMsg::Hello`].
    Handshake,
    /// Live stream feeding the engine session.
    Streaming(SessionId),
    /// Session closed in the engine; waiting for it to settle so the
    /// Bye ledger is final.
    Closing(SessionId),
    /// Goodbye (or fatal error) queued; connection drops once the
    /// outbound buffer is flushed.
    Draining,
}

struct Conn {
    stream: Stream,
    decoder: FrameDecoder,
    /// Outbound bytes not yet accepted by the kernel; `out_pos` is the
    /// already-written prefix.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// A capacity-rejected frame waiting for engine headroom; while
    /// present the connection does not read (socket-level backpressure).
    deferred: Option<Frame>,
    /// Results dropped because this client's outbound buffer was full.
    dropped_results: u64,
    /// Peer half-closed its write side (EOF seen); expected after
    /// `Close`, a mid-stream disconnect otherwise.
    read_eof: bool,
}

impl Conn {
    fn new(stream: Stream, max_frame: usize) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_frame),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Handshake,
            deferred: None,
            dropped_results: 0,
            read_eof: false,
        }
    }

    fn session(&self) -> Option<SessionId> {
        match self.state {
            ConnState::Streaming(id) | ConnState::Closing(id) => Some(id),
            _ => None,
        }
    }

    fn out_backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn queue(&mut self, bytes: &[u8]) {
        if self.out_pos > 0 && self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Writes buffered bytes until the kernel pushes back. `Err` means
    /// the connection is gone.
    fn flush_out(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }
}

/// Socket-front counters, registered as `net.*` in the engine's shared
/// telemetry registry, so one [`gp_telemetry::TelemetrySnapshot`]
/// covers serve + pool + net.
#[derive(Debug)]
struct NetCounters {
    accepted: Arc<Counter>,
    closed: Arc<Counter>,
    decoded_frames: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    disconnects: Arc<Counter>,
    dropped_results: Arc<Counter>,
    orphaned_results: Arc<Counter>,
    /// Reactor ticks, and the ticks that found no work (each followed
    /// by an [`IDLE_SLEEP`]).
    ticks: Arc<Counter>,
    idle_ticks: Arc<Counter>,
    /// Listener `accept` probes (one per [`ACCEPT_EVERY`]).
    accept_probes: Arc<Counter>,
    /// Connection `read` calls, and those that returned `WouldBlock`.
    reads: Arc<Counter>,
    empty_reads: Arc<Counter>,
    /// Payload decode time (µs per payload, every message type).
    decode: Arc<AtomicHistogram>,
}

impl NetCounters {
    fn register(registry: &Registry) -> NetCounters {
        NetCounters {
            accepted: registry.counter("net.accepted"),
            closed: registry.counter("net.closed"),
            decoded_frames: registry.counter("net.decoded_frames"),
            protocol_errors: registry.counter("net.protocol_errors"),
            disconnects: registry.counter("net.disconnects"),
            dropped_results: registry.counter("net.dropped_results"),
            orphaned_results: registry.counter("net.orphaned_results"),
            ticks: registry.counter("net.reactor.ticks"),
            idle_ticks: registry.counter("net.reactor.idle_ticks"),
            accept_probes: registry.counter("net.reactor.accept_probes"),
            reads: registry.counter("net.reactor.reads"),
            empty_reads: registry.counter("net.reactor.empty_reads"),
            decode: registry.histogram("net.reactor.decode"),
        }
    }
}

/// A snapshot of socket-front counters (engine-side admission counters
/// live in [`gp_serve::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections fully closed (gracefully or not).
    pub closed: u64,
    /// [`ClientMsg::Frame`] messages successfully decoded. Every one is
    /// accounted for in the engine:
    /// `decoded_frames == Σ (admitted + shed_budget + shed_capacity)`
    /// once all connections have drained.
    pub decoded_frames: u64,
    /// Corrupt frames skipped plus fatal protocol violations.
    pub protocol_errors: u64,
    /// Connections that vanished mid-stream (EOF or error without
    /// [`ClientMsg::Close`]).
    pub disconnects: u64,
    /// Results dropped because the owning client read too slowly.
    pub dropped_results: u64,
    /// Results whose connection was already gone when they published.
    pub orphaned_results: u64,
}

impl NetCounters {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.get(),
            closed: self.closed.get(),
            decoded_frames: self.decoded_frames.get(),
            protocol_errors: self.protocol_errors.get(),
            disconnects: self.disconnects.get(),
            dropped_results: self.dropped_results.get(),
            orphaned_results: self.orphaned_results.get(),
        }
    }
}

/// Handle to a running socket front. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the reactor, closing every live
/// session so engine accounting stays exact.
pub struct NetServer {
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    addr: Option<SocketAddr>,
    handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Starts the reactor thread serving `engine` on `listener`.
    ///
    /// # Errors
    ///
    /// Propagates failure to configure the listener as non-blocking.
    pub fn spawn(
        engine: Arc<ServeEngine>,
        listener: NetListener,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        listener.set_nonblocking()?;
        let addr = listener.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::register(engine.registry()));
        let reactor = Reactor {
            engine,
            listener,
            config,
            stop: stop.clone(),
            counters: counters.clone(),
            conns: HashMap::new(),
            routes: HashMap::new(),
            next_conn: 0,
            last_flush: Instant::now(),
            last_accept: Instant::now(),
        };
        let handle = std::thread::Builder::new()
            .name("gp-net-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawning the reactor thread");
        Ok(NetServer {
            stop,
            counters,
            addr,
            handle: Some(handle),
        })
    }

    /// The bound TCP address (`None` for Unix listeners).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Current socket-front counters.
    pub fn stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Stops the reactor and waits for it to clean up (live sessions
    /// are closed in the engine first).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Why a connection is being torn down, for accounting.
enum Teardown {
    /// Outbound buffer fully flushed after a goodbye.
    Graceful,
    /// Peer vanished (EOF mid-stream, or a socket error).
    Lost,
}

struct Reactor {
    engine: Arc<ServeEngine>,
    listener: NetListener,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    conns: HashMap<u64, Conn>,
    /// Engine session → owning connection, for result routing.
    routes: HashMap<SessionId, u64>,
    next_conn: u64,
    last_flush: Instant,
    last_accept: Instant,
}

impl Reactor {
    fn run(mut self) {
        while !self.stop.load(Ordering::Acquire) {
            self.counters.ticks.inc();
            let busy = self.tick();
            if !busy {
                self.counters.idle_ticks.inc();
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        // Shutdown: close every live session so the engine's ledger
        // reconciles (deferred frames are admitted, streams closed).
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.teardown(id, Teardown::Lost);
        }
        self.engine.flush();
    }

    /// One reactor iteration; returns whether any work happened.
    fn tick(&mut self) -> bool {
        let mut busy = false;
        if self.last_accept.elapsed() >= ACCEPT_EVERY {
            self.last_accept = Instant::now();
            busy |= self.accept_pending();
        }

        let ids: Vec<u64> = self.conns.keys().copied().collect();
        let mut dead: Vec<u64> = Vec::new();
        for &id in &ids {
            match self.service_conn(id) {
                Ok(active) => busy |= active,
                Err(()) => dead.push(id),
            }
        }
        for id in dead {
            self.teardown(id, Teardown::Lost);
            busy = true;
        }

        if self.last_flush.elapsed() >= self.config.flush_interval {
            self.engine.flush();
            self.last_flush = Instant::now();
        }

        // Settled is snapshotted *before* the poll: every result a
        // settled session ever published is already in the bus, so this
        // tick's routing delivers it before the Bye below.
        let settled: Vec<u64> = self
            .conns
            .iter()
            .filter_map(|(&id, conn)| match conn.state {
                ConnState::Closing(session) if self.engine.session_settled(session) => Some(id),
                _ => None,
            })
            .collect();

        busy |= self.route_events();

        for id in settled {
            self.send_bye(id);
            busy = true;
        }

        // Drop connections whose goodbye has fully flushed.
        let drained: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Draining && c.out_backlog() == 0)
            .map(|(&id, _)| id)
            .collect();
        for id in drained {
            self.teardown(id, Teardown::Graceful);
            busy = true;
        }
        busy
    }

    fn accept_pending(&mut self) -> bool {
        let mut any = false;
        loop {
            self.counters.accept_probes.inc();
            match self.listener.accept() {
                Ok(Some(stream)) => {
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns
                        .insert(id, Conn::new(stream, self.config.max_frame));
                    self.counters.accepted.inc();
                    any = true;
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
        any
    }

    /// Write, deferred-retry, and read phases for one connection.
    /// `Err(())` means the socket is gone.
    fn service_conn(&mut self, id: u64) -> Result<bool, ()> {
        let mut busy = false;

        // Phase 1: push buffered output.
        {
            let conn = self.conns.get_mut(&id).expect("serviced conn exists");
            let had_backlog = conn.out_backlog() > 0;
            conn.flush_out().map_err(|_| ())?;
            busy |= had_backlog && conn.out_backlog() == 0;
        }

        // Phase 2: retry the deferred frame before reading more.
        if let Some(frame) = self.conns.get_mut(&id).and_then(|c| c.deferred.take()) {
            let session = self
                .conns
                .get(&id)
                .and_then(|c| c.session())
                .expect("deferred frame implies a session");
            match self.engine.offer_frame(session, frame) {
                Admission::Admitted(_)
                | Admission::Rejected {
                    reason: RejectReason::Budget,
                    ..
                } => {
                    // The parked frame is resolved (admitted, or shed
                    // against the tenant). Messages that arrived behind
                    // it may still sit undecoded in the buffer — drain
                    // them now, before the read phase, so a `Close`
                    // that raced the pause is never stranded.
                    busy = true;
                    self.ingest(id, &[])?;
                }
                Admission::Rejected {
                    frame,
                    reason: RejectReason::Capacity,
                } => {
                    // Still saturated: keep waiting, reads stay paused.
                    // (`note_deferred` was recorded on first deferral.)
                    self.conns.get_mut(&id).expect("conn exists").deferred = Some(frame);
                }
            }
        }

        // Phase 3: read — unless backpressure has paused this
        // connection or the peer already half-closed.
        let paused = {
            let conn = self.conns.get(&id).expect("conn exists");
            conn.deferred.is_some() || conn.read_eof || matches!(conn.state, ConnState::Draining)
        };
        if paused {
            return Ok(busy);
        }

        let mut taken = 0usize;
        let mut chunk = [0u8; 4096];
        while taken < READ_CHUNK {
            self.counters.reads.inc();
            let read = {
                let conn = self.conns.get_mut(&id).expect("conn exists");
                conn.stream.read(&mut chunk)
            };
            match read {
                Ok(0) => {
                    let conn = self.conns.get_mut(&id).expect("conn exists");
                    conn.read_eof = true;
                    if matches!(conn.state, ConnState::Handshake | ConnState::Streaming(_)) {
                        // Mid-stream disconnect: salvage accounting and
                        // still attempt a goodbye (the peer may have
                        // only half-closed); a failed write tears down.
                        self.counters.disconnects.inc();
                        self.finish_stream(id);
                    }
                    break;
                }
                Ok(n) => {
                    busy = true;
                    taken += n;
                    self.ingest(id, &chunk[..n])?;
                    // Admission may have paused the connection, or a
                    // protocol error started draining it, mid-chunk.
                    let conn = self.conns.get(&id).expect("conn exists");
                    if conn.deferred.is_some() || conn.state == ConnState::Draining {
                        break;
                    }
                    // A short read emptied the socket: another read
                    // would only return `WouldBlock`. An EOF behind
                    // these bytes shows on the next tick.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.counters.empty_reads.inc();
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(busy)
    }

    /// Feeds raw bytes through the connection's frame decoder and
    /// handles every complete message. `Err(())` = connection gone.
    fn ingest(&mut self, id: u64, bytes: &[u8]) -> Result<(), ()> {
        self.conns
            .get_mut(&id)
            .expect("conn exists")
            .decoder
            .extend(bytes);
        loop {
            // A paused (deferred) connection stops decoding too: its
            // buffered bytes keep until the engine has headroom.
            let conn = self.conns.get_mut(&id).expect("conn exists");
            if conn.deferred.is_some() || conn.state == ConnState::Draining {
                return Ok(());
            }
            let payload = match conn.decoder.next() {
                Ok(Some(payload)) => payload,
                Ok(None) => return Ok(()),
                Err(e) if !e.desyncs() => {
                    // Corrupt frame: checksum mismatch. Skippable
                    // without losing framing — count and continue.
                    self.counters.protocol_errors.inc();
                    continue;
                }
                Err(e) => {
                    self.fatal(id, &format!("framing error: {e}"));
                    return Ok(());
                }
            };
            let started = Instant::now();
            let decoded = from_wire::<ClientMsg>(&payload);
            self.counters.decode.record_duration(started.elapsed());
            let msg = match decoded {
                Ok(msg) => msg,
                Err(e) => {
                    self.fatal(id, &format!("bad message: {e}"));
                    return Ok(());
                }
            };
            self.handle_msg(id, msg);
        }
    }

    fn handle_msg(&mut self, id: u64, msg: ClientMsg) {
        let state = self.conns.get(&id).expect("conn exists").state;
        match (state, msg) {
            (ConnState::Handshake, ClientMsg::Hello { version }) => {
                if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
                    self.fatal(
                        id,
                        &format!(
                            "unsupported wire version {version} \
                             (want {MIN_WIRE_VERSION}..={WIRE_VERSION})"
                        ),
                    );
                    return;
                }
                let session = self.engine.open_session();
                self.routes.insert(session, id);
                self.conns.get_mut(&id).expect("conn exists").state = ConnState::Streaming(session);
                let welcome = ServerMsg::Welcome { session: session.0 };
                if let Some(bytes) = self.encode_reply(id, &welcome) {
                    self.conns.get_mut(&id).expect("conn exists").queue(&bytes);
                }
            }
            (ConnState::Streaming(session), ClientMsg::Frame(frame)) => {
                self.counters.decoded_frames.inc();
                match self.engine.offer_frame(session, frame) {
                    Admission::Admitted(_) => {}
                    Admission::Rejected {
                        reason: RejectReason::Budget,
                        ..
                    } => {} // tenant outran its budget; already recorded
                    Admission::Rejected {
                        frame,
                        reason: RejectReason::Capacity,
                    } => {
                        // Engine saturated: park the frame and pause
                        // reads. TCP pushes back from here on.
                        self.engine.note_deferred(session);
                        self.conns.get_mut(&id).expect("conn exists").deferred = Some(frame);
                    }
                }
            }
            (ConnState::Streaming(_), ClientMsg::StatsQuery) => {
                // Live telemetry export. The engine's snapshot covers
                // the whole registry (serve stages, pool, net.*); it is
                // always `Some`, and an empty default stands in rather
                // than a panic. A stats reply is a control message:
                // always queued, like Welcome/Bye.
                let snapshot = self.engine.telemetry_snapshot().unwrap_or_default();
                if let Some(bytes) = self.encode_reply(id, &ServerMsg::Stats(snapshot)) {
                    self.conns.get_mut(&id).expect("conn exists").queue(&bytes);
                }
            }
            (ConnState::Streaming(session), ClientMsg::Enroll { user }) => {
                // A mode switch only affects segments that *complete*
                // after it — the session stamps its mode on a segment
                // as it closes, the one its close flushes included — so
                // the ack is an exact promise: everything behind the
                // ack enrolls under `user`. The ack echoes the name, so
                // it is encoded first: a name too long to echo back
                // ends the connection without switching the mode.
                let ack = ServerMsg::EnrollAck { user: user.clone() };
                let Some(bytes) = self.encode_reply(id, &ack) else {
                    return;
                };
                if self
                    .engine
                    .set_session_mode(session, SessionMode::Enroll(user))
                {
                    // Acks are control messages: always queued, like
                    // Welcome/Stats/Bye.
                    self.conns.get_mut(&id).expect("conn exists").queue(&bytes);
                } else {
                    self.fatal(id, "enrollment requires a server-side identity store");
                }
            }
            (ConnState::Streaming(session), ClientMsg::Identify) => {
                if !self.engine.set_session_mode(session, SessionMode::Identify) {
                    self.fatal(id, "identification requires a server-side identity store");
                }
            }
            (ConnState::Streaming(session), ClientMsg::Close) => {
                self.engine.close_session(session);
                self.conns.get_mut(&id).expect("conn exists").state = ConnState::Closing(session);
            }
            (_, msg) => {
                self.fatal(id, &format!("{} message out of order", msg.kind()));
            }
        }
    }

    /// Routes published results to their owning connections. Results
    /// for vanished connections are counted, never buffered.
    fn route_events(&mut self) -> bool {
        let events = self.engine.poll_events();
        if events.is_empty() {
            return false;
        }
        for event in events {
            let Some(&conn_id) = self.routes.get(&event.session) else {
                self.counters.orphaned_results.inc();
                continue;
            };
            if !self.config.send_results {
                continue;
            }
            let msg = ServerMsg::Result {
                seq: event.seq,
                start: event.segment.start as u64,
                end: event.segment.end as u64,
                gesture: event.inference.gesture as u64,
                user: event.inference.user as u64,
                latency_us: event.latency.as_micros() as u64,
                identity: event.identity,
            };
            let Some(bytes) = self.encode_reply(conn_id, &msg) else {
                continue;
            };
            let conn = self.conns.get_mut(&conn_id).expect("routed conn exists");
            if conn.out_backlog() + bytes.len() > self.config.out_buffer_cap {
                conn.dropped_results += 1;
                self.counters.dropped_results.inc();
            } else {
                conn.queue(&bytes);
            }
        }
        true
    }

    /// Queues the final ledger for a settled session and starts
    /// draining the connection.
    fn send_bye(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let ConnState::Closing(session) = conn.state else {
            return;
        };
        let ledger = self
            .engine
            .session_stats(session)
            .map(|s| WireLedger {
                admitted: s.admitted(),
                shed_budget: s.shed_budget,
                shed_capacity: s.shed_frames,
                deferred: s.deferred,
                segments: s.segments,
                results: s.results,
                dropped_results: 0,
                enrolled: s.enrolled,
            })
            .unwrap_or_default();
        self.routes.remove(&session);
        let conn = self.conns.get_mut(&id).expect("conn exists");
        let ledger = WireLedger {
            dropped_results: conn.dropped_results,
            ..ledger
        };
        conn.state = ConnState::Draining;
        if let Some(bytes) = self.encode_reply(id, &ServerMsg::Bye(ledger)) {
            self.conns.get_mut(&id).expect("conn exists").queue(&bytes);
        }
    }

    /// Encodes a reply to connection `id`: the one path every reply but
    /// `Error` takes to the wire. A reply that cannot be framed under
    /// `max_frame` is never sent; the connection gets a typed `Error`
    /// instead (counted in `net.protocol_errors`) and drains, and
    /// `None` comes back. No reply panics the reactor.
    fn encode_reply(&mut self, id: u64, msg: &ServerMsg) -> Option<Vec<u8>> {
        let bytes = try_to_wire(msg, self.config.max_frame);
        if bytes.is_none() {
            let cap = self.config.max_frame;
            self.fatal(
                id,
                &format!("{} reply exceeds the {cap}-byte frame cap", msg.kind()),
            );
        }
        bytes
    }

    /// Sends a protocol error and schedules teardown, first settling
    /// the engine side of any live session. The text is cut to
    /// [`MAX_ERROR_TEXT`] bytes, since it may quote client bytes; under
    /// a frame cap too small for even that, the connection drains
    /// without it.
    fn fatal(&mut self, id: u64, message: &str) {
        self.counters.protocol_errors.inc();
        self.finish_stream(id);
        let mut cut = message.len().min(MAX_ERROR_TEXT);
        while !message.is_char_boundary(cut) {
            cut -= 1;
        }
        let error = ServerMsg::Error {
            message: message[..cut].to_owned(),
        };
        let conn = self.conns.get_mut(&id).expect("conn exists");
        if let Some(bytes) = try_to_wire(&error, self.config.max_frame) {
            conn.queue(&bytes);
        }
        conn.state = ConnState::Draining;
    }

    /// Settles the engine side of a connection's stream: a parked
    /// deferred frame is admitted (blocking is fine — it was within
    /// budget and the wait is bounded by in-flight batches) and the
    /// session is closed so its accounting becomes final.
    fn finish_stream(&mut self, id: u64) {
        let conn = self.conns.get_mut(&id).expect("conn exists");
        let deferred = conn.deferred.take();
        match conn.state {
            ConnState::Streaming(session) => {
                if let Some(frame) = deferred {
                    self.engine.push_frame(session, frame);
                }
                self.engine.close_session(session);
                // Keep the route until teardown so in-flight results
                // are delivered (or counted) rather than orphaned.
                self.conns.get_mut(&id).expect("conn exists").state = ConnState::Closing(session);
            }
            ConnState::Closing(_) | ConnState::Handshake | ConnState::Draining => {}
        }
    }

    fn teardown(&mut self, id: u64, cause: Teardown) {
        self.finish_stream(id);
        if let Some(conn) = self.conns.remove(&id) {
            if let Some(session) = conn.session() {
                self.routes.remove(&session);
            }
            if matches!(cause, Teardown::Graceful) {
                conn.stream.shutdown_write();
            }
            self.counters.closed.inc();
        }
    }
}
