//! A simple blocking client for the gp-net protocol — the reference
//! peer for tests, benches, and the example; real sensors only need to
//! speak the byte format in [`crate::wire`].

use crate::stream::Stream;
use crate::wire::{
    frame_to_wire, from_wire, to_wire, ClientMsg, ServerMsg, WireLedger, WIRE_VERSION,
};
use gp_codec::FrameDecoder;
use gp_radar::Frame;
use gp_serve::IdentityOutcome;
use gp_telemetry::TelemetrySnapshot;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// One result streamed back by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResult {
    /// Per-session dispatch sequence number.
    pub seq: u64,
    /// Segment start, absolute frame index.
    pub start: u64,
    /// Segment end (exclusive), absolute frame index.
    pub end: u64,
    /// Recognised gesture class.
    pub gesture: u64,
    /// Identified user class.
    pub user: u64,
    /// Segment-detected → result-published latency, microseconds.
    pub latency_us: u64,
    /// Identity verdict when the session is in enroll/identify mode
    /// (`None` for plain classification).
    pub identity: Option<IdentityOutcome>,
}

/// Everything a graceful close returns: the results received after
/// `Close` was sent plus the server's final admission ledger.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Results that arrived between `Close` and `Bye`.
    pub results: Vec<ClientResult>,
    /// The session's final admission ledger from [`ServerMsg::Bye`].
    pub ledger: WireLedger,
}

/// A connected, handshaken gp-net session.
pub struct NetClient {
    stream: Stream,
    decoder: FrameDecoder,
    session: u64,
    max_frame: usize,
    /// Results that arrived while waiting for a `Stats` reply; drained
    /// ahead of the socket by the next receive call so ordering holds.
    pending: Vec<ClientResult>,
}

fn to_client_result(msg: ServerMsg) -> Option<ClientResult> {
    match msg {
        ServerMsg::Result {
            seq,
            start,
            end,
            gesture,
            user,
            latency_us,
            identity,
        } => Some(ClientResult {
            seq,
            start,
            end,
            gesture,
            user,
            latency_us,
            identity,
        }),
        _ => None,
    }
}

fn protocol_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl NetClient {
    /// Connects over TCP and completes the `Hello`/`Welcome` handshake.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; a `Welcome` that never comes (or
    /// a server `Error`) surfaces as `InvalidData`.
    pub fn connect_tcp(addr: impl ToSocketAddrs, max_frame: usize) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Self::handshake(Stream::Tcp(stream), max_frame)
    }

    /// Connects over a Unix domain socket and completes the handshake.
    ///
    /// # Errors
    ///
    /// As [`NetClient::connect_tcp`].
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<std::path::Path>, max_frame: usize) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Self::handshake(Stream::Unix(stream), max_frame)
    }

    fn handshake(mut stream: Stream, max_frame: usize) -> io::Result<Self> {
        let hello = to_wire(
            &ClientMsg::Hello {
                version: WIRE_VERSION,
            },
            max_frame,
        );
        stream.write_all(&hello)?;
        let mut client = NetClient {
            stream,
            decoder: FrameDecoder::new(max_frame),
            session: 0,
            max_frame,
            pending: Vec::new(),
        };
        match client.recv_blocking()? {
            ServerMsg::Welcome { session } => {
                client.session = session;
                Ok(client)
            }
            ServerMsg::Error { message } => Err(protocol_err(message)),
            other => Err(protocol_err(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// The engine session id the server assigned to this stream.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends one radar frame (blocking write).
    ///
    /// # Errors
    ///
    /// Propagates socket errors — including the broken pipe that
    /// surfaces when the server hung up after a protocol error.
    pub fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.stream.write_all(&frame_to_wire(frame, self.max_frame))
    }

    /// Receives any results already buffered or readable without
    /// blocking.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and protocol violations.
    pub fn try_recv_results(&mut self) -> io::Result<Vec<ClientResult>> {
        self.stream.set_nonblocking(true)?;
        // Results buffered while a `query_stats` waited come first.
        let mut results = std::mem::take(&mut self.pending);
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.stream.set_nonblocking(false)?;
                    return Err(e);
                }
            }
        }
        self.stream.set_nonblocking(false)?;
        while let Some(msg) = self.next_decoded()? {
            match msg {
                msg @ ServerMsg::Result { .. } => {
                    results.extend(to_client_result(msg));
                }
                ServerMsg::Error { message } => return Err(protocol_err(message)),
                other => return Err(protocol_err(format!("unexpected {other:?}"))),
            }
        }
        Ok(results)
    }

    /// Sends [`ClientMsg::Enroll`] and blocks until the server's
    /// [`ServerMsg::EnrollAck`]: once this returns, every segment that
    /// completes is enrolled under `user`. Results that arrive while
    /// waiting are buffered like [`NetClient::query_stats`] does.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a server without an identity store
    /// answers with a fatal `Error`, surfaced as `InvalidData`.
    pub fn enroll(&mut self, user: &str) -> io::Result<()> {
        let msg = to_wire(
            &ClientMsg::Enroll {
                user: user.to_owned(),
            },
            self.max_frame,
        );
        self.stream.write_all(&msg)?;
        loop {
            match self.recv_blocking()? {
                ServerMsg::EnrollAck { user: acked } => {
                    if acked == user {
                        return Ok(());
                    }
                    return Err(protocol_err(format!(
                        "enroll ack for '{acked}', expected '{user}'"
                    )));
                }
                msg @ ServerMsg::Result { .. } => {
                    self.pending.extend(to_client_result(msg));
                }
                ServerMsg::Error { message } => return Err(protocol_err(message)),
                other => return Err(protocol_err(format!("unexpected {other:?}"))),
            }
        }
    }

    /// Sends [`ClientMsg::Identify`], switching the session into
    /// open-set identification mode: subsequent results carry an
    /// identity verdict. There is no ack — a server without an identity
    /// store hangs up with an `Error` that surfaces on the next receive.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn identify_mode(&mut self) -> io::Result<()> {
        let msg = to_wire(&ClientMsg::Identify, self.max_frame);
        self.stream.write_all(&msg)
    }

    /// Sends [`ClientMsg::StatsQuery`] and blocks until the server's
    /// [`ServerMsg::Stats`] reply, returning the live telemetry
    /// snapshot. Results that arrive while waiting are buffered and
    /// surfaced by the next [`NetClient::try_recv_results`] or
    /// [`NetClient::close`] — never lost or reordered.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and protocol violations.
    pub fn query_stats(&mut self) -> io::Result<TelemetrySnapshot> {
        let query = to_wire(&ClientMsg::StatsQuery, self.max_frame);
        self.stream.write_all(&query)?;
        loop {
            match self.recv_blocking()? {
                ServerMsg::Stats(snapshot) => return Ok(snapshot),
                msg @ ServerMsg::Result { .. } => {
                    self.pending.extend(to_client_result(msg));
                }
                ServerMsg::Error { message } => return Err(protocol_err(message)),
                other => return Err(protocol_err(format!("unexpected {other:?}"))),
            }
        }
    }

    /// Sends `Close` and blocks until the server's `Bye`, collecting
    /// every result that arrives in between.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; an EOF before `Bye` is `UnexpectedEof`.
    pub fn close(mut self) -> io::Result<SessionReport> {
        let close = to_wire(&ClientMsg::Close, self.max_frame);
        self.stream.write_all(&close)?;
        let mut results = std::mem::take(&mut self.pending);
        loop {
            match self.recv_blocking()? {
                msg @ ServerMsg::Result { .. } => {
                    results.extend(to_client_result(msg));
                }
                ServerMsg::Bye(ledger) => return Ok(SessionReport { results, ledger }),
                ServerMsg::Error { message } => return Err(protocol_err(message)),
                other => return Err(protocol_err(format!("unexpected {other:?}"))),
            }
        }
    }

    /// Blocking read of the next server message.
    fn recv_blocking(&mut self) -> io::Result<ServerMsg> {
        loop {
            if let Some(msg) = self.next_decoded()? {
                return Ok(msg);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server hung up mid-protocol",
                    ))
                }
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn next_decoded(&mut self) -> io::Result<Option<ServerMsg>> {
        match self.decoder.next() {
            Ok(Some(payload)) => from_wire::<ServerMsg>(&payload)
                .map(Some)
                .map_err(|e| protocol_err(format!("bad server message: {e}"))),
            Ok(None) => Ok(None),
            Err(e) => Err(protocol_err(format!("framing error from server: {e}"))),
        }
    }
}
