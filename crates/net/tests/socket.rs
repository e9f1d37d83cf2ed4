//! Tier-1 socket-front tests: a framed stream over a real socket
//! produces exactly the results of an in-process replay, the admission
//! ledger reconciles to the frame, and protocol damage is contained.

use gp_net::wire::{from_wire, to_wire};
use gp_net::{
    ClientMsg, NetClient, NetConfig, NetListener, NetServer, ServerMsg, MIN_WIRE_VERSION,
    WIRE_VERSION,
};
use gp_pointcloud::{Point, PointCloud, Vec3};
use gp_radar::Frame;
use gp_serve::{AdmissionConfig, IdentityStore, RegistryConfig, ServeConfig, ServeEngine};
use gp_testkit::{stream_fixture, toy_system};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_FRAME: usize = 1 << 20;

fn spawn_tcp(config: ServeConfig) -> (Arc<ServeEngine>, NetServer, std::net::SocketAddr) {
    let engine = Arc::new(ServeEngine::new(toy_system(), config));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let server =
        NetServer::spawn(engine.clone(), listener, NetConfig::default()).expect("spawn server");
    let addr = server.local_addr().expect("tcp address");
    (engine, server, addr)
}

/// Reads server messages until the server hangs up.
fn read_until_hangup(sock: &mut TcpStream) -> Vec<ServerMsg> {
    let mut decoder = gp_codec::FrameDecoder::new(MAX_FRAME);
    let mut messages = Vec::new();
    loop {
        let mut chunk = [0u8; 4096];
        let n = sock.read(&mut chunk).expect("read");
        if n == 0 {
            return messages;
        }
        decoder.extend(&chunk[..n]);
        while let Some(payload) = decoder.next().expect("well-framed server bytes") {
            messages.push(from_wire::<ServerMsg>(&payload).expect("server msg"));
        }
    }
}

/// Replays the fixture in-process and returns `(start, end, gesture,
/// user)` per result, in (session, seq) order.
fn in_process_results(config: ServeConfig) -> Vec<(u64, u64, u64, u64)> {
    let engine = ServeEngine::new(toy_system(), config);
    let session = engine.open_session();
    for frame in &stream_fixture().frames {
        engine.push_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine
        .drain()
        .into_iter()
        .map(|e| {
            (
                e.segment.start as u64,
                e.segment.end as u64,
                e.inference.gesture as u64,
                e.inference.user as u64,
            )
        })
        .collect()
}

#[test]
fn tcp_stream_matches_in_process_replay() {
    let config = ServeConfig::default();
    let expected = in_process_results(config.clone());
    assert!(!expected.is_empty(), "fixture must produce results");

    let (engine, server, addr) = spawn_tcp(config);
    let stream = stream_fixture();
    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
    for frame in &stream.frames {
        client.send_frame(frame).expect("send frame");
    }
    let report = client.close().expect("graceful close");

    // With multiple workers, results can cross the wire out of seq
    // order (poll_events documents this); reorder like drain() does.
    let mut results = report.results.clone();
    results.sort_by_key(|r| r.seq);
    let got: Vec<(u64, u64, u64, u64)> = results
        .iter()
        .map(|r| (r.start, r.end, r.gesture, r.user))
        .collect();
    assert_eq!(got, expected, "socket replay must equal in-process replay");

    // The ledger reconciles exactly: every frame sent was admitted
    // (nothing shed a quiet single stream), every enqueued segment
    // published.
    assert_eq!(report.ledger.admitted, stream.frames.len() as u64);
    assert_eq!(report.ledger.shed_budget, 0);
    assert_eq!(report.ledger.shed_capacity, 0);
    assert_eq!(report.ledger.results, expected.len() as u64);
    assert_eq!(report.ledger.dropped_results, 0);

    server.shutdown();
    assert_eq!(engine.session_count(), 0, "no session leaked");
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("gp-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let path = dir.join("serve.sock");
    let _ = std::fs::remove_file(&path);

    let engine = Arc::new(ServeEngine::new(toy_system(), ServeConfig::default()));
    let listener = NetListener::bind_unix(&path).expect("bind unix socket");
    let server =
        NetServer::spawn(engine.clone(), listener, NetConfig::default()).expect("spawn server");

    let stream = stream_fixture();
    let mut client = NetClient::connect_unix(&path, MAX_FRAME).expect("connect");
    for frame in &stream.frames {
        client.send_frame(frame).expect("send frame");
    }
    let report = client.close().expect("graceful close");
    assert_eq!(report.ledger.admitted, stream.frames.len() as u64);
    assert!(!report.results.is_empty());

    server.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn stats_query_returns_live_versioned_snapshot() {
    let config = ServeConfig::default();
    let expected = in_process_results(config.clone());
    let (engine, server, addr) = spawn_tcp(config);
    let stream = stream_fixture();
    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");

    // Stream half, then ask for stats mid-stream.
    let half = stream.frames.len() / 2;
    for frame in &stream.frames[..half] {
        client.send_frame(frame).expect("send frame");
    }
    let snap = client.query_stats().expect("stats reply");

    // The snapshot crossed a real socket, decoded, and is versioned.
    assert_eq!(
        snap.schema_version,
        gp_serve::TelemetrySnapshot::new().schema_version
    );
    // The reactor handles messages in order, so every frame sent before
    // the query was decoded (and admitted) before the snapshot.
    assert_eq!(
        snap.counters.get("net.decoded_frames"),
        Some(&(half as u64))
    );
    assert_eq!(snap.counters.get("net.accepted"), Some(&1));
    let admission = snap
        .histograms
        .get("serve.stage.admission_wait")
        .expect("engine stage histograms ride the same snapshot");
    assert_eq!(admission.count(), half as u64);
    assert!(snap.gauges.contains_key("serve.pool.workers"));
    // The reactor's own counters ride the snapshot too.
    let counter = |name: &str| {
        *snap
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("{name} is registered"))
    };
    for name in [
        "net.reactor.ticks",
        "net.reactor.idle_ticks",
        "net.reactor.accept_probes",
        "net.reactor.reads",
        "net.reactor.empty_reads",
    ] {
        counter(name);
    }
    assert!(counter("net.reactor.idle_ticks") <= counter("net.reactor.ticks"));
    let decode = snap
        .histograms
        .get("net.reactor.decode")
        .expect("net.reactor.decode is registered");
    assert!(
        decode.count() >= counter("net.decoded_frames"),
        "every decoded frame was timed"
    );

    // The query didn't perturb the stream: the rest of the replay still
    // matches in-process results exactly, nothing lost or reordered.
    for frame in &stream.frames[half..] {
        client.send_frame(frame).expect("send frame");
    }
    let report = client.close().expect("graceful close");
    let mut results = report.results.clone();
    results.sort_by_key(|r| r.seq);
    let got: Vec<(u64, u64, u64, u64)> = results
        .iter()
        .map(|r| (r.start, r.end, r.gesture, r.user))
        .collect();
    assert_eq!(got, expected);

    server.shutdown();
    drop(engine);
}

#[test]
fn per_session_budget_sheds_over_rate_client_exactly() {
    // Engine-default admission: every socket session gets a tiny fixed
    // allowance (no refill), so a firehose client is mostly shed.
    let allowance = 30.0;
    let (engine, server, addr) = spawn_tcp(ServeConfig {
        admission: Some(AdmissionConfig::new(0.0, allowance)),
        ..ServeConfig::default()
    });

    let stream = stream_fixture();
    let sent = stream.frames.len() as u64;
    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
    for frame in &stream.frames {
        client.send_frame(frame).expect("send frame");
    }
    let report = client.close().expect("graceful close");

    assert_eq!(
        report.ledger.admitted, allowance as u64,
        "exactly the burst allowance is admitted"
    );
    assert_eq!(
        report.ledger.admitted + report.ledger.shed_budget + report.ledger.shed_capacity,
        sent,
        "every frame sent is accounted admitted or shed"
    );
    assert!(report.ledger.shed_budget > 0);

    server.shutdown();
    drop(engine);
}

#[test]
fn corrupt_frame_is_skipped_without_desyncing_the_stream() {
    let (_engine, server, addr) = spawn_tcp(ServeConfig::default());
    let stream = stream_fixture();

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(&to_wire(
        &ClientMsg::Hello {
            version: WIRE_VERSION,
        },
        MAX_FRAME,
    ))
    .expect("hello");

    // One corrupted frame (payload byte flipped → checksum mismatch)
    // between two good ones: the good frames must both be decoded.
    let good = to_wire(&ClientMsg::Frame(stream.frames[0].clone()), MAX_FRAME);
    let mut corrupt = to_wire(&ClientMsg::Frame(stream.frames[1].clone()), MAX_FRAME);
    let flip = corrupt.len() - 3;
    corrupt[flip] ^= 0x55;
    sock.write_all(&good).expect("good frame");
    sock.write_all(&corrupt).expect("corrupt frame");
    sock.write_all(&good).expect("good frame again");
    sock.write_all(&to_wire(&ClientMsg::Close, MAX_FRAME))
        .expect("close");

    // Read server messages until Bye.
    let mut decoder = gp_codec::FrameDecoder::new(MAX_FRAME);
    let ledger = loop {
        let mut chunk = [0u8; 4096];
        let n = sock.read(&mut chunk).expect("read");
        assert!(n > 0, "server hung up before Bye");
        decoder.extend(&chunk[..n]);
        let mut bye = None;
        while let Some(payload) = decoder.next().expect("well-framed server bytes") {
            if let ServerMsg::Bye(ledger) = from_wire::<ServerMsg>(&payload).expect("server msg") {
                bye = Some(ledger);
            }
        }
        if let Some(ledger) = bye {
            break ledger;
        }
    };

    assert_eq!(ledger.admitted, 2, "both good frames decoded and admitted");
    let stats = server.stats();
    assert_eq!(stats.decoded_frames, 2);
    assert_eq!(stats.protocol_errors, 1, "the corrupt frame was counted");
    server.shutdown();
}

#[test]
fn malformed_message_gets_an_error_reply_and_disconnect() {
    let (engine, server, addr) = spawn_tcp(ServeConfig::default());

    let mut sock = TcpStream::connect(addr).expect("connect");
    // Well-framed, but not a message: the server must answer with a
    // typed Error and hang up — never panic, never desync others.
    let junk = gp_codec::encode_frame(b"this is not json", MAX_FRAME).expect("frame junk");
    sock.write_all(&junk).expect("send junk");

    let saw_error = read_until_hangup(&mut sock)
        .iter()
        .any(|msg| matches!(msg, ServerMsg::Error { .. }));
    assert!(saw_error, "a protocol violation must get a typed Error");
    assert!(server.stats().protocol_errors >= 1);

    // The server is still healthy: a fresh client streams fine.
    let mut client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect after error");
    client
        .send_frame(&stream_fixture().frames[0])
        .expect("send");
    let report = client.close().expect("close");
    assert_eq!(report.ledger.admitted, 1);

    server.shutdown();
    assert_eq!(engine.session_count(), 0);
}

#[test]
fn wrong_wire_version_is_rejected_at_handshake() {
    let (_engine, server, addr) = spawn_tcp(ServeConfig::default());
    // Versions 1 and 2 sent JSON frames, which the server no longer
    // decodes; a version from the future is refused the same way.
    assert_eq!(MIN_WIRE_VERSION, 3);
    for version in [1, 2, WIRE_VERSION + 1] {
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(&to_wire(&ClientMsg::Hello { version }, MAX_FRAME))
            .expect("bad hello");

        let messages = read_until_hangup(&mut sock);
        assert!(
            matches!(messages.as_slice(), [ServerMsg::Error { message }]
                if message.contains(&format!("unsupported wire version {version}"))),
            "version {version}: expected exactly one Error, got {messages:?}"
        );
    }
    assert_eq!(server.stats().protocol_errors, 3);
    server.shutdown();
}

#[test]
fn binary_frame_before_hello_is_out_of_order() {
    let (_engine, server, addr) = spawn_tcp(ServeConfig::default());
    let mut sock = TcpStream::connect(addr).expect("connect");
    let frame = ClientMsg::Frame(stream_fixture().frames[0].clone());
    sock.write_all(&to_wire(&frame, MAX_FRAME))
        .expect("frame before hello");

    let messages = read_until_hangup(&mut sock);
    assert!(
        matches!(messages.as_slice(), [ServerMsg::Error { message }]
            if message == "frame message out of order"),
        "expected the out-of-order Error, got {messages:?}"
    );
    assert_eq!(server.stats().decoded_frames, 0);
    assert_eq!(server.stats().protocol_errors, 1);
    server.shutdown();
}

#[test]
fn new_connection_is_welcomed_while_another_streams() {
    // The reactor probes `accept` every 2 ms, not on every tick. A
    // streaming connection keeps every tick busy, and a new connection
    // must still be welcomed within a few periods — also on a server
    // that flushes its micro-batches far less often than that.
    let engine = Arc::new(ServeEngine::new(toy_system(), ServeConfig::default()));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let config = NetConfig {
        flush_interval: Duration::from_millis(80),
        ..NetConfig::default()
    };
    let server = NetServer::spawn(engine.clone(), listener, config).expect("spawn server");
    let addr = server.local_addr().expect("tcp address");
    let period = Duration::from_millis(2);
    let streaming = AtomicBool::new(true);
    let mut waits: Vec<Duration> = std::thread::scope(|scope| {
        let mut first = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
        let sender = scope.spawn(|| {
            let empty = Frame::new(0.0, PointCloud::new());
            let mut sent = 0u64;
            while streaming.load(Ordering::Relaxed) {
                first.send_frame(&empty).expect("send frame");
                sent += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
            let report = first.close().expect("graceful close");
            assert_eq!(report.ledger.admitted, sent);
        });
        // Let the first stream get going before the others connect.
        std::thread::sleep(period * 5);
        let waits = (0..5)
            .map(|_| {
                let started = Instant::now();
                let client = NetClient::connect_tcp(addr, MAX_FRAME).expect("connect");
                let waited = started.elapsed();
                client.close().expect("close");
                waited
            })
            .collect();
        streaming.store(false, Ordering::Relaxed);
        sender.join().expect("sender thread");
        waits
    });
    waits.sort();
    assert!(
        waits[waits.len() / 2] <= period * 5,
        "median wait for Welcome {:?} exceeds 5 accept periods ({waits:?})",
        waits[waits.len() / 2]
    );
    assert_eq!(server.stats().accepted, 6);
    server.shutdown();
    assert_eq!(engine.session_count(), 0, "no session leaked");
}

/// Checks that a hostile connection got exactly one short `Error`, was
/// counted, and left the server able to complete a fresh handshake.
fn assert_contained(server: &NetServer, addr: std::net::SocketAddr, messages: &[ServerMsg]) {
    match messages {
        [ServerMsg::Error { message }] => assert!(
            message.len() <= 256,
            "error text must be bounded, got {} bytes",
            message.len()
        ),
        other => panic!("expected exactly one Error, got {} messages", other.len()),
    }
    assert!(server.stats().protocol_errors >= 1);
    let client = NetClient::connect_tcp(addr, MAX_FRAME).expect("fresh handshake after the error");
    client.close().expect("close");
}

#[test]
fn oversized_frame_before_hello_gets_a_bounded_error() {
    let (_engine, server, addr) = spawn_tcp(ServeConfig::default());
    // A ~300 KB frame fits the cap, but its debug form does not: an
    // error that echoed the message would overflow the reply frame.
    let cloud: PointCloud = (0..7_500)
        .map(|k| {
            let v = 1.0 + k as f64 * 1.234_567_890_123e-4;
            Point::new(Vec3::new(v, v, v), v, v)
        })
        .collect();
    let frame = ClientMsg::Frame(Frame::new(0.123_456_789, cloud));
    let wire = to_wire(&frame, MAX_FRAME);
    assert!(format!("{frame:?}").len() > MAX_FRAME);

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(&wire).expect("send frame before hello");
    let messages = read_until_hangup(&mut sock);
    assert_contained(&server, addr, &messages);
    server.shutdown();
}

#[test]
fn oversized_message_type_gets_a_bounded_error() {
    let (_engine, server, addr) = spawn_tcp(ServeConfig::default());
    // The decoder's error quotes the unknown type tag.
    let tag = "x".repeat(MAX_FRAME - 16);
    let payload = format!("{{\"type\":\"{tag}\"}}");
    let wire = gp_codec::encode_frame(payload.as_bytes(), MAX_FRAME).expect("fits the cap");

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(&wire).expect("send message");
    let messages = read_until_hangup(&mut sock);
    assert_contained(&server, addr, &messages);
    server.shutdown();
}

#[test]
fn enroll_name_too_long_to_echo_gets_an_error() {
    let dir = std::env::temp_dir().join(format!("gp-net-socket-enroll-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        Arc::new(IdentityStore::open(&dir, RegistryConfig::default()).expect("open scratch store"));
    let engine = Arc::new(ServeEngine::with_store(
        toy_system(),
        ServeConfig::default(),
        store,
    ));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let server =
        NetServer::spawn(engine.clone(), listener, NetConfig::default()).expect("spawn server");
    let addr = server.local_addr().expect("tcp address");

    // An Enroll one byte under the cap: the ack that echoes the name is
    // 4 bytes longer and cannot be framed.
    let empty = to_wire(
        &ClientMsg::Enroll {
            user: String::new(),
        },
        MAX_FRAME,
    );
    let header = gp_codec::encode_frame(b"", MAX_FRAME)
        .expect("empty frame")
        .len();
    let user = "u".repeat(MAX_FRAME - 1 - (empty.len() - header));
    let enroll = to_wire(&ClientMsg::Enroll { user }, MAX_FRAME);
    assert_eq!(enroll.len() - header, MAX_FRAME - 1);

    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(&to_wire(
        &ClientMsg::Hello {
            version: WIRE_VERSION,
        },
        MAX_FRAME,
    ))
    .expect("hello");
    sock.write_all(&enroll).expect("enroll");
    let messages = read_until_hangup(&mut sock);
    assert!(
        matches!(messages.first(), Some(ServerMsg::Welcome { .. })),
        "the handshake completes before the enrollment"
    );
    assert_contained(&server, addr, &messages[1..]);
    server.shutdown();
    assert_eq!(engine.session_count(), 0, "no session leaked");
    let _ = std::fs::remove_dir_all(&dir);
}
