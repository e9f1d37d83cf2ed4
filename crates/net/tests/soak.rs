//! Tier-2 soak/chaos test: hundreds of socket sessions with
//! deterministic jitter, mid-stream disconnects, and slow readers.
//! The server must neither deadlock nor leak, and after everything
//! drains the admission ledger must reconcile *exactly*: every frame
//! the server decoded is admitted, budget-shed, or capacity-shed.
//!
//! Run with `cargo test -p gp-net --test soak -- --ignored` (CI runs it
//! in the scheduled tier-2 job).

use gestureprint_core::artifact::{kinds, Artifact};
use gp_codec::Encode;
use gp_net::{NetClient, NetConfig, NetListener, NetServer};
use gp_pointcloud::{Point, PointCloud, Vec3};
use gp_radar::Frame;
use gp_serve::{AdmissionConfig, ServeConfig, ServeEngine};
use gp_testkit::toy_system;
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 12;
const SESSIONS_PER_THREAD: usize = 20;
const MAX_FRAME: usize = 1 << 20;

/// SplitMix64: deterministic per-session chaos.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic frame: bursts of points close segments, sparse frames
/// idle. Cheap enough to push tens of thousands through one core.
fn chaos_frame(i: usize, burst: bool) -> Frame {
    let points = if burst { 14 } else { 1 };
    let cloud: PointCloud = (0..points)
        .map(|k| {
            Point::new(
                Vec3::new(k as f64 * 0.05, 1.2, 1.0 + (i as f64 * 0.3).sin() * 0.2),
                0.4,
                15.0,
            )
        })
        .collect();
    Frame::new(i as f64 * 0.1, cloud)
}

#[derive(Default)]
struct ClientTally {
    /// Frames written to sockets that were *gracefully closed* — the
    /// server is guaranteed to have decoded every one of these.
    graceful_sent: u64,
    graceful_ledger_admitted: u64,
    graceful_ledger_shed: u64,
    disconnects: u64,
    closes: u64,
}

fn run_one_session(
    addr: std::net::SocketAddr,
    seed: u64,
    tally: &mut ClientTally,
) -> std::io::Result<()> {
    let mut rng = seed;
    let mut client = NetClient::connect_tcp(addr, MAX_FRAME)?;
    let frames = 40 + (split_mix(&mut rng) % 41) as usize; // 40..=80
    let mode = split_mix(&mut rng) % 4; // 0,1: normal  2: slow reader  3: disconnect
    let disconnect_at = frames / 2 + (split_mix(&mut rng) % (frames as u64 / 2)) as usize;

    let mut sent = 0u64;
    for i in 0..frames {
        if mode == 3 && i == disconnect_at {
            // Chaos: vanish mid-stream, no Close, no draining reads.
            drop(client);
            tally.disconnects += 1;
            return Ok(());
        }
        // Motion bursts so some sessions close real segments.
        let burst = (8..30).contains(&(i % 40));
        client.send_frame(&chaos_frame(i, burst))?;
        sent += 1;
        // Deterministic jitter; slow readers (mode 2) never poll
        // results mid-stream, so the server's out-buffer works.
        if mode != 2 && split_mix(&mut rng).is_multiple_of(4) {
            let _ = client.try_recv_results()?;
        }
        if split_mix(&mut rng).is_multiple_of(8) {
            std::thread::sleep(Duration::from_micros(200 + (split_mix(&mut rng) % 1_800)));
        }
    }
    let report = client.close()?;
    tally.graceful_sent += sent;
    tally.graceful_ledger_admitted += report.ledger.admitted;
    tally.graceful_ledger_shed += report.ledger.shed_budget + report.ledger.shed_capacity;
    // Per-session exactness: a graceful close means the server decoded
    // every frame this client sent before the Close.
    assert_eq!(
        report.ledger.admitted + report.ledger.shed_budget + report.ledger.shed_capacity,
        sent,
        "session ledger must reconcile to the frames sent (seed {seed})"
    );
    tally.closes += 1;
    Ok(())
}

#[test]
#[ignore = "tier-2: hundreds of socket sessions, ~a minute of chaos; CI runs it on the schedule"]
fn soak_sessions_with_chaos_reconcile_exactly() {
    let engine = Arc::new(ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            // Sessions get a real but generous budget: most frames
            // admit, hot moments shed.
            admission: Some(AdmissionConfig::new(400.0, 64.0)),
            // Keep every closed session's stats entry: the final
            // reconciliation sums per-session counters.
            retain_closed_sessions: THREADS * SESSIONS_PER_THREAD + 8,
            ..ServeConfig::default()
        },
    ));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let server = NetServer::spawn(
        engine.clone(),
        listener,
        NetConfig {
            // Small out-buffer so slow readers exercise result
            // dropping rather than memory growth.
            out_buffer_cap: 8 << 10,
            ..NetConfig::default()
        },
    )
    .expect("spawn server");
    let addr = server.local_addr().expect("tcp address");

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut tally = ClientTally::default();
                for s in 0..SESSIONS_PER_THREAD {
                    let seed = (t * SESSIONS_PER_THREAD + s) as u64 ^ 0xC0FFEE;
                    run_one_session(addr, seed, &mut tally).expect("session io");
                }
                tally
            })
        })
        .collect();

    let mut total = ClientTally::default();
    for handle in handles {
        let tally = handle.join().expect("client thread");
        total.graceful_sent += tally.graceful_sent;
        total.graceful_ledger_admitted += tally.graceful_ledger_admitted;
        total.graceful_ledger_shed += tally.graceful_ledger_shed;
        total.disconnects += tally.disconnects;
        total.closes += tally.closes;
    }
    let sessions = (THREADS * SESSIONS_PER_THREAD) as u64;
    assert_eq!(total.closes + total.disconnects, sessions);
    assert!(total.disconnects > 0, "chaos must include disconnects");
    assert!(total.closes > 0, "chaos must include graceful closes");

    // Give the reactor a moment to reap the last abrupt disconnects,
    // then stop it (shutdown closes any straggler sessions).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().closed < sessions && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let net = server.stats();
    server.shutdown();

    // No deadlock (we got here), no leaks, exact books.
    assert_eq!(net.accepted, sessions, "every connection accepted");
    assert_eq!(net.closed, sessions, "every connection reaped");
    assert_eq!(engine.session_count(), 0, "no engine session leaked");

    // Drain whatever is still in flight, then reconcile globally:
    // every frame the server *decoded* is in the engine's ledger.
    engine.drain();
    assert_eq!(engine.outstanding(), 0, "executor fully drained");
    let stats = engine.stats();
    let accounted = stats.total_frames() + stats.total_shed_budget() + stats.total_shed_frames();
    assert_eq!(
        accounted, net.decoded_frames,
        "decoded == admitted + shed_budget + shed_capacity, exactly"
    );
    // Graceful sessions alone already reconciled per-session; the
    // global ledger additionally covers the disconnected ones.
    assert!(net.decoded_frames >= total.graceful_sent);
    assert_eq!(
        stats.total_results(),
        stats.sessions.values().map(|s| s.enqueued).sum::<u64>() + stats.evicted.enqueued,
        "every enqueued segment published its result"
    );
    assert_eq!(net.protocol_errors, 0, "chaos sent no malformed bytes");

    // Export the run's full telemetry (stage histograms, pool
    // utilization, net.* counters — one registry) as a versioned
    // artifact for the scheduled CI job to upload.
    let snapshot = engine
        .telemetry_snapshot()
        .expect("every engine has a registry");
    assert_eq!(
        snapshot.counters.get("net.decoded_frames"),
        Some(&net.decoded_frames),
        "net counters publish into the engine's registry"
    );
    let artifact = Artifact::new(kinds::TELEMETRY, snapshot.encode()).to_bytes();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/soak_telemetry.json", artifact).expect("write soak telemetry");
}
