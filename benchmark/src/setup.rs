//! Set-up: train a full-size system, then build what serves it — the
//! engine, and for the socket workload the identity store, the loopback
//! server and the client connections.

use gestureprint_core::{
    ArtifactFormat, GesturePrint, GesturePrintConfig, IdentificationMode, ModelKind, TrainConfig,
};
use gp_net::{NetClient, NetConfig, NetListener, NetServer};
use gp_pipeline::LabeledSample;
use gp_rd::RdLabeledSample;
use gp_serve::{ServeConfig, ServeEngine};
use gp_store::{IdentityStore, RegistryConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cohort users the systems are trained on.
pub const COHORT: usize = 3;
/// Training repetitions per (user, gesture), point-cloud backend.
pub const POINT_REPS: usize = 2;
/// Training epochs, point-cloud backend.
pub const POINT_EPOCHS: usize = 3;
/// Training repetitions per (user, gesture), range-Doppler backend.
pub const RD_REPS: usize = 3;
/// Training epochs, range-Doppler backend.
pub const RD_EPOCHS: usize = 8;
/// Target false-accept rate for the gallery threshold.
pub const TARGET_FAR: f64 = 0.05;
/// Largest wire message the clients accept.
pub const MAX_FRAME: usize = 1 << 20;

/// Where a set-up's system comes from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    /// Train it (the timed path).
    Train,
    /// Load a previously trained system's artifact bytes.
    Artifact(&'a [u8]),
}

/// Wall time of one set-up and its parts (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Start to ready-to-serve.
    pub total_s: f64,
    /// `GesturePrint::train`/`train_rd` (or the artifact load).
    pub train_s: f64,
    /// Store open, enrollment and threshold calibration.
    pub enroll_s: f64,
    /// Server spawn, connects and the identify-mode switch.
    pub connect_s: f64,
}

/// The full-size point-cloud configuration: default features (96
/// points), all 15 gestures, serialized identifiers.
pub fn point_config() -> GesturePrintConfig {
    GesturePrintConfig {
        mode: IdentificationMode::Serialized,
        train: TrainConfig {
            epochs: POINT_EPOCHS,
            ..TrainConfig::default()
        },
        threads: 0,
    }
}

/// The range-Doppler configuration (RdNet, serialized identifiers).
pub fn rd_config() -> GesturePrintConfig {
    GesturePrintConfig {
        mode: IdentificationMode::Serialized,
        train: TrainConfig {
            model: ModelKind::RdNet,
            epochs: RD_EPOCHS,
            learning_rate: 5e-3,
            augment: None,
            ..TrainConfig::default()
        },
        threads: 0,
    }
}

/// The engine configuration every workload serves with.
pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

fn load(bytes: &[u8]) -> GesturePrint {
    GesturePrint::load_artifact(bytes).expect("reloading the benchmark's own artifact")
}

/// Trains (or loads) the point-cloud system; returns it with the time
/// taken.
pub fn point_system(training: &[LabeledSample], source: Source) -> (GesturePrint, f64) {
    let start = Instant::now();
    let system = match source {
        Source::Train => {
            let refs: Vec<&LabeledSample> = training.iter().collect();
            GesturePrint::train(&refs, crate::inputs::GESTURES, COHORT, &point_config())
        }
        Source::Artifact(bytes) => load(bytes),
    };
    (system, start.elapsed().as_secs_f64())
}

/// Trains (or loads) the range-Doppler system.
pub fn rd_system(training: &[RdLabeledSample], source: Source) -> (GesturePrint, f64) {
    let start = Instant::now();
    let system = match source {
        Source::Train => {
            let refs: Vec<&RdLabeledSample> = training.iter().collect();
            GesturePrint::train_rd(&refs, crate::inputs::GESTURES, COHORT, &rd_config())
        }
        Source::Artifact(bytes) => load(bytes),
    };
    (system, start.elapsed().as_secs_f64())
}

/// The binary artifact bytes of a system (its provenance identity).
pub fn artifact(system: &GesturePrint) -> Vec<u8> {
    system.save_artifact_with(ArtifactFormat::Binary)
}

/// A classify-only point-cloud engine.
pub fn point_burst(
    training: &[LabeledSample],
    source: Source,
    workers: usize,
) -> (ServeEngine, SetupTimes) {
    let start = Instant::now();
    let (system, train_s) = point_system(training, source);
    let engine = ServeEngine::new(system, serve_config(workers));
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        train_s,
        ..SetupTimes::default()
    };
    (engine, times)
}

/// A range-Doppler engine. The engine's primary system must be a
/// point-cloud one; no point frame reaches it, so the testkit's
/// millisecond toy system stands in.
pub fn rd_burst(
    training: &[RdLabeledSample],
    source: Source,
    workers: usize,
) -> (ServeEngine, SetupTimes) {
    let start = Instant::now();
    let (system, train_s) = rd_system(training, source);
    let engine =
        ServeEngine::new(gp_testkit::toy_system(), serve_config(workers)).with_rd_system(system);
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        train_s,
        ..SetupTimes::default()
    };
    (engine, times)
}

/// Everything `point_socket` serves through.
pub struct SocketStack {
    /// The engine behind the server.
    pub engine: Arc<ServeEngine>,
    /// The gallery the engine identifies against.
    pub store: Arc<IdentityStore>,
    /// The loopback socket front.
    pub server: NetServer,
    /// One identify-mode connection per replayed stream.
    pub clients: Vec<NetClient>,
    dir: PathBuf,
}

impl SocketStack {
    /// Stops the server and removes the store directory.
    pub fn teardown(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Trains (or loads) the system, enrolls every cohort user from their
/// training-sample embeddings, calibrates the threshold, spawns the
/// server on loopback and opens `connections` identify-mode clients.
pub fn socket(
    training: &[LabeledSample],
    source: Source,
    workers: usize,
    connections: usize,
    dir: &Path,
) -> (SocketStack, SetupTimes) {
    let start = Instant::now();
    let (system, train_s) = point_system(training, source);

    let enroll_start = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(
        IdentityStore::open(dir, RegistryConfig::default()).expect("opening the identity store"),
    );
    let probes: Vec<(String, Vec<f32>)> = training
        .iter()
        .map(|s| {
            let embedding = system
                .embedding(s)
                .expect("GesIDNet exposes a fusion embedding");
            (crate::inputs::user_label(s.user), embedding)
        })
        .collect();
    for (user, embedding) in &probes {
        store
            .enroll(user, embedding)
            .expect("enrolling a training embedding");
    }
    store.calibrate("benchmark", &probes, TARGET_FAR);
    let enroll_s = enroll_start.elapsed().as_secs_f64();

    let connect_start = Instant::now();
    let engine = Arc::new(ServeEngine::with_store(
        system,
        serve_config(workers),
        store.clone(),
    ));
    let listener = NetListener::bind_tcp("127.0.0.1:0").expect("binding loopback");
    let server = NetServer::spawn(engine.clone(), listener, NetConfig::default())
        .expect("spawning the server");
    let addr = server.local_addr().expect("a TCP listener has an address");
    let clients = (0..connections)
        .map(|_| {
            let mut client =
                NetClient::connect_tcp(addr, MAX_FRAME).expect("connecting to loopback");
            client.identify_mode().expect("switching to identify mode");
            client
        })
        .collect();
    let connect_s = connect_start.elapsed().as_secs_f64();

    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        train_s,
        enroll_s,
        connect_s,
    };
    let stack = SocketStack {
        engine,
        store,
        server,
        clients,
        dir: dir.to_path_buf(),
    };
    (stack, times)
}
