//! Golden artifact compatibility: the committed fixtures under
//! `crates/testkit/fixtures/` were written by an earlier revision of
//! the artifact schema and MUST keep loading on every PR. A failure
//! here means the schema drifted silently — either restore
//! compatibility (preferred: additive fields with `get_or` defaults)
//! or bump `SCHEMA_VERSION` *and* regenerate the fixtures consciously:
//!
//! ```sh
//! cargo test -p gp-testkit --test golden_artifacts -- --ignored
//! ```
//!
//! (see TESTING.md "Golden artifact fixtures").

use gestureprint_core::artifact::{kinds, Artifact, ModelArtifact, SCHEMA_VERSION};
use gestureprint_core::{
    classification_report, train_classifier, ClassificationReport, ModelKind, TrainConfig,
    TrainedModel,
};
use gp_codec::{Decode, Encode, Value};
use gp_models::features::FeatureConfig;
use gp_pipeline::LabeledSample;
use gp_rd::RdLabeledSample;
use gp_testkit::{quick_rd_train, toy_labeled_samples, toy_rd_samples};
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| {
        panic!("missing golden fixture {name}: {e} (see file docs to regenerate)")
    })
}

/// The exact configuration the model fixture was trained with. Changing
/// this requires regenerating the fixtures.
fn fixture_train_config() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Lstm, // the smallest architecture → smallest committed file
        epochs: 8,
        augment: None,
        feature: FeatureConfig {
            num_points: 24,
            ..FeatureConfig::default()
        },
        seed: 42,
        ..TrainConfig::default()
    }
}

fn fixture_samples() -> Vec<LabeledSample> {
    toy_labeled_samples(3)
}

fn train_fixture_model() -> TrainedModel {
    let samples = fixture_samples();
    let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
    train_classifier(&pairs, 2, &fixture_train_config(), None)
}

#[test]
fn model_fixture_still_loads() {
    let bytes = read_fixture("model_lstm_v1.json");
    let artifact = Artifact::from_bytes(&bytes).expect("envelope parses");
    assert!(
        artifact.schema_version <= SCHEMA_VERSION,
        "fixture from the future? regenerate it"
    );
    assert!(artifact.expect_kind(kinds::MODEL).is_ok());

    let model = TrainedModel::load_artifact(&bytes).expect("model reconstructs from bytes alone");
    assert_eq!(model.kind(), ModelKind::Lstm);
    assert_eq!(model.classes(), 2);
    for s in &fixture_samples() {
        let p = &model.probabilities_batch(&[s])[0];
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{p:?}");
    }

    // Anti-drift: decoding the payload and re-encoding it must be the
    // identity. A renamed/removed field fails the decode above; an
    // *added* field defaulting via `get_or` changes the re-encoding and
    // fails here — forcing a conscious fixture regeneration instead of
    // silent drift.
    let reencoded = ModelArtifact::decode(&artifact.payload)
        .expect("payload decodes")
        .encode();
    assert_eq!(
        reencoded, artifact.payload,
        "model payload schema drifted; regenerate fixtures deliberately"
    );
}

/// The exact configuration the RD model fixture was trained with.
/// Changing this requires regenerating the fixtures.
fn fixture_rd_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        seed: 42,
        ..quick_rd_train()
    }
}

fn train_fixture_rd_model() -> TrainedModel {
    let samples = toy_rd_samples(3);
    let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
    train_classifier(&pairs, 2, &fixture_rd_train_config(), None)
}

#[test]
fn rd_model_fixture_still_loads() {
    // Committed in both envelope formats — the RD backend's schema
    // compatibility gate, mirroring the point-cloud model fixture.
    for name in ["rd_model_v1.json", "rd_model_v1.bin"] {
        let bytes = read_fixture(name);
        let artifact = Artifact::from_bytes(&bytes).expect("envelope parses");
        assert!(
            artifact.schema_version <= SCHEMA_VERSION,
            "fixture from the future? regenerate it"
        );
        assert!(artifact.expect_kind(kinds::MODEL).is_ok());

        let model =
            TrainedModel::load_artifact(&bytes).expect("RD model reconstructs from bytes alone");
        assert_eq!(model.kind(), ModelKind::RdNet);
        assert_eq!(model.classes(), 2);
        for s in &toy_rd_samples(3) {
            let p = &model.probabilities_batch(&[s])[0];
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{p:?}");
        }

        // Anti-drift: decode → encode must be the identity (see the
        // point-cloud model fixture docs). The RD payload additionally
        // carries the rd_feature field, which must survive unchanged.
        let decoded = ModelArtifact::decode(&artifact.payload).expect("payload decodes");
        assert_eq!(
            decoded.clone().encode(),
            artifact.payload,
            "RD model payload schema drifted; regenerate fixtures deliberately"
        );
        assert!(artifact
            .payload
            .as_map()
            .unwrap()
            .iter()
            .any(|(k, _)| k == "rd_feature"));
    }
}

#[test]
fn report_fixture_still_loads() {
    let bytes = read_fixture("report_v1.json");
    let artifact = Artifact::from_bytes(&bytes).expect("envelope parses");
    assert!(artifact.expect_kind(kinds::REPORT).is_ok());
    let report: ClassificationReport = artifact.payload.get("report").expect("report decodes");
    // Internal consistency, not golden numbers: metrics must agree with
    // the persisted raw predictions (robust to cross-platform libm
    // differences at regeneration time).
    let manual = report
        .predictions
        .iter()
        .zip(&report.labels)
        .filter(|(p, l)| p == l)
        .count() as f64
        / report.labels.len().max(1) as f64;
    assert!((report.accuracy - manual).abs() < 1e-12);
    assert_eq!(report.probabilities.len(), report.labels.len());
    let reencoded: Value = report.encode();
    assert_eq!(
        &reencoded,
        artifact.payload.field("report").unwrap(),
        "report payload schema drifted; regenerate fixtures deliberately"
    );
}

/// The deterministic snapshot the telemetry fixture is built from — no
/// timers, fixed values, so regeneration is byte-stable across machines.
fn fixture_telemetry_snapshot() -> gp_telemetry::TelemetrySnapshot {
    use gp_telemetry::{Histogram, TelemetrySnapshot};
    let mut snap = TelemetrySnapshot::new();
    snap.counters.insert("net.accepted".into(), 8);
    snap.counters.insert("net.decoded_frames".into(), 2880);
    snap.counters.insert("serve.pool.jobs".into(), 96);
    snap.counters.insert("serve.pool.busy_us".into(), 410_000);
    snap.gauges.insert("serve.gate.depth".into(), 0);
    snap.gauges.insert("serve.pool.workers".into(), 2);
    let mut inference = Histogram::new();
    for v in [850u64, 900, 1_200, 1_450, 3_900, 52_000] {
        inference.record(v);
    }
    snap.histograms
        .insert("serve.stage.inference".into(), inference);
    snap.histograms
        .insert("serve.stage.queue_wait".into(), Histogram::new());
    snap.attrs.insert("sessions".into(), Value::Int(8));
    snap
}

#[test]
fn telemetry_fixture_still_loads() {
    use gp_telemetry::{TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION};
    let bytes = read_fixture("telemetry_v1.json");
    let artifact = Artifact::from_bytes(&bytes).expect("envelope parses");
    assert!(artifact.expect_kind(kinds::TELEMETRY).is_ok());
    let snap = TelemetrySnapshot::decode(&artifact.payload).expect("snapshot decodes");
    assert!(
        snap.schema_version <= TELEMETRY_SCHEMA_VERSION,
        "fixture from the future? regenerate it"
    );
    // The histograms survive with exact counts and queryable
    // percentiles — the properties every snapshot consumer relies on.
    let inference = snap
        .histograms
        .get("serve.stage.inference")
        .expect("stage histogram present");
    assert_eq!(inference.count(), 6);
    assert_eq!(inference.percentile(0.0), Some(850));
    assert_eq!(inference.percentile(100.0), Some(52_000));

    // Anti-drift: decode → encode must be the identity, so schema
    // changes force a conscious regeneration (see model fixture docs).
    assert_eq!(
        snap.encode(),
        artifact.payload,
        "telemetry snapshot schema drifted; regenerate fixtures deliberately"
    );
    // And the current encoder still produces these exact bytes for the
    // fixture's snapshot — byte-stable serialization, both directions.
    assert_eq!(snap, fixture_telemetry_snapshot());
}

/// The deterministic snapshot the RD telemetry fixture is built from —
/// the counters and stage histograms the RD serving path exports
/// (`serve.rd.*` alongside the shared `serve.stage.*` scheme), with
/// fixed values so regeneration is byte-stable across machines.
fn fixture_rd_telemetry_snapshot() -> gp_telemetry::TelemetrySnapshot {
    use gp_telemetry::{Histogram, TelemetrySnapshot};
    let mut snap = TelemetrySnapshot::new();
    snap.counters.insert("serve.rd.frames".into(), 1_200);
    snap.counters.insert("serve.rd.segments".into(), 14);
    snap.counters.insert("serve.rd.results".into(), 14);
    snap.counters.insert("serve.rd.fallback".into(), 3);
    snap.gauges.insert("serve.sessions.live".into(), 2);
    let mut inference = Histogram::new();
    for v in [2_100u64, 2_400, 2_650, 3_000, 4_800, 61_000] {
        inference.record(v);
    }
    snap.histograms
        .insert("serve.stage.inference".into(), inference);
    let mut segmentation = Histogram::new();
    for v in [140u64, 150, 165, 180] {
        segmentation.record(v);
    }
    snap.histograms
        .insert("serve.stage.segmentation".into(), segmentation);
    snap.attrs
        .insert("backend".into(), Value::Str("range_doppler".into()));
    snap
}

#[test]
fn rd_telemetry_fixture_still_loads() {
    use gp_telemetry::{TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION};
    for name in ["rd_telemetry_v1.json", "rd_telemetry_v1.bin"] {
        let bytes = read_fixture(name);
        let artifact = Artifact::from_bytes(&bytes).expect("envelope parses");
        assert!(artifact.expect_kind(kinds::TELEMETRY).is_ok());
        let snap = TelemetrySnapshot::decode(&artifact.payload).expect("snapshot decodes");
        assert!(
            snap.schema_version <= TELEMETRY_SCHEMA_VERSION,
            "fixture from the future? regenerate it"
        );
        assert_eq!(snap.counters["serve.rd.segments"], 14);
        let inference = snap
            .histograms
            .get("serve.stage.inference")
            .expect("stage histogram present");
        assert_eq!(inference.count(), 6);
        assert_eq!(inference.percentile(100.0), Some(61_000));

        // Anti-drift: decode → encode must be the identity (see the
        // point-cloud telemetry fixture docs).
        assert_eq!(
            snap.encode(),
            artifact.payload,
            "RD telemetry snapshot schema drifted; regenerate fixtures deliberately"
        );
        assert_eq!(snap, fixture_rd_telemetry_snapshot());
    }
}

/// The deterministic gallery the identity fixtures are built from — a
/// two-user gallery with hand-picked embeddings and a finite calibrated
/// threshold, so regeneration is byte-stable across machines.
fn fixture_gallery() -> gp_store::EmbeddingGallery {
    let mut gallery = gp_store::EmbeddingGallery::new();
    // Two samples per user so the persisted state exercises the running
    // sum (count > 1), not just single-enrollment templates.
    gallery.enroll("ada", &[0.25, -1.5, 3.0, 0.0]).unwrap();
    gallery.enroll("ada", &[0.75, -0.5, 2.0, 1.0]).unwrap();
    gallery.enroll("bob", &[-4.0, 2.25, 0.5, -1.0]).unwrap();
    gallery.enroll("bob", &[-3.0, 1.75, 1.5, -2.0]).unwrap();
    gallery.set_threshold(1.8125); // exactly representable: stable text
    gallery
}

#[test]
fn gallery_fixture_still_loads() {
    use gp_store::{EmbeddingGallery, Identification};
    // The fixture is committed in both artifact formats: the JSON
    // envelope (human-diffable) and the binary envelope (what the store
    // registry persists by default for galleries).
    for name in ["gallery_v1.json", "gallery_v1.bin"] {
        let bytes = read_fixture(name);
        let artifact = Artifact::from_bytes(&bytes).expect("envelope parses");
        assert!(
            artifact.schema_version <= SCHEMA_VERSION,
            "fixture from the future? regenerate it"
        );
        assert!(artifact.expect_kind(kinds::GALLERY).is_ok());

        let gallery = EmbeddingGallery::decode(&artifact.payload).expect("gallery decodes");
        assert_eq!(gallery.users(), 2);
        assert_eq!(gallery.samples(), 4);
        assert_eq!(gallery.dim(), 4);
        // Centroids reconstruct exactly — the sums persist as raw f64
        // bytes, so no decimal round-trip loss is tolerated.
        assert_eq!(
            gallery.entry("ada").expect("ada enrolled").centroid(),
            vec![0.5, -1.0, 2.5, 0.5]
        );
        // Open-set behaviour survives persistence: a probe on ada's
        // centroid is accepted, a far-away probe is rejected by the
        // stored threshold.
        assert_eq!(gallery.identify(&[0.5, -1.0, 2.5, 0.5]).user(), Some("ada"));
        assert!(matches!(
            gallery.identify(&[50.0, 50.0, 50.0, 50.0]),
            Identification::Rejected(Some(_))
        ));

        // Anti-drift: decode → encode must be the identity (see model
        // fixture docs), and both formats carry the same payload.
        assert_eq!(
            gallery.encode(),
            artifact.payload,
            "gallery payload schema drifted; regenerate fixtures deliberately"
        );
        assert_eq!(gallery, fixture_gallery());
    }
}

#[test]
fn baseline_fixture_still_parses() {
    let text = String::from_utf8(read_fixture("baseline_v1.json")).expect("utf8");
    let baseline = criterion::Baseline::parse(&text)
        .expect("committed baseline must stay readable by --baseline");
    assert_eq!(baseline.mean_ns("dsp/fft_256"), Some(52341.7));
    assert_eq!(
        baseline.mean_ns("serve/stream_replay_1worker"),
        Some(1.25e9)
    );
    assert_eq!(baseline.mean_ns("absent"), None);
}

/// Rewrites every golden fixture from the current schema. Run after a
/// *deliberate* schema change (with a `SCHEMA_VERSION` bump when the
/// change is breaking):
///
/// ```sh
/// cargo test -p gp-testkit --test golden_artifacts -- --ignored
/// ```
#[test]
#[ignore = "regenerates the committed golden fixtures in place"]
fn regenerate_golden_fixtures() {
    let model = train_fixture_model();
    std::fs::create_dir_all(Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")).unwrap();
    std::fs::write(fixture_path("model_lstm_v1.json"), model.save_artifact()).unwrap();

    let samples = fixture_samples();
    let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
    let report = classification_report(&model, &pairs);
    let payload = Value::record([
        ("report", report.encode()),
        ("task", Value::Str("user_identification".into())),
        ("dataset", Value::Str("toy_labeled_samples(3)".into())),
    ]);
    std::fs::write(
        fixture_path("report_v1.json"),
        Artifact::new(kinds::REPORT, payload).to_bytes(),
    )
    .unwrap();

    let mut baseline = criterion::Baseline::default();
    baseline.record("dsp/fft_256", 52341.7);
    baseline.record("serve/stream_replay_1worker", 1.25e9);
    std::fs::write(fixture_path("baseline_v1.json"), baseline.to_json()).unwrap();

    std::fs::write(
        fixture_path("telemetry_v1.json"),
        Artifact::new(kinds::TELEMETRY, fixture_telemetry_snapshot().encode()).to_bytes(),
    )
    .unwrap();

    use gestureprint_core::artifact::ArtifactFormat;
    let rd_model = train_fixture_rd_model();
    std::fs::write(fixture_path("rd_model_v1.json"), rd_model.save_artifact()).unwrap();
    std::fs::write(
        fixture_path("rd_model_v1.bin"),
        rd_model.save_artifact_with(ArtifactFormat::Binary),
    )
    .unwrap();

    let rd_telemetry = Artifact::new(kinds::TELEMETRY, fixture_rd_telemetry_snapshot().encode());
    std::fs::write(
        fixture_path("rd_telemetry_v1.json"),
        rd_telemetry.to_bytes(),
    )
    .unwrap();
    std::fs::write(
        fixture_path("rd_telemetry_v1.bin"),
        rd_telemetry.into_bytes_with(ArtifactFormat::Binary),
    )
    .unwrap();

    let gallery = Artifact::new(kinds::GALLERY, fixture_gallery().encode());
    std::fs::write(fixture_path("gallery_v1.json"), gallery.to_bytes()).unwrap();
    std::fs::write(
        fixture_path("gallery_v1.bin"),
        gallery.into_bytes_with(ArtifactFormat::Binary),
    )
    .unwrap();

    println!("regenerated fixtures under {}", fixture_path("").display());
}
