//! Stage timing and snapshot export through the engine: the
//! registry's `serve.stage.*` histograms decompose end-to-end latency
//! into the five pipeline stages (plus the assembly inside
//! segmentation), and the telemetry registry exports a versioned
//! snapshot.

use gp_serve::{ServeConfig, ServeEngine, TelemetrySnapshot};
use gp_testkit::{stream_fixture, toy_system};

fn run() -> ServeEngine {
    let engine = ServeEngine::new(
        toy_system(),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let stream = stream_fixture();
    let session = engine.open_session();
    for frame in &stream.frames {
        engine.push_frame(session, frame.clone());
    }
    engine.close_session(session);
    engine.drain();
    engine
}

#[test]
fn snapshot_reports_per_stage_latency_breakdown() {
    let engine = run();
    let stats = engine.stats();
    let snap = engine
        .telemetry_snapshot()
        .expect("every engine has a registry");
    let stage = |name: &str| &snap.histograms[&format!("serve.stage.{name}")];
    let results = stats.total_results();
    assert!(results >= 2, "fixture publishes several results");

    // Every admitted frame was timed through admission + segmentation,
    // and every closed point segment through assembly…
    let frames = stats.total_frames();
    assert_eq!(stage("admission_wait").count(), frames);
    assert_eq!(stage("segmentation").count(), frames);
    assert_eq!(stage("assembly").count(), stats.total_segments());
    // …and every published result through the executor stages.
    assert_eq!(stage("queue_wait").count(), results);
    assert_eq!(stage("inference").count(), results);
    assert_eq!(stage("publish").count(), results);

    // Each stage exposes p50/p99 (the acceptance-criteria numbers).
    for name in [
        "admission_wait",
        "segmentation",
        "assembly",
        "queue_wait",
        "inference",
        "publish",
    ] {
        let hist = stage(name);
        assert!(hist.percentile(50.0).is_some(), "{name} has a p50");
        assert!(hist.percentile(99.0).is_some(), "{name} has a p99");
        assert!(
            hist.percentile(50.0) <= hist.percentile(99.0),
            "{name} percentiles are ordered"
        );
    }
    // Inference dominates queue residency for an unsaturated replay,
    // and a result's end-to-end latency is at least its inference time.
    let e2e_p99 = stats.latency_percentile(99.0).unwrap().as_micros() as u64;
    let inference_p50 = stage("inference").percentile(50.0).unwrap();
    assert!(e2e_p99 >= inference_p50, "stages decompose the e2e number");
}

#[test]
fn snapshot_exports_whole_registry_and_roundtrips() {
    let engine = run();
    let snap = engine
        .telemetry_snapshot()
        .expect("every engine has a registry");

    // Stage histograms, pool utilization, and gauges share one registry.
    assert!(snap.histograms.contains_key("serve.stage.inference"));
    assert!(snap.histograms.contains_key("serve.stage.queue_wait"));
    assert!(snap.counters.contains_key("serve.pool.jobs"));
    assert!(snap.counters.contains_key("serve.pool.busy_us"));
    assert_eq!(snap.counters.get("serve.pool.panics"), Some(&0));
    assert_eq!(snap.gauges.get("serve.pool.workers"), Some(&2));
    assert_eq!(snap.gauges.get("serve.gate.depth"), Some(&0), "drained");
    assert_eq!(snap.gauges.get("serve.sessions.live"), Some(&0), "closed");

    // Versioned and deterministic over the wire format.
    assert_eq!(snap.schema_version, gp_telemetry::TELEMETRY_SCHEMA_VERSION);
    let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn config_with_the_old_telemetry_switch_decodes_with_it_ignored() {
    use gp_codec::{Decode, Encode};
    // Configs written while telemetry could be switched off carry a
    // `telemetry` flag; they still decode, the field ignored, since
    // every engine now records its stages.
    let config = ServeConfig {
        workers: 2,
        max_batch: 4,
        ..ServeConfig::default()
    };
    let mut legacy = config.encode();
    let gp_codec::Value::Map(fields) = &mut legacy else {
        panic!("ServeConfig encodes as a record");
    };
    fields.insert("telemetry".into(), false.encode());
    let decoded = ServeConfig::decode(&legacy).expect("legacy config decodes");
    assert_eq!(decoded, config);
    assert_eq!(decoded, ServeConfig::decode(&config.encode()).unwrap());
}
