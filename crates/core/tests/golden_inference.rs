//! Golden inference fixture: `GesturePrint`'s two-stage outputs, frozen
//! bit for bit in `fixtures/inference_v1.json`.
//!
//! Four small systems are trained from fixed seeds in milliseconds:
//! `gp_testkit::toy_system()` (serialized GesIDNet), the same samples
//! and schedule in parallel mode, a serialized PointNet system (no
//! fusion tap, so no embedding) and `gp_testkit::toy_rd_system()`. The
//! weights are not committed: training rebuilds them. Per probe the
//! fixture pins the recognised gesture, the identified user, both
//! probability vectors as f64 bit patterns, and the identification
//! embedding as f32 bit patterns (null without a fusion tap).
//!
//! The live test checks, against the fixture: per-sample `infer` /
//! `infer_rd`, one batched call over every probe plus a duplicate,
//! `embedding_for_gesture(probe, gesture)`, `embedding` (point
//! systems), and the gesture model's and the dispatched identifier's
//! `probabilities_batch` on a batch of one.
//! A failure means encoding, a forward, the softmax or the
//! classify-then-identify dispatch changed numerically. If that is
//! intended, regenerate the fixture and say so in the change log:
//!
//! ```sh
//! cargo test -p gestureprint-core --test golden_inference -- --ignored
//! ```

use gestureprint_core::{
    GesturePrint, GesturePrintConfig, IdentificationMode, Inference, ModelKind, SampleRef,
    TrainConfig,
};
use gp_codec::Value;
use gp_models::features::FeatureConfig;
use gp_pipeline::LabeledSample;
use gp_rd::RdLabeledSample;
use std::path::PathBuf;

const FIXTURE: &str = "inference_v1.json";

/// The systems, in fixture order.
const SYSTEMS: [&str; 4] = [
    "serialized_gesidnet",
    "parallel_gesidnet",
    "serialized_pointnet",
    "serialized_rdnet",
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(FIXTURE)
}

/// A point-cloud system on `toy_system()`'s samples and schedule.
fn point_system(mode: IdentificationMode, model: ModelKind) -> GesturePrint {
    let samples = gp_testkit::toy_labeled_samples(4);
    let refs: Vec<&LabeledSample> = samples.iter().collect();
    GesturePrint::train(
        &refs,
        2,
        2,
        &GesturePrintConfig {
            mode,
            train: TrainConfig {
                model,
                epochs: 8,
                augment: None,
                feature: FeatureConfig {
                    num_points: 24,
                    ..FeatureConfig::default()
                },
                ..TrainConfig::default()
            },
            threads: 2,
        },
    )
}

fn system(name: &str) -> GesturePrint {
    match name {
        "serialized_gesidnet" => gp_testkit::toy_system(),
        "parallel_gesidnet" => point_system(IdentificationMode::Parallel, ModelKind::GesIdNet),
        "serialized_pointnet" => point_system(IdentificationMode::Serialized, ModelKind::PointNet),
        "serialized_rdnet" => gp_testkit::toy_rd_system(),
        other => unreachable!("unknown system {other}"),
    }
}

/// Every fourth toy sample (both gestures, both users, training and
/// held-out repetitions) plus one real radar capture.
fn point_probes() -> Vec<LabeledSample> {
    let mut probes: Vec<LabeledSample> = gp_testkit::toy_labeled_samples(6)
        .into_iter()
        .step_by(4)
        .collect();
    probes.push(gp_testkit::sample_fixture());
    probes
}

/// The RD counterpart of [`point_probes`]: every fourth toy RD sample
/// plus one synthesized capture.
fn rd_probes() -> Vec<RdLabeledSample> {
    let mut probes: Vec<RdLabeledSample> = gp_testkit::toy_rd_samples(6)
        .into_iter()
        .step_by(4)
        .collect();
    probes.push(gp_testkit::rd_sample(0, gp_testkit::CANONICAL_GESTURE, 3));
    probes
}

fn bits64(values: &[f64]) -> Vec<String> {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect()
}

fn bits32(values: &[f32]) -> Vec<String> {
    values
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect()
}

/// What the fixture pins for one probe.
#[derive(Debug, PartialEq)]
struct Expected {
    gesture: usize,
    user: usize,
    gesture_probs: Vec<String>,
    user_probs: Vec<String>,
    embedding: Option<Vec<String>>,
}

fn expected(inference: &Inference) -> Expected {
    Expected {
        gesture: inference.gesture,
        user: inference.user,
        gesture_probs: bits64(&inference.gesture_probs),
        user_probs: bits64(&inference.user_probs),
        embedding: inference.embedding.as_deref().map(bits32),
    }
}

/// Per-probe inferences of `system`, one `infer`/`infer_rd` call each.
fn infer_all(name: &str, system: &GesturePrint) -> Vec<Inference> {
    if name == "serialized_rdnet" {
        rd_probes().iter().map(|p| system.infer_rd(p)).collect()
    } else {
        point_probes().iter().map(|p| system.infer(p)).collect()
    }
}

/// The fixture as `(system name, per-probe expectations)`.
fn load() -> Vec<(String, Vec<Expected>)> {
    let text = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("missing golden fixture {FIXTURE}: {e}"));
    let root = gp_codec::from_json(&text).expect("fixture parses");
    root.field("systems")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|s| {
            let probes = s
                .field("probes")
                .unwrap()
                .as_seq()
                .unwrap()
                .iter()
                .map(|p| Expected {
                    gesture: p.get("gesture").unwrap(),
                    user: p.get("user").unwrap(),
                    gesture_probs: p.get("gesture_probs").unwrap(),
                    user_probs: p.get("user_probs").unwrap(),
                    embedding: p.get("embedding").unwrap(),
                })
                .collect();
            (s.get("name").unwrap(), probes)
        })
        .collect()
}

/// Checks every inference entry point over `probes` against `want`.
/// `infer` is the typed per-sample entry (`infer` or `infer_rd`).
fn check<'a, S: Copy + Into<SampleRef<'a>>>(
    name: &str,
    system: &GesturePrint,
    probes: &[S],
    infer: impl Fn(S) -> Inference,
    want: &[Expected],
) {
    assert_eq!(want.len(), probes.len(), "{name}: probe count");
    for (i, (&probe, want)) in probes.iter().zip(want).enumerate() {
        let ctx = format!("{name}, probe {i}");
        assert_eq!(&expected(&infer(probe)), want, "{ctx}: infer");
        let embedding = system.embedding_for_gesture(probe, want.gesture);
        assert_eq!(
            embedding.as_deref().map(bits32),
            want.embedding,
            "{ctx}: embedding_for_gesture"
        );
        let gesture_probs = system.gesture_model().probabilities_batch(&[probe]);
        assert_eq!(bits64(&gesture_probs[0]), want.gesture_probs, "{ctx}: GR");
        let user_probs = system
            .identifier_for(want.gesture)
            .probabilities_batch(&[probe]);
        assert_eq!(bits64(&user_probs[0]), want.user_probs, "{ctx}: UI");
    }
    let mut batch = probes.to_vec();
    batch.push(probes[0]);
    let inferred = system.infer_batch(&batch);
    assert_eq!(inferred.len(), batch.len());
    for (r, inference) in inferred.iter().enumerate() {
        let want = &want[r % probes.len()];
        assert_eq!(&expected(inference), want, "{name}, batch row {r}");
    }
}

#[test]
fn inference_matches_golden_fixture() {
    let fixture = load();
    assert_eq!(
        fixture.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        SYSTEMS
    );
    let (point, rd) = (point_probes(), rd_probes());
    let point: Vec<&LabeledSample> = point.iter().collect();
    let rd: Vec<&RdLabeledSample> = rd.iter().collect();
    for (name, want) in &fixture {
        let system = system(name);
        if name == "serialized_rdnet" {
            check(name, &system, &rd, |p| system.infer_rd(p), want);
        } else {
            check(name, &system, &point, |p| system.infer(p), want);
            for (i, (probe, want)) in point.iter().zip(want).enumerate() {
                let embedding = system.embedding(probe);
                let got = embedding.as_deref().map(bits32);
                assert_eq!(got, want.embedding, "{name}, probe {i}: embedding");
            }
        }
    }
    // The PointNet identifiers have no fusion tap; every other system's do.
    for (name, want) in &fixture {
        let taps = want.iter().all(|w| w.embedding.is_some());
        assert_eq!(taps, name != "serialized_pointnet", "{name}: embeddings");
    }
}

/// Rewrites the fixture from the current inference path. Run only for
/// a deliberate numerical change (see the module docs):
///
/// ```sh
/// cargo test -p gestureprint-core --test golden_inference -- --ignored
/// ```
#[test]
#[ignore = "regenerates the committed golden inference fixture in place"]
fn regenerate_golden_inference() {
    let systems = SYSTEMS
        .iter()
        .map(|&name| {
            let probes = infer_all(name, &system(name))
                .iter()
                .map(|inference| {
                    let e = expected(inference);
                    let seq = |v: Vec<String>| Value::Seq(v.into_iter().map(Value::Str).collect());
                    let line = Value::record([
                        ("gesture", Value::Int(e.gesture as i64)),
                        ("user", Value::Int(e.user as i64)),
                        ("gesture_probs", seq(e.gesture_probs)),
                        ("user_probs", seq(e.user_probs)),
                        ("embedding", e.embedding.map_or(Value::Null, seq)),
                    ]);
                    gp_codec::to_json(&line).unwrap()
                })
                .collect::<Vec<_>>();
            format!(
                "{{\"name\": \"{name}\", \"probes\": [\n{}\n]}}",
                probes.join(",\n")
            )
        })
        .collect::<Vec<_>>();
    let text = format!("{{\"systems\": [\n{}\n]}}\n", systems.join(",\n"));
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), text).unwrap();
}
