//! Golden forward fixture: GesIDNet's inference outputs, frozen bit for
//! bit in `fixtures/gesidnet_forward_v1.json`.
//!
//! Two seeded `GesIDNetConfig::for_classes(5)` nets (fusion on and off)
//! run over six encoded inputs built from deterministic clouds of 5–300
//! raw points. Two clouds have fewer raw points than the 24 SA1
//! centroids, and one of those is encoded to 16 points, so its SA1
//! keeps only 16 centroids. The weights are not committed: the seeded
//! RNG rebuilds them. Per input the fixture pins the P1 logits and the fused
//! embedding `Y¹` as f32 bit patterns, and the low/high-level features
//! `F¹`/`F²` as a 64-bit FNV-1a hash of their bits.
//!
//! The live test checks every entry point a caller can reach — a batch
//! of one through `logits_and_embedding_batch`, the per-sample
//! `feature_taps`, and one `logits_and_embedding_batch` over all inputs
//! plus a duplicate — against the fixture. A failure means the network's forward changed numerically.
//! If that is intended (a deliberate change to the architecture or its
//! kernels), regenerate the fixture and say so in the change log:
//!
//! ```sh
//! cargo test -p gp-models --test golden_forward -- --ignored
//! ```

use gp_codec::Value;
use gp_models::features::{encode, FeatureConfig, ModelInput};
use gp_models::{GesIDNet, GesIDNetConfig, PointModel};
use gp_pointcloud::{Point, PointCloud, Vec3};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const FIXTURE: &str = "gesidnet_forward_v1.json";
const CLASSES: usize = 5;

/// The nets: `(init seed, fusion)`.
const NETS: [(u64, bool); 2] = [(101, true), (202, false)];

/// The inputs: `(seed, raw points, encoded points, lateral shift)`.
const INPUTS: [(u64, usize, usize, f64); 6] = [
    (1, 5, 24, 0.0),
    (2, 17, 16, -0.2),
    (3, 24, 24, 0.1),
    (4, 60, 48, 0.3),
    (5, 150, 96, -0.1),
    (6, 300, 96, 0.25),
];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(FIXTURE)
}

fn net(seed: u64, fusion: bool) -> GesIDNet {
    let mut rng = StdRng::seed_from_u64(seed);
    GesIDNet::new(
        GesIDNetConfig {
            fusion,
            ..GesIDNetConfig::for_classes(CLASSES)
        },
        &mut rng,
    )
}

/// A deterministic gesture-like cloud with `points` raw points.
fn cloud(seed: u64, points: usize, shift: f64) -> PointCloud {
    (0..points)
        .map(|i| {
            let t = i as f64 * 0.29 + seed as f64 * 0.7;
            Point::new(
                Vec3::new(
                    shift + t.sin() * 0.35,
                    1.1 + (t * 0.5).cos() * 0.25,
                    1.0 + (t * 0.8).sin() * 0.3,
                ),
                (t * 1.7).sin() * 1.5,
                6.0 + (i % 17) as f64,
            )
        })
        .collect()
}

fn inputs() -> Vec<ModelInput> {
    INPUTS
        .iter()
        .map(|&(seed, raw, num_points, shift)| {
            let mut rng = StdRng::seed_from_u64(seed);
            encode(
                &cloud(seed, raw, shift),
                &[],
                &FeatureConfig {
                    num_points,
                    ..FeatureConfig::default()
                },
                &mut rng,
            )
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<String> {
    values
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect()
}

/// 64-bit FNV-1a over the little-endian bytes of each value's bits.
fn hash(values: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// What the fixture pins for one input.
#[derive(Debug, PartialEq)]
struct Expected {
    logits: Vec<String>,
    y1: Vec<String>,
    f1: String,
    f2: String,
}

fn record(net: &GesIDNet, input: &ModelInput) -> Expected {
    let (f1, f2, y1) = net.feature_taps(input).expect("GesIDNet has feature taps");
    let (logits, _) = net.logits_and_embedding_batch(std::slice::from_ref(input));
    Expected {
        logits: bits(logits.row(0)),
        y1: bits(&y1),
        f1: hash(&f1),
        f2: hash(&f2),
    }
}

/// The fixture as `(seed, fusion, per-input expectations)` per net,
/// after checking that its input table matches [`INPUTS`].
fn load() -> Vec<(u64, bool, Vec<Expected>)> {
    let text = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("missing golden fixture {FIXTURE}: {e}"));
    let root = gp_codec::from_json(&text).expect("fixture parses");
    assert_eq!(root.get::<usize>("classes").unwrap(), CLASSES);
    let table: Vec<Vec<f64>> = root.get("inputs").unwrap();
    let expected_table: Vec<Vec<f64>> = INPUTS
        .iter()
        .map(|&(s, raw, n, shift)| vec![s as f64, raw as f64, n as f64, shift])
        .collect();
    assert_eq!(table, expected_table, "fixture input table drifted");
    root.field("nets")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|n| {
            let outputs = n
                .field("outputs")
                .unwrap()
                .as_seq()
                .unwrap()
                .iter()
                .map(|o| Expected {
                    logits: o.get("logits").unwrap(),
                    y1: o.get("y1").unwrap(),
                    f1: o.get("f1_hash").unwrap(),
                    f2: o.get("f2_hash").unwrap(),
                })
                .collect();
            (n.get("seed").unwrap(), n.get("fusion").unwrap(), outputs)
        })
        .collect()
}

#[test]
fn forward_matches_golden_fixture() {
    let inputs = inputs();
    let fixture = load();
    assert_eq!(
        fixture.iter().map(|(s, f, _)| (*s, *f)).collect::<Vec<_>>(),
        NETS.to_vec()
    );
    for (seed, fusion, expected) in &fixture {
        let net = net(*seed, *fusion);
        assert_eq!(expected.len(), inputs.len());
        for (i, (input, want)) in inputs.iter().zip(expected).enumerate() {
            let ctx = format!("net seed {seed} fusion {fusion}, input {i}");
            assert_eq!(&record(&net, input), want, "{ctx}: per-sample taps");
            let (logits, embeddings) = net.logits_and_embedding_batch(std::slice::from_ref(input));
            assert_eq!(bits(logits.row(0)), want.logits, "{ctx}: batch of one");
            let embeddings = embeddings.expect("GesIDNet has an embedding");
            assert_eq!(bits(embeddings.row(0)), want.y1, "{ctx}: embedding");
        }
        // One batch over every input plus a duplicate of the first: each
        // row is the input's own frozen output.
        let mut batch = inputs.clone();
        batch.push(inputs[0].clone());
        let (logits, embeddings) = net.logits_and_embedding_batch(&batch);
        let embeddings = embeddings.expect("GesIDNet has an embedding");
        assert_eq!(logits.rows(), batch.len());
        for r in 0..batch.len() {
            let want = &expected[r % inputs.len()];
            let ctx = format!("net seed {seed} fusion {fusion}, batch row {r}");
            assert_eq!(bits(logits.row(r)), want.logits, "{ctx}: logits");
            assert_eq!(bits(embeddings.row(r)), want.y1, "{ctx}: embedding");
        }
    }
}

/// Rewrites the fixture from the current forward. Run only for a
/// deliberate numerical change (see the module docs):
///
/// ```sh
/// cargo test -p gp-models --test golden_forward -- --ignored
/// ```
#[test]
#[ignore = "regenerates the committed golden forward fixture in place"]
fn regenerate_golden_forward() {
    let inputs = inputs();
    let mut nets = Vec::new();
    for (seed, fusion) in NETS {
        let net = net(seed, fusion);
        let outputs = inputs
            .iter()
            .map(|input| {
                let e = record(&net, input);
                let seq = |v: Vec<String>| Value::Seq(v.into_iter().map(Value::Str).collect());
                let line = Value::record([
                    ("logits", seq(e.logits)),
                    ("y1", seq(e.y1)),
                    ("f1_hash", Value::Str(e.f1)),
                    ("f2_hash", Value::Str(e.f2)),
                ]);
                gp_codec::to_json(&line).unwrap()
            })
            .collect::<Vec<_>>();
        nets.push(format!(
            "{{\"seed\": {seed}, \"fusion\": {fusion}, \"outputs\": [\n{}\n]}}",
            outputs.join(",\n")
        ));
    }
    let table = INPUTS
        .iter()
        .map(|&(s, raw, n, shift)| format!("[{s}.0, {raw}.0, {n}.0, {shift:?}]"))
        .collect::<Vec<_>>()
        .join(", ");
    let text = format!(
        "{{\"classes\": {CLASSES},\n\"inputs\": [{table}],\n\"nets\": [\n{}\n]}}\n",
        nets.join(",\n")
    );
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), text).unwrap();
}
