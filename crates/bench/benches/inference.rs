//! Batched vs sequential inference through the full GesturePrint stack.
//!
//! `GesturePrint::infer_batch` routes every sample through GesIDNet's
//! `logits_and_embedding_batch` (stacked grouping + multi-row
//! kernels). "Sequential" means N single `infer` calls, each a batch of
//! one through the same stacked code, so the pair of benchmarks below
//! measures what stacking N segments saves. The parity assertion at
//! the top makes it meaningless to win by diverging: predictions are
//! checked bit-identical before anything is timed.
//!
//! The toy system's 24-point clouds and 2 × 2 classes are far smaller
//! than what is served, so a second pair times GesIDNet alone at the
//! served shapes: `GesIDNetConfig::for_classes(15)` on
//! `FeatureConfig::default()` inputs (96 points), batches of 1 and 8,
//! behind the same kind of parity gate.

use criterion::{criterion_group, Criterion};
use gp_models::features::{encode, FeatureConfig, ModelInput};
use gp_models::{GesIDNet, GesIDNetConfig, PointModel};
use gp_pipeline::{LabeledSample, Preprocessor, PreprocessorConfig};
use gp_testkit::{capture, toy_labeled_samples, toy_system};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 8;

fn bench_batch_inference(c: &mut Criterion) {
    let system = toy_system();
    let samples = toy_labeled_samples(2); // 2 gestures × 2 users × 2 reps
    assert_eq!(samples.len(), BATCH);
    let refs: Vec<&LabeledSample> = samples.iter().collect();

    // Parity gate: the comparison is only meaningful while batched and
    // sequential inference agree bit-for-bit.
    let batched = system.infer_batch(&refs);
    for (i, sample) in samples.iter().enumerate() {
        assert_eq!(batched[i], system.infer(sample), "sample {i} diverged");
    }

    let mut group = c.benchmark_group("inference");
    group.bench_function(format!("infer_sequential_{BATCH}"), |b| {
        b.iter(|| {
            refs.iter()
                .map(|sample| system.infer(sample))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function(format!("infer_batch_{BATCH}"), |b| {
        b.iter(|| system.infer_batch(&refs))
    });
    group.finish();
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Eight radar captures (2 users × 4 gestures), preprocessed and
/// encoded as served: each capture's longest segment, resampled to
/// `FeatureConfig::default()`'s 96 points.
fn served_inputs() -> Vec<ModelInput> {
    let pre = Preprocessor::new(PreprocessorConfig::default());
    let feature = FeatureConfig::default();
    let mut rng = StdRng::seed_from_u64(0);
    let inputs: Vec<ModelInput> = (0..BATCH)
        .map(|i| {
            let (_, frames) = capture(i % 2, i / 2, 11);
            let sample = pre
                .process(&frames)
                .into_iter()
                .max_by_key(|s| s.duration_frames)
                .expect("a capture segments");
            encode(&sample.cloud, &sample.frame_clouds, &feature, &mut rng)
        })
        .collect();
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(input.points.rows(), feature.num_points);
        // Eight distinct captures, as served streams are.
        assert!(!inputs[..i].contains(input), "input {i} repeats");
    }
    inputs
}

fn bench_served_shape(c: &mut Criterion) {
    let inputs = served_inputs();
    let net = GesIDNet::new(
        GesIDNetConfig::for_classes(15),
        &mut StdRng::seed_from_u64(0),
    );

    // Parity gate: every row of the batch of 8 is bit-identical to its
    // input run as a batch of one.
    let (logits, embeddings) = net.logits_and_embedding_batch(&inputs);
    let embeddings = embeddings.expect("GesIDNet has a fusion tap");
    for (i, input) in inputs.iter().enumerate() {
        let (one_logits, one_embedding) =
            net.logits_and_embedding_batch(std::slice::from_ref(input));
        let one_embedding = one_embedding.expect("GesIDNet has a fusion tap");
        assert_eq!(
            bits(logits.row(i)),
            bits(one_logits.row(0)),
            "logits {i} diverged"
        );
        assert_eq!(
            bits(embeddings.row(i)),
            bits(one_embedding.row(0)),
            "embedding {i} diverged"
        );
    }

    let mut group = c.benchmark_group("inference");
    group.bench_function("gesidnet_served_b1", |b| {
        b.iter(|| net.logits_and_embedding_batch(&inputs[..1]))
    });
    group.bench_function(format!("gesidnet_served_b{BATCH}"), |b| {
        b.iter(|| net.logits_and_embedding_batch(&inputs))
    });
    group.finish();
}

criterion_group!(benches, bench_batch_inference, bench_served_shape);

fn main() {
    benches();
}
