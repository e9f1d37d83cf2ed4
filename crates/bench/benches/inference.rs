//! Batched vs sequential inference through the full GesturePrint stack.
//!
//! `GesturePrint::infer_batch` routes every sample through GesIDNet's
//! `logits_and_embedding_batch` (deduplicated grouping + multi-row
//! kernels). "Sequential" means N single `infer` calls, each a batch of
//! one through the same stacked code, so the pair of benchmarks below
//! measures what stacking N segments saves. The parity assertion at
//! the top makes it meaningless to win by diverging: predictions are
//! checked bit-identical before anything is timed.

use criterion::{criterion_group, Criterion};
use gp_pipeline::LabeledSample;
use gp_testkit::{toy_labeled_samples, toy_system};

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

criterion_group!(benches, bench_batch_inference);

fn main() {
    benches();
}
