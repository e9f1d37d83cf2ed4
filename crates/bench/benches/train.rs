//! Mini-batch training throughput on GesIDNet: one `train_step_batch`
//! call over a mini-batch of 8 vs eight calls on batches of one, plus a
//! `train_classifier` run with a telemetry registry whose per-stage
//! histograms (`train.stage.epoch`, `train.stage.batch_step`) are
//! exported as `results/BENCH_train.json`.
//!
//! "Sequential" means eight batches of one through the same stacked
//! forward/backward, so the speedup is what stacking one mini-batch
//! saves over stepping its samples one at a time.
//!
//! The comparison is gradient-parity-gated: before timing, one batched
//! step is checked against the summed gradients of the batches of one
//! (relative tolerance — the batched backward associates float
//! additions differently, see `gp_models::PointModel::train_step_batch`).

use criterion::{criterion_group, Criterion};
use gestureprint_core::train::{train_classifier, ModelKind, TrainConfig};
use gp_models::features::{encode, FeatureConfig, ModelInput};
use gp_models::{GesIDNet, GesIDNetConfig, PointModel};
use gp_nn::Parameterized;
use gp_pipeline::LabeledSample;
use gp_testkit::toy_labeled_samples;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 8;

fn encoded_inputs(samples: &[LabeledSample]) -> Vec<(ModelInput, usize)> {
    let feature = FeatureConfig {
        num_points: 24,
        ..FeatureConfig::default()
    };
    samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut rng = StdRng::seed_from_u64(7 ^ (i as u64).wrapping_mul(0x9E37));
            (
                encode(&s.cloud, &s.frame_clouds, &feature, &mut rng),
                s.user,
            )
        })
        .collect()
}

fn grads_of(net: &mut GesIDNet) -> Vec<f32> {
    let mut g = Vec::new();
    net.for_each_param(&mut |_, gs| g.extend_from_slice(gs));
    g
}

fn bench_train(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");

    let samples = toy_labeled_samples(2); // 2 gestures × 2 users × 2 reps
    let encoded = encoded_inputs(&samples);
    assert_eq!(encoded.len(), BATCH);
    let inputs: Vec<&ModelInput> = encoded.iter().map(|(x, _)| x).collect();
    let labels: Vec<usize> = encoded.iter().map(|(_, y)| *y).collect();

    let mut rng = StdRng::seed_from_u64(0);
    let proto = GesIDNet::new(GesIDNetConfig::for_classes(2), &mut rng);

    // Gradient-parity gate: one batched step must accumulate the same
    // total gradient as the batches of one, within float-association
    // tolerance. Timing a diverging path would be meaningless.
    {
        let mut seq = proto.clone();
        let mut bat = proto.clone();
        for (&x, &y) in inputs.iter().zip(&labels) {
            seq.train_step_batch(&[x], &[y]);
        }
        bat.train_step_batch(&inputs, &labels);
        for (i, (s, b)) in grads_of(&mut seq)
            .iter()
            .zip(&grads_of(&mut bat))
            .enumerate()
        {
            let rel = (s - b).abs() / (1e-4 + s.abs().max(b.abs()));
            assert!(rel < 1e-2, "grad {i} diverged: {s} vs {b}");
        }
    }

    // Criterion benches (fed to the CI regression gate). Gradients
    // accumulate into fixed-size buffers, so repeated iterations don't
    // grow state; zeroing per iteration would only time memset.
    let mut group = c.benchmark_group("train");
    let mut seq_net = proto.clone();
    group.bench_function(format!("train_step_sequential_{BATCH}"), |b| {
        b.iter(|| {
            let mut loss = 0.0f32;
            for (&x, &y) in inputs.iter().zip(&labels) {
                loss += seq_net.train_step_batch(&[x], &[y]);
            }
            loss
        })
    });
    let mut bat_net = proto.clone();
    group.bench_function(format!("train_step_batch_{BATCH}"), |b| {
        b.iter(|| bat_net.train_step_batch(&inputs, &labels))
    });
    group.finish();

    // Manual medians for the speedup report.
    let iters = if smoke { 3 } else { 20 };
    let time_runs = |f: &mut dyn FnMut() -> f32| -> f64 {
        black_box(f());
        let mut times: Vec<f64> = (0..iters)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.total_cmp(b));
        times[times.len() / 2]
    };
    let mut seq_net = proto.clone();
    let seq_time = time_runs(&mut || {
        let mut loss = 0.0f32;
        for (&x, &y) in inputs.iter().zip(&labels) {
            loss += seq_net.train_step_batch(&[x], &[y]);
        }
        loss
    });
    let mut bat_net = proto.clone();
    let bat_time = time_runs(&mut || bat_net.train_step_batch(&inputs, &labels));
    let speedup = seq_time / bat_time;
    println!(
        "train_step_batch {BATCH}: sequential {:.2}ms vs batched {:.2}ms ({speedup:.2}x)",
        seq_time * 1e3,
        bat_time * 1e3,
    );
    if !smoke {
        assert!(
            speedup > 1.0,
            "one batched step must beat {BATCH} sequential train_step calls: {speedup:.2}x"
        );
    }

    // End-to-end training with a registry: epoch/batch-step histograms
    // from the real `train_classifier` loop, exported as the committed
    // trajectory artifact.
    let registry = gp_telemetry::Registry::new();
    let config = TrainConfig {
        model: ModelKind::GesIdNet,
        epochs: if smoke { 2 } else { 6 },
        batch_size: BATCH,
        augment: None,
        feature: FeatureConfig {
            num_points: 24,
            ..FeatureConfig::default()
        },
        ..TrainConfig::default()
    };
    let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
    let _ = train_classifier(&pairs, 2, &config, Some(&registry));

    let mut snapshot = registry.snapshot();
    use gp_codec::Encode;
    snapshot
        .attrs
        .insert("bench".into(), gp_codec::Value::Str("train".into()));
    snapshot.attrs.insert("batch_size".into(), BATCH.encode());
    snapshot
        .attrs
        .insert("epochs".into(), config.epochs.encode());
    snapshot
        .attrs
        .insert("train_set".into(), pairs.len().encode());
    snapshot.attrs.insert(
        "step_speedup".into(),
        gp_codec::Value::Str(format!("{speedup:.2}")),
    );
    print!("{}", snapshot.render_table("train.stage."));
    gp_bench::write_result("BENCH_train.json", &gp_bench::telemetry_artifact(&snapshot));
}

criterion_group!(benches, bench_train);

fn main() {
    benches();
}
