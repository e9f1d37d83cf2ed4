//! Criterion micro-benchmarks for every stage of the GesturePrint
//! pipeline, including the paper's §VI-B5 timing quantities
//! (preprocessing per sample, inference per sample).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gestureprint_core::{train_classifier, ModelKind, TrainConfig};
use gp_bench::{capture_fixture, sample_fixture};
use gp_dsp::cfar::{cfar_2d, CfarConfig};
use gp_dsp::fft::fft_in_place;
use gp_dsp::Complex;
use gp_models::features::{encode_sample, FeatureConfig};
use gp_models::{GesIDNet, GesIDNetConfig, PointModel};
use gp_pipeline::{NoiseCanceler, Preprocessor, PreprocessorConfig, Segmenter};
use gp_pointcloud::dbscan::{dbscan, DbscanConfig};
use gp_pointcloud::metrics::{chamfer, hausdorff};
use gp_radar::{Backend, RadarConfig, RadarSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_dsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsp");
    group.bench_function("fft_256", |b| {
        let signal: Vec<Complex> = (0..256).map(|i| Complex::cis(i as f64 * 0.37)).collect();
        b.iter_batched(
            || signal.clone(),
            |mut s| fft_in_place(&mut s),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cfar_2d_16x256", |b| {
        let mut power = vec![1.0f64; 16 * 256];
        power[5 * 256 + 100] = 500.0;
        power[9 * 256 + 30] = 300.0;
        let cfg = CfarConfig::default();
        b.iter(|| cfar_2d(&power, 16, 256, &cfg))
    });
    group.finish();
}

fn bench_radar(c: &mut Criterion) {
    let mut group = c.benchmark_group("radar");
    group.sample_size(20);
    // The same canonical performance the capture/sample fixtures use.
    let perf = gp_testkit::performance(
        0,
        gp_testkit::CANONICAL_GESTURE,
        gp_testkit::CANONICAL_DISTANCE,
        5,
    );
    let (gs, ge) = perf.gesture_interval();
    let scatterers = perf.scatterers_at((gs + ge) / 2.0);

    group.bench_function("geometric_frame", |b| {
        let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::Geometric, 1);
        b.iter(|| sim.simulate_frame(&scatterers, 0.0))
    });
    group.bench_function("signal_chain_frame_small", |b| {
        let mut sim = RadarSimulator::new(RadarConfig::test_small(), Backend::SignalChain, 1);
        b.iter(|| sim.simulate_frame(&scatterers, 0.0))
    });
    group.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    let frames = capture_fixture();
    group.bench_function("segmentation", |b| {
        let segmenter = Segmenter::default();
        b.iter(|| segmenter.segment(&frames))
    });
    let sample = sample_fixture();
    group.bench_function("dbscan_gesture_cloud", |b| {
        let cfg = DbscanConfig::default();
        b.iter(|| dbscan(&sample.cloud, &cfg))
    });
    group.bench_function("noise_canceling", |b| {
        let canceler = NoiseCanceler::default();
        b.iter(|| canceler.clean(&sample.cloud))
    });
    // The paper's §VI-B5 "preprocessing time" per gesture sample.
    group.bench_function("full_preprocess_per_sample", |b| {
        let pre = Preprocessor::new(PreprocessorConfig::default());
        b.iter(|| pre.process(&frames))
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("pointcloud_metrics");
    let a = sample_fixture().cloud;
    let mut b_cloud = a.clone();
    b_cloud.translate(gp_pointcloud::Vec3::new(0.05, 0.02, -0.03));
    group.bench_function("hausdorff", |bch| bch.iter(|| hausdorff(&a, &b_cloud)));
    group.bench_function("chamfer", |bch| bch.iter(|| chamfer(&a, &b_cloud)));
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models");
    group.sample_size(20);
    let sample = sample_fixture();
    let pairs = vec![(&sample, 0usize)];
    let quick = TrainConfig {
        epochs: 1,
        augment: None,
        ..TrainConfig::default()
    };

    for kind in [
        ModelKind::GesIdNet,
        ModelKind::PointNet,
        ModelKind::ProfileCnn,
        ModelKind::Lstm,
    ] {
        let model = train_classifier(
            &pairs,
            2,
            &TrainConfig {
                model: kind,
                ..quick.clone()
            },
            None,
        );
        group.bench_function(
            format!("inference_{}", kind.name().replace(' ', "_")),
            |b| b.iter(|| model.probabilities_batch(&[&sample])),
        );
    }
    // One forward + backward on a pre-encoded input (a batch of one).
    // Each iteration starts from a fresh clone of the same untrained
    // model (clone and encoding are setup, untimed), so every timed step
    // does identical work and gradients never accumulate across
    // iterations.
    group.bench_function("gesidnet_train_step", |b| {
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode_sample(&sample, &FeatureConfig::default(), &mut rng);
        let net = GesIDNet::new(GesIDNetConfig::for_classes(2), &mut rng);
        b.iter_batched(
            || net.clone(),
            |mut net| black_box(net.train_step_batch(&[&input], &[0])),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("feature_encoding", |b| {
        let cfg = FeatureConfig::default();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            encode_sample(&sample, &cfg, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dsp,
    bench_radar,
    bench_preprocessing,
    bench_metrics,
    bench_models
);
criterion_main!(benches);
