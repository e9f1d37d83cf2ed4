//! Property tests: every row of the batched GesIDNet forward must be
//! bit-exact with its input run alone (per-sample calls are the same
//! stacked code on a batch of one) for every batch size 1..=8, mixed
//! raw point-cloud sizes, mixed resampling widths, and duplicated
//! inputs — the guarantee `gp-serve`'s micro-batching executor and
//! `gp-core`'s batched entry points rely on for worker-count
//! determinism. The embedding rows the batched forward hands back (the
//! fused `Y¹` that identity resolution enrolls and matches) are held to
//! the same bar against `feature_taps`, which reads `Y¹` through the
//! forward's recording mode (the one training runs), with and without
//! fusion: the recording and non-recording modes of the one forward
//! must agree bit for bit. The outputs themselves are pinned by the
//! golden forward fixture (`golden_forward.rs`).

use gp_models::features::{encode, FeatureConfig, ModelInput};
use gp_models::{GesIDNet, GesIDNetConfig, PointModel};
use gp_pointcloud::{Point, PointCloud, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic synthetic gesture cloud with `points` raw points.
fn cloud(seed: u64, points: usize, shift: f64) -> PointCloud {
    (0..points)
        .map(|i| {
            let t = i as f64 * 0.37 + seed as f64 * 0.11;
            Point::new(
                Vec3::new(
                    shift + t.sin() * 0.3,
                    1.2 + t.cos() * 0.2,
                    1.0 + (t * 0.7).sin() * 0.3,
                ),
                (t * 1.3).sin(),
                8.0 + (i % 13) as f64,
            )
        })
        .collect()
}

fn input(seed: u64, points: usize, num_points: usize, shift: f64) -> ModelInput {
    let mut rng = StdRng::seed_from_u64(seed);
    encode(
        &cloud(seed, points, shift),
        &[],
        &FeatureConfig {
            num_points,
            ..FeatureConfig::default()
        },
        &mut rng,
    )
}

fn net(seed: u64, classes: usize, fusion: bool) -> GesIDNet {
    let mut rng = StdRng::seed_from_u64(seed);
    GesIDNet::new(
        GesIDNetConfig {
            fusion,
            ..GesIDNetConfig::for_classes(classes)
        },
        &mut rng,
    )
}

/// Checks every batched row — logits against the sample's batch of
/// one, and the embedding against the per-sample fused tap
/// `feature_taps(..).2` — bit for bit.
fn assert_rows_bit_exact(net: &GesIDNet, inputs: &[ModelInput]) -> Result<(), TestCaseError> {
    let (batched, embeddings) = net.logits_and_embedding_batch(inputs);
    let embeddings = embeddings.expect("GesIDNet has a fusion tap");
    prop_assert_eq!(batched.rows(), inputs.len());
    prop_assert_eq!(embeddings.rows(), inputs.len());
    for (i, sample) in inputs.iter().enumerate() {
        let (single, _) = net.logits_and_embedding_batch(std::slice::from_ref(sample));
        prop_assert_eq!(batched.row(i), single.row(0), "row {}", i);
        let (_, _, fused) = net.feature_taps(sample).expect("GesIDNet has a fusion tap");
        prop_assert_eq!(embeddings.row(i), fused.as_slice(), "embedding row {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `logits_and_embedding_batch` is bit-exact with batches of one for
    /// batch sizes 1..=8 over clouds of mixed raw sizes, including
    /// sparse ones below the resampling width, with the attention fusion
    /// on and off.
    #[test]
    fn batch_rows_bit_exact_for_mixed_batches(
        seed in 0u64..200,
        batch in 1usize..=8,
        num_points in 16usize..=48,
        fusion in any::<bool>(),
    ) {
        let net = net(seed, 4, fusion);
        let inputs: Vec<ModelInput> = (0..batch)
            .map(|k| {
                // Mixed cloud sizes within one batch: 5..=64 raw points.
                let raw = 5 + ((seed as usize + 13 * k) % 60);
                input(seed ^ k as u64, raw, num_points, 0.1 * k as f64)
            })
            .collect();
        assert_rows_bit_exact(&net, &inputs)?;
    }

    /// Duplicated inputs (which the batched path deduplicates to share
    /// FPS/grouping work) still land exact per-row logits and
    /// embeddings.
    #[test]
    fn deduplicated_rows_stay_bit_exact(
        seed in 0u64..100,
        copies in 2usize..=5,
        fusion in any::<bool>(),
    ) {
        let net = net(seed, 3, fusion);
        let a = input(seed, 24, 24, 0.0);
        let b = input(seed + 1, 40, 24, 0.3);
        let mut inputs = vec![b.clone()];
        inputs.extend(std::iter::repeat_with(|| a.clone()).take(copies));
        inputs.push(b);
        assert_rows_bit_exact(&net, &inputs)?;
        // All duplicate rows are identical (they share one forward).
        let (batched, embeddings) = net.logits_and_embedding_batch(&inputs);
        let embeddings = embeddings.expect("GesIDNet has a fusion tap");
        for k in 2..=copies {
            prop_assert_eq!(batched.row(1), batched.row(k));
            prop_assert_eq!(embeddings.row(1), embeddings.row(k));
        }
        prop_assert_eq!(embeddings.row(0), embeddings.row(copies + 1));
    }
}
