//! Histogram correctness: property tests against a sorted-vec oracle
//! (the exact structure the histogram replaced in gp-serve), bucket
//! boundary cases, top-bucket saturation, and a multi-thread hammer
//! checking that no sample is lost.

use gp_telemetry::hist::{bucket_bounds, bucket_index, BUCKETS, SATURATION};
use gp_telemetry::{AtomicHistogram, Histogram};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Exact nearest-rank percentile over raw samples — the oracle. This
/// is what `SessionStats::latency_percentile` computed from its sample
/// ring before histograms replaced it.
fn oracle_percentile(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    let rank = (p / 100.0 * (samples.len() - 1) as f64).round() as usize;
    samples[rank]
}

/// Samples spanning the interesting ranges: exact buckets, mid-range
/// latencies, and the saturation zone.
fn gen_samples(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| match rng.gen_range(0u32..10) {
            0 => rng.gen_range(0u64..4),                   // exact buckets
            1..=6 => rng.gen_range(4u64..2_000_000),       // realistic µs latencies
            7 | 8 => rng.gen_range(2_000_000u64..1 << 35), // long tail
            _ => rng.gen_range(SATURATION - 10..u64::MAX), // saturation zone
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram percentile must bracket the oracle: never below
    /// the true quantile (upper-bound buckets), never more than 25%
    /// above it (sub-bucket resolution), and exact at the endpoints.
    #[test]
    fn percentile_brackets_sorted_vec_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..200);
        let mut samples = gen_samples(&mut rng, n);
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let exact = oracle_percentile(&mut samples, p);
            let approx = h.percentile(p).expect("non-empty");
            prop_assert!(approx >= exact, "p{p} under-reported: {approx} < {exact}");
            if exact < SATURATION {
                // Sub-bucket resolution bounds the error below the
                // top bucket; inside it only `<= max` can hold.
                let slack = exact / 4 + 1;
                prop_assert!(
                    approx <= exact.saturating_add(slack),
                    "p{p} over-reported: {approx} > {exact} + 25%"
                );
            } else {
                prop_assert!(approx <= *samples.last().unwrap());
            }
        }
        prop_assert_eq!(h.percentile(0.0).unwrap(), *samples.first().unwrap());
        prop_assert_eq!(h.percentile(100.0).unwrap(), *samples.last().unwrap());
    }

    /// Merging histograms is exactly recording the concatenation —
    /// unlike the old fixed ring, where merge order could overwrite
    /// arbitrary samples.
    #[test]
    fn merge_equals_recording_concatenation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let parts: Vec<Vec<u64>> = (0..rng.gen_range(2usize..6))
            .map(|_| {
                let n = rng.gen_range(0usize..60);
                gen_samples(&mut rng, n)
            })
            .collect();
        let mut merged = Histogram::new();
        let mut whole = Histogram::new();
        for part in &parts {
            let mut h = Histogram::new();
            for &v in part {
                h.record(v);
                whole.record(v);
            }
            merged.merge(&h);
        }
        prop_assert_eq!(&merged, &whole);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.count(), total as u64);
    }

    /// Sparse encode → decode is the identity, for any sample set.
    #[test]
    fn sparse_parts_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0usize..100);
        let samples = gen_samples(&mut rng, n);
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let back = Histogram::from_parts(
            h.nonzero_buckets().collect::<Vec<_>>(),
            h.sum(),
            h.min().unwrap_or(u64::MAX),
            h.max().unwrap_or(0),
        )
        .expect("indices in range");
        prop_assert_eq!(back, h);
    }
}

#[test]
fn bucket_boundaries_are_assigned_consistently() {
    // Walk every bucket edge: the lower bound maps into the bucket,
    // and its predecessor maps into the previous bucket.
    for i in 1..BUCKETS {
        let (lo, _) = bucket_bounds(i);
        assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
        assert_eq!(bucket_index(lo - 1), i - 1, "predecessor of bucket {i}");
    }
}

#[test]
fn top_bucket_saturates_not_panics() {
    let mut h = Histogram::new();
    for v in [SATURATION, SATURATION + 1, u64::MAX, u64::MAX - 1] {
        h.record(v);
    }
    assert_eq!(h.count(), 4);
    // All four landed in the top bucket; p100 is the exact max.
    assert_eq!(h.nonzero_buckets().count(), 1);
    assert_eq!(h.percentile(100.0), Some(u64::MAX));
}

#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;
    let h = Arc::new(AtomicHistogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                for _ in 0..PER_THREAD {
                    h.record(rng.gen_range(0u64..5_000_000));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("recorder thread");
    }
    let snap = h.snapshot();
    let expected = (THREADS * PER_THREAD) as u64;
    assert_eq!(h.count(), expected, "atomic total count");
    assert_eq!(snap.count(), expected, "snapshot bucket total");
    assert_eq!(
        snap.nonzero_buckets().map(|(_, c)| c).sum::<u64>(),
        expected,
        "bucket-wise total"
    );
}
