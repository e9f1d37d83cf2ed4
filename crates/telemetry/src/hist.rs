//! Fixed-bucket log-linear latency histograms.
//!
//! Values are microsecond magnitudes (`u64`). The bucket layout is
//! log-linear: each power-of-two octave is split into
//! `2^SUB_BITS = 4` equal sub-buckets, so the bucket upper bound is
//! never more than 25% above the true value. That bound is what makes
//! the histogram a safe percentile source: [`Histogram::percentile`]
//! reports a bucket's *upper* bound, so it never under-reports a
//! latency quantile.
//!
//! Unlike the sample-ring reservoir this replaces, histograms **merge
//! exactly** — merging is bucket-wise addition, so an aggregate over
//! evicted sessions weighs every sample once, regardless of order or
//! volume. Memory is bounded: [`BUCKETS`] counters, no per-sample
//! storage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS`
/// linear sub-buckets (relative error ≤ `1 / 2^SUB_BITS`).
pub const SUB_BITS: u32 = 2;
const BASE: u64 = 1 << SUB_BITS; // sub-buckets per octave

/// Number of octaves above the exact range before saturation.
const OCTAVES: usize = 36;

/// Total bucket count. Values `0..BASE` get exact buckets; each of the
/// `OCTAVES` octaves above that gets `BASE` sub-buckets; everything
/// past the last octave saturates into the top bucket.
pub const BUCKETS: usize = BASE as usize * (OCTAVES + 1);

/// Smallest value that saturates into the top bucket — the top
/// bucket's natural lower bound (~67 hours in µs); everything at or
/// above it shares that bucket.
pub const SATURATION: u64 = (2 * BASE - 1) << (OCTAVES - 1);

/// Maps a microsecond value to its bucket index.
pub fn bucket_index(value: u64) -> usize {
    if value < BASE {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // value >= BASE, so exp >= SUB_BITS
    let octave = (exp - SUB_BITS) as usize;
    let sub = ((value >> (exp - SUB_BITS)) - BASE) as usize;
    let index = BASE as usize * (octave + 1) + sub;
    index.min(BUCKETS - 1)
}

/// Inclusive `[lower, upper]` value range of a bucket. The top bucket's
/// upper bound is `u64::MAX` (it absorbs everything past saturation).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    let i = index as u64;
    if i < BASE {
        return (i, i);
    }
    let octave = (i - BASE) / BASE;
    let sub = (i - BASE) % BASE;
    let lower = (BASE + sub) << octave;
    if index == BUCKETS - 1 {
        return (lower, u64::MAX);
    }
    (lower, lower + (1 << octave) - 1)
}

/// A mergeable log-linear histogram of microsecond latencies.
///
/// Plain (non-atomic) variant: the right shape for per-session state
/// that already lives behind a lock, and for decoded snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one microsecond value.
    pub fn record(&mut self, micros: u64) {
        self.counts[bucket_index(micros)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(micros);
        self.min = self.min.min(micros);
        self.max = self.max.max(micros);
    }

    /// Records a [`Duration`] at microsecond resolution.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Merges another histogram into this one. Exact: bucket-wise
    /// addition, no sample is reweighed or dropped.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, µs (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value, µs.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded value, µs.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values, µs.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), µs.
    ///
    /// Returns the upper bound of the bucket holding the rank-`r`
    /// sample, `r = round(p/100 · (count-1))` — the same nearest-rank
    /// convention the old sorted-vec reservoir used, so quantiles never
    /// under-report. The exact tracked `max` caps the answer, so the
    /// top of the distribution is reported exactly.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = (p / 100.0 * (self.count - 1) as f64).round() as u64;
        // The extreme ranks are the tracked exact min/max.
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                // The bucket holds >= 1 sample, so `max` >= its lower
                // bound: clamping by the exact max stays in range.
                let (_, upper) = bucket_bounds(i);
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// [`Histogram::percentile`] as a [`Duration`].
    pub fn percentile_duration(&self, p: f64) -> Option<Duration> {
        self.percentile(p).map(Duration::from_micros)
    }

    /// Iterates non-empty buckets as `(index, count)` pairs (the sparse
    /// wire representation).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Reconstructs a histogram from its sparse parts (decoder side).
    ///
    /// `min`/`max` of an empty histogram are normalised so that
    /// decode(encode(h)) == h holds structurally.
    pub fn from_parts(
        buckets: impl IntoIterator<Item = (usize, u64)>,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        for (i, c) in buckets {
            if i >= BUCKETS {
                return None;
            }
            h.counts[i] += c;
            h.count = h.count.checked_add(c)?;
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        Some(h)
    }
}

/// Lock-free histogram for concurrent recording: the shape handed out
/// by the registry to hot paths. `record` is a few relaxed atomic RMW
/// ops; [`AtomicHistogram::snapshot`] materialises a plain
/// [`Histogram`] for percentile queries and export.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram::default()
    }

    /// Records one microsecond value (relaxed atomics; counts converge
    /// without ordering guarantees between buckets).
    pub fn record(&self, micros: u64) {
        self.counts[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.min.fetch_min(micros, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records a [`Duration`] at microsecond resolution.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Materialises a plain [`Histogram`] copy. Concurrent recorders
    /// may land between field loads, so the snapshot is a consistent
    /// *approximation* during writes and exact once writers quiesce.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = h.counts.iter().sum();
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        if h.count == 0 {
            h.min = u64::MAX;
            h.max = 0;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_range_buckets_are_exact() {
        for v in 0..BASE {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_tile_the_line() {
        // Every bucket's lower bound is the previous bucket's upper
        // bound + 1: no gaps, no overlaps.
        for i in 1..BUCKETS {
            let (lo, _) = bucket_bounds(i);
            let (_, prev_hi) = bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "bucket {i} does not tile");
        }
    }

    #[test]
    fn bounds_contain_their_values() {
        for v in [0, 1, 3, 4, 5, 7, 8, 100, 1000, 999_999, 1 << 30, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Below saturation the bucket upper bound is within 25% of the
        // true value (1 / 2^SUB_BITS).
        for shift in 0..30 {
            for off in [0u64, 1, 17] {
                let v = (1u64 << shift) + off;
                let (_, hi) = bucket_bounds(bucket_index(v));
                assert!((hi - v) as f64 <= 0.25 * v as f64, "error too big at {v}");
            }
        }
    }

    #[test]
    fn saturation_lands_in_top_bucket() {
        assert_eq!(bucket_index(SATURATION), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(SATURATION - 1), BUCKETS - 2);
        let (_, hi) = bucket_bounds(BUCKETS - 1);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn percentile_uses_exact_min_max() {
        let mut h = Histogram::new();
        h.record(999); // bucket upper bound would be 1023
        assert_eq!(h.percentile(0.0), Some(999));
        assert_eq!(h.percentile(100.0), Some(999));
        h.record(1_000_001);
        assert_eq!(h.percentile(100.0), Some(1_000_001));
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 5, 5, 900, 40_000] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 900, 7_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn sparse_roundtrip_preserves_everything() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 4, 77, 1 << 20, SATURATION + 9] {
            h.record(v);
        }
        let parts: Vec<_> = h.nonzero_buckets().collect();
        let back =
            Histogram::from_parts(parts, h.sum(), h.min().unwrap(), h.max().unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_parts_rejects_out_of_range_buckets() {
        assert!(Histogram::from_parts([(BUCKETS, 1)], 0, 0, 0).is_none());
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [9u64, 81, 729, 6561] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
        assert_eq!(a.count(), 4);
    }
}
