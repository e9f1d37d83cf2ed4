//! The enrollment gallery: per-user embedding centroids and open-set
//! nearest-gallery identification.
//!
//! Enrollment accumulates the GesIDNet fusion feature (`Y^k` in the
//! paper) of each enrolled sample into a per-user running sum; the
//! user's template is the centroid of their enrolled embeddings.
//! Identification finds the nearest centroid by Euclidean distance and
//! accepts only when that distance stays at or below the gallery
//! threshold — everything farther is an open-set rejection ("not in
//! gallery"), which is what separates identification from the
//! closed-set classifier: the classifier must answer with *some*
//! enrolled user, the gallery may answer *nobody you know*.
//!
//! The threshold is not a magic number. [`EmbeddingGallery::calibrate`]
//! pools genuine and impostor distances over a labeled probe set,
//! builds the ROC curve with gp-eval, and picks the distance bound via
//! [`RocEerSummary::threshold_at_far`] so the false-accept rate on the
//! calibration split stays under a chosen target.
//!
//! Persistence: per-user sums are stored as little-endian `f64` bytes
//! (not decimal text), so a gallery round-trips bit-identically through
//! the artifact layer and golden fixtures stay byte-stable.

use gp_codec::{Decode, DecodeError, Encode, Value};
use gp_eval::RocEerSummary;
use std::collections::BTreeMap;

/// Gallery payload schema version (inside the artifact envelope).
pub const GALLERY_VERSION: i64 = 1;

/// Errors from gallery mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GalleryError {
    /// Embedding length differs from the gallery's established
    /// dimension.
    DimMismatch {
        /// Dimension the first enrollment established.
        expected: usize,
        /// Dimension of the offending embedding.
        got: usize,
    },
    /// An empty embedding (or empty user name) cannot be enrolled.
    Empty,
}

impl std::fmt::Display for GalleryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GalleryError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "embedding dimension {got} does not match gallery dimension {expected}"
                )
            }
            GalleryError::Empty => write!(f, "empty embedding or user name"),
        }
    }
}

impl std::error::Error for GalleryError {}

/// One user's enrollment state: the running sum of enrolled embeddings
/// (kept in `f64` so centroids do not drift with enrollment order) and
/// how many samples went in.
#[derive(Debug, Clone, PartialEq)]
pub struct GalleryEntry {
    sum: Vec<f64>,
    count: u64,
}

impl GalleryEntry {
    /// Number of samples enrolled for this user.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The user's template: the mean of their enrolled embeddings.
    pub fn centroid(&self) -> Vec<f32> {
        let n = self.count.max(1) as f64;
        self.sum.iter().map(|s| (s / n) as f32).collect()
    }
}

/// The nearest gallery user to a probe, accepted or not.
#[derive(Debug, Clone, PartialEq)]
pub struct GalleryMatch {
    /// The nearest enrolled user.
    pub user: String,
    /// Euclidean distance from the probe to that user's centroid.
    pub distance: f64,
}

/// Outcome of an open-set identification.
#[derive(Debug, Clone, PartialEq)]
pub enum Identification {
    /// The nearest centroid was within the gallery threshold.
    Accepted(GalleryMatch),
    /// No centroid was close enough (or the gallery is empty). The
    /// nearest candidate is reported for diagnostics when one exists.
    Rejected(Option<GalleryMatch>),
}

impl Identification {
    /// The accepted user, if any.
    pub fn user(&self) -> Option<&str> {
        match self {
            Identification::Accepted(m) => Some(&m.user),
            Identification::Rejected(_) => None,
        }
    }

    /// Whether the probe was accepted as an enrolled user.
    pub fn accepted(&self) -> bool {
        matches!(self, Identification::Accepted(_))
    }

    /// The nearest match evaluated, accepted or not.
    pub fn nearest(&self) -> Option<&GalleryMatch> {
        match self {
            Identification::Accepted(m) => Some(m),
            Identification::Rejected(m) => m.as_ref(),
        }
    }
}

/// Per-user centroids plus the open-set acceptance threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingGallery {
    /// 0 until the first enrollment fixes it.
    dim: usize,
    /// Maximum accepted centroid distance; `+inf` (the default) makes
    /// the gallery closed-set — the nearest user always wins.
    threshold: f64,
    entries: BTreeMap<String, GalleryEntry>,
}

impl Default for EmbeddingGallery {
    fn default() -> Self {
        EmbeddingGallery::new()
    }
}

/// Euclidean distance, accumulated in `f64`.
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

impl EmbeddingGallery {
    /// An empty, closed-set (`threshold = +inf`) gallery.
    pub fn new() -> Self {
        EmbeddingGallery {
            dim: 0,
            threshold: f64::INFINITY,
            entries: BTreeMap::new(),
        }
    }

    /// Embedding dimension, 0 while the gallery is empty.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of enrolled users.
    pub fn users(&self) -> usize {
        self.entries.len()
    }

    /// Total enrolled samples across all users.
    pub fn samples(&self) -> u64 {
        self.entries.values().map(GalleryEntry::count).sum()
    }

    /// The enrolled user names, sorted.
    pub fn user_names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// One user's enrollment state.
    pub fn entry(&self, user: &str) -> Option<&GalleryEntry> {
        self.entries.get(user)
    }

    /// Current acceptance threshold (maximum centroid distance).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Sets the acceptance threshold directly. `+inf` accepts every
    /// nearest match (closed-set); `-inf` rejects everything.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn set_threshold(&mut self, threshold: f64) {
        assert!(!threshold.is_nan(), "gallery threshold must not be NaN");
        self.threshold = threshold;
    }

    /// Folds one embedding into `user`'s template. Returns the user's
    /// sample count after enrollment.
    ///
    /// # Errors
    ///
    /// [`GalleryError::Empty`] for an empty name or embedding,
    /// [`GalleryError::DimMismatch`] when the embedding length differs
    /// from the dimension the first enrollment established.
    pub fn enroll(&mut self, user: &str, embedding: &[f32]) -> Result<u64, GalleryError> {
        if user.is_empty() || embedding.is_empty() {
            return Err(GalleryError::Empty);
        }
        if self.dim == 0 {
            self.dim = embedding.len();
        } else if embedding.len() != self.dim {
            return Err(GalleryError::DimMismatch {
                expected: self.dim,
                got: embedding.len(),
            });
        }
        let entry = self
            .entries
            .entry(user.to_owned())
            .or_insert_with(|| GalleryEntry {
                sum: vec![0.0; embedding.len()],
                count: 0,
            });
        for (s, e) in entry.sum.iter_mut().zip(embedding) {
            *s += f64::from(*e);
        }
        entry.count += 1;
        Ok(entry.count)
    }

    /// The nearest enrolled centroid to `probe`, threshold ignored.
    /// `None` when the gallery is empty or the dimension differs.
    pub fn nearest(&self, probe: &[f32]) -> Option<GalleryMatch> {
        if probe.len() != self.dim {
            return None;
        }
        self.entries
            .iter()
            .map(|(user, entry)| GalleryMatch {
                user: user.clone(),
                distance: euclidean(probe, &entry.centroid()),
            })
            .min_by(|a, b| a.distance.total_cmp(&b.distance))
    }

    /// Open-set identification: the nearest centroid wins iff its
    /// distance stays at or below the threshold.
    pub fn identify(&self, probe: &[f32]) -> Identification {
        match self.nearest(probe) {
            Some(m) if m.distance <= self.threshold => Identification::Accepted(m),
            other => Identification::Rejected(other),
        }
    }

    /// Calibrates the acceptance threshold from a labeled probe split.
    ///
    /// Every (probe, enrolled user) pair contributes one verification
    /// score `-distance(probe, centroid)` (negated so higher = more
    /// similar, the polarity gp-eval expects); the pair is genuine when
    /// the probe's label matches the enrolled user. Probes labeled with
    /// never-enrolled users contribute impostor pairs only — exactly
    /// the open-set threat model. The threshold becomes the distance
    /// bound whose measured false-accept rate stays at or below
    /// `target_far`, and the full ROC/EER summary is returned for
    /// reporting.
    ///
    /// # Panics
    ///
    /// Panics when the gallery is empty, `probes` is empty, a probe's
    /// dimension differs from the gallery's, or `target_far` is
    /// negative (see [`RocEerSummary::threshold_at_far`]).
    pub fn calibrate(
        &mut self,
        scenario: &str,
        probes: &[(String, Vec<f32>)],
        target_far: f64,
    ) -> RocEerSummary {
        assert!(
            !self.entries.is_empty(),
            "cannot calibrate an empty gallery"
        );
        assert!(!probes.is_empty(), "cannot calibrate without probes");
        let centroids: Vec<(&String, Vec<f32>)> = self
            .entries
            .iter()
            .map(|(user, entry)| (user, entry.centroid()))
            .collect();
        let mut scores = Vec::with_capacity(probes.len() * centroids.len());
        let mut positives = Vec::with_capacity(scores.capacity());
        for (label, probe) in probes {
            assert_eq!(probe.len(), self.dim, "probe dimension mismatch");
            for (user, centroid) in &centroids {
                scores.push(-euclidean(probe, centroid));
                positives.push(*user == label);
            }
        }
        let summary = RocEerSummary::from_scores(scenario, &scores, &positives);
        // Scores are negated distances: score >= t  <=>  distance <= -t.
        self.threshold = -summary.threshold_at_far(target_far);
        summary
    }
}

fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>, DecodeError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(DecodeError::new(format!(
            "embedding sum byte length {} is not a multiple of 8",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// The threshold may legitimately be infinite, which JSON floats cannot
/// carry; non-finite values persist as the strings `"inf"` / `"-inf"`.
fn encode_threshold(t: f64) -> Value {
    if t.is_finite() {
        Value::Float(t)
    } else if t > 0.0 {
        Value::Str("inf".into())
    } else {
        Value::Str("-inf".into())
    }
}

fn decode_threshold(value: &Value) -> Result<f64, DecodeError> {
    match value {
        Value::Str(s) if s == "inf" => Ok(f64::INFINITY),
        Value::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
        other => f64::decode(other),
    }
}

impl Encode for EmbeddingGallery {
    fn encode(&self) -> Value {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|(user, entry)| {
                Value::record([
                    ("user", user.encode()),
                    ("sum", Value::Bytes(f64s_to_bytes(&entry.sum))),
                    ("count", entry.count.encode()),
                ])
            })
            .collect();
        Value::record([
            ("version", Value::Int(GALLERY_VERSION)),
            ("dim", self.dim.encode()),
            ("threshold", encode_threshold(self.threshold)),
            ("entries", Value::Seq(entries)),
        ])
    }
}

impl Decode for EmbeddingGallery {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        let version: i64 = value.get("version")?;
        if version != GALLERY_VERSION {
            return Err(DecodeError::new(format!(
                "unsupported gallery version {version} (expected {GALLERY_VERSION})"
            )));
        }
        let dim: usize = value.get("dim")?;
        let threshold = decode_threshold(value.field("threshold")?)?;
        // The binary envelope carries NaN floats; a gallery never holds
        // one (`set_threshold` refuses it).
        if threshold.is_nan() {
            return Err(DecodeError::new("gallery threshold is NaN"));
        }
        let mut entries = BTreeMap::new();
        for raw in value.get::<Vec<Value>>("entries")? {
            let user: String = raw.get("user")?;
            let sum = bytes_to_f64s(
                raw.field("sum")?
                    .as_bytes()
                    .map_err(|e| e.in_field("sum"))?,
            )?;
            let count: u64 = raw.get("count")?;
            if sum.len() != dim {
                return Err(DecodeError::new(format!(
                    "entry for {user:?} has dimension {} in a dim-{dim} gallery",
                    sum.len()
                )));
            }
            if count == 0 {
                return Err(DecodeError::new(format!(
                    "entry for {user:?} has zero enrolled samples"
                )));
            }
            if entries
                .insert(user.clone(), GalleryEntry { sum, count })
                .is_some()
            {
                return Err(DecodeError::new(format!("duplicate gallery user {user:?}")));
            }
        }
        Ok(EmbeddingGallery {
            dim,
            threshold,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(dim: usize, seed: u64) -> Vec<f32> {
        // Cheap deterministic pseudo-embedding.
        (0..dim)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn centroid_is_the_mean_of_enrollments() {
        let mut g = EmbeddingGallery::new();
        g.enroll("ada", &[1.0, 0.0]).unwrap();
        g.enroll("ada", &[3.0, 2.0]).unwrap();
        assert_eq!(g.entry("ada").unwrap().centroid(), vec![2.0, 1.0]);
        assert_eq!(g.users(), 1);
        assert_eq!(g.samples(), 2);
    }

    #[test]
    fn closed_set_identify_picks_the_nearest_user() {
        let mut g = EmbeddingGallery::new();
        g.enroll("ada", &[0.0, 0.0]).unwrap();
        g.enroll("bob", &[10.0, 0.0]).unwrap();
        let id = g.identify(&[1.0, 0.5]);
        assert_eq!(id.user(), Some("ada"));
        assert!(id.accepted());
    }

    #[test]
    fn open_set_threshold_rejects_distant_probes() {
        let mut g = EmbeddingGallery::new();
        g.enroll("ada", &[0.0, 0.0]).unwrap();
        g.set_threshold(1.0);
        assert!(g.identify(&[0.5, 0.5]).accepted());
        let far = g.identify(&[5.0, 5.0]);
        assert!(!far.accepted());
        // The rejection still names the nearest candidate.
        assert_eq!(far.nearest().map(|m| m.user.as_str()), Some("ada"));
        // -inf rejects even a perfect match.
        g.set_threshold(f64::NEG_INFINITY);
        assert!(!g.identify(&[0.0, 0.0]).accepted());
    }

    #[test]
    fn dimension_is_enforced() {
        let mut g = EmbeddingGallery::new();
        g.enroll("ada", &[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(
            g.enroll("bob", &[1.0]),
            Err(GalleryError::DimMismatch {
                expected: 3,
                got: 1
            })
        );
        assert_eq!(g.enroll("", &[1.0, 2.0, 3.0]), Err(GalleryError::Empty));
        assert_eq!(g.nearest(&[0.0]), None);
    }

    #[test]
    fn calibration_meets_the_far_bound_on_the_split() {
        let mut g = EmbeddingGallery::new();
        // Three enrolled users in well-separated corners.
        for (user, base) in [("u0", 0.0f32), ("u1", 8.0), ("u2", 16.0)] {
            for k in 0..4 {
                let jitter = k as f32 * 0.05;
                g.enroll(user, &[base + jitter, -base + jitter]).unwrap();
            }
        }
        // Probe split: genuine probes near their centroid, plus an
        // impostor user nowhere near anyone.
        let mut probes = Vec::new();
        for (user, base) in [("u0", 0.0f32), ("u1", 8.0), ("u2", 16.0)] {
            for k in 0..3 {
                let jitter = 0.1 + k as f32 * 0.07;
                probes.push((user.to_owned(), vec![base + jitter, -base - jitter]));
            }
        }
        for k in 0..3 {
            probes.push(("ghost".to_owned(), vec![40.0 + k as f32, 40.0]));
        }

        let target_far = 0.05;
        let summary = g.calibrate("toy", &probes, target_far);
        assert!(g.threshold().is_finite());
        assert!(summary.eer < 0.5);

        // Re-measure the FAR on the same split: impostor pairs accepted
        // at the calibrated threshold must stay within the target.
        let mut impostor_pairs = 0usize;
        let mut false_accepts = 0usize;
        for (label, probe) in &probes {
            for user in g.user_names().map(str::to_owned).collect::<Vec<_>>() {
                if user != *label {
                    impostor_pairs += 1;
                    let d = euclidean(probe, &g.entry(&user).unwrap().centroid());
                    if d <= g.threshold() {
                        false_accepts += 1;
                    }
                }
            }
        }
        assert!(
            false_accepts as f64 / impostor_pairs as f64 <= target_far,
            "measured FAR {false_accepts}/{impostor_pairs} exceeds {target_far}"
        );
        // Genuine probes still get in.
        for (label, probe) in &probes {
            if label != "ghost" {
                assert_eq!(g.identify(probe).user(), Some(label.as_str()), "{label}");
            }
        }
        // The ghost is rejected open-set.
        assert!(!g.identify(&probes.last().unwrap().1).accepted());
    }

    #[test]
    fn unreachable_far_rejects_everything() {
        let mut g = EmbeddingGallery::new();
        g.enroll("a", &[0.0]).unwrap();
        g.enroll("b", &[0.0]).unwrap();
        // Identical centroids: genuine and impostor distances tie, so
        // no finite threshold meets FAR 0 and calibration slams shut.
        let probes = vec![("a".to_owned(), vec![0.0f32])];
        g.calibrate("tied", &probes, 0.0);
        assert_eq!(g.threshold(), f64::NEG_INFINITY);
        assert!(!g.identify(&[0.0]).accepted());
    }

    #[test]
    fn gallery_roundtrips_bit_identically() {
        let mut g = EmbeddingGallery::new();
        for seed in 0..5u64 {
            let user = format!("user-{}", seed % 3);
            g.enroll(&user, &seeded(16, seed)).unwrap();
        }
        g.set_threshold(0.724218);
        let back: EmbeddingGallery = EmbeddingGallery::decode(&g.encode()).expect("decode");
        assert_eq!(back, g);
        // Including through JSON text (the golden-fixture path) and the
        // binary codec, with non-finite thresholds intact.
        g.set_threshold(f64::INFINITY);
        let text = gp_codec::encode_to_json(&g).unwrap();
        let via_json: EmbeddingGallery = gp_codec::decode_from_json(&text).unwrap();
        assert_eq!(via_json, g);
        let bytes = gp_codec::encode_to_binary(&g).unwrap();
        let via_bin: EmbeddingGallery = gp_codec::decode_from_binary(&bytes).unwrap();
        assert_eq!(via_bin, g);
    }

    #[test]
    fn corrupt_galleries_fail_typed() {
        let mut g = EmbeddingGallery::new();
        g.enroll("ada", &[1.0, 2.0]).unwrap();
        let good = g.encode();

        let mut wrong_version = good.clone();
        if let Value::Map(m) = &mut wrong_version {
            m.insert("version".into(), Value::Int(99));
        }
        assert!(EmbeddingGallery::decode(&wrong_version).is_err());

        let mut torn_sum = good.clone();
        if let Value::Map(m) = &mut torn_sum {
            if let Some(Value::Seq(entries)) = m.get_mut("entries") {
                if let Value::Map(e) = &mut entries[0] {
                    e.insert("sum".into(), Value::Bytes(vec![0u8; 9]));
                }
            }
        }
        assert!(EmbeddingGallery::decode(&torn_sum).is_err());

        // JSON cannot carry a NaN threshold, but the binary envelope can.
        let mut nan_threshold = good.clone();
        if let Value::Map(m) = &mut nan_threshold {
            m.insert("threshold".into(), Value::Float(f64::NAN));
        }
        let bytes = gp_codec::to_binary(&nan_threshold).unwrap();
        let err = gp_codec::decode_from_binary::<EmbeddingGallery>(&bytes).unwrap_err();
        assert!(err.to_string().contains("NaN"), "{err}");
    }
}
