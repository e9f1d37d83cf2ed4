//! Sample encoding: preprocessed gesture samples → model inputs.
//!
//! One [`ModelInput`] carries all three representations the model zoo
//! needs, so a dataset is encoded once and every architecture reads its
//! own view:
//!
//! * `points`/`positions` — a fixed-size point set with per-point
//!   features (GesIDNet, PointNet),
//! * `profile` — a range×Doppler occupancy histogram (profile CNN),
//! * `sequence` — per-frame summary features (temporal LSTM).

use gp_nn::Matrix;
use gp_pointcloud::sampling::resample_to;
use gp_pointcloud::{PointCloud, Vec3};
use rand::Rng;

/// Per-point feature count: raw `(x, y, z)`, Doppler, normalised SNR.
///
/// Coordinates are deliberately *not* centred: the paper feeds raw point
/// clouds, so absolute geometry (user height, arm span, stance) stays
/// visible to the identifier; robustness to position shifts comes from
/// training-time augmentation (paper Fig. 12).
pub const POINT_FEATURES: usize = 5;

/// Encoding options.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Points per sample after resampling.
    pub num_points: usize,
    /// Range×Doppler profile grid (rows = Doppler bins, cols = range bins).
    pub profile_shape: (usize, usize),
    /// Profile extents: half Doppler span (m/s) and range span around the
    /// cloud centroid (m).
    pub doppler_span: f64,
    /// Range window half-width around the centroid (m).
    pub range_span: f64,
    /// Maximum sequence length (frames) for the temporal view.
    pub max_frames: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            num_points: 96,
            profile_shape: (16, 24),
            doppler_span: 2.7,
            range_span: 0.96,
            max_frames: 40,
        }
    }
}

impl gp_codec::Encode for FeatureConfig {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("num_points", self.num_points.encode()),
            ("profile_shape", self.profile_shape.encode()),
            ("doppler_span", self.doppler_span.encode()),
            ("range_span", self.range_span.encode()),
            ("max_frames", self.max_frames.encode()),
        ])
    }
}

impl gp_codec::Decode for FeatureConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(FeatureConfig {
            num_points: value.get("num_points")?,
            profile_shape: value.get("profile_shape")?,
            doppler_span: value.get("doppler_span")?,
            range_span: value.get("range_span")?,
            max_frames: value.get("max_frames")?,
        })
    }
}

/// An encoded sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInput {
    /// `(num_points × POINT_FEATURES)` matrix.
    pub points: Matrix,
    /// Raw world positions, parallel to `points` rows.
    pub positions: Vec<Vec3>,
    /// Flattened Doppler×range histogram.
    pub profile: Vec<f32>,
    /// Profile shape `(doppler_bins, range_bins)`.
    pub profile_shape: (usize, usize),
    /// Per-frame summary features (8 per frame).
    pub sequence: Vec<Vec<f32>>,
}

/// Width of each per-frame summary vector in [`ModelInput::sequence`].
pub const SEQUENCE_FEATURES: usize = 8;

/// Encodes a preprocessed cloud (and optional temporal view) into a
/// [`ModelInput`].
pub fn encode<R: Rng>(
    cloud: &PointCloud,
    frame_clouds: &[PointCloud],
    config: &FeatureConfig,
    rng: &mut R,
) -> ModelInput {
    let centroid = cloud.centroid().unwrap_or(Vec3::ZERO);
    let fixed = resample_to(cloud, config.num_points, rng);

    let mut rows = Vec::with_capacity(config.num_points);
    let mut positions = Vec::with_capacity(config.num_points);
    for p in fixed.iter() {
        positions.push(p.position);
        rows.push(vec![
            p.position.x as f32,
            p.position.y as f32,
            p.position.z as f32,
            p.doppler as f32,
            ((1.0 + p.snr.max(0.0)).ln() / 10.0) as f32,
        ]);
    }
    let points = Matrix::from_rows(&rows);

    // Concentrated position–Doppler profile (mGesNes/mSeeNet input): a
    // 2-D histogram of (range-offset, Doppler), intensity-weighted.
    let (dop_bins, rng_bins) = config.profile_shape;
    let mut profile = vec![0.0f32; dop_bins * rng_bins];
    for p in cloud.iter() {
        let range_off = (p.position - centroid).y; // depth axis offset
        let rb = (((range_off + config.range_span) / (2.0 * config.range_span)) * rng_bins as f64)
            .floor();
        let db = (((p.doppler + config.doppler_span) / (2.0 * config.doppler_span))
            * dop_bins as f64)
            .floor();
        if rb < 0.0 || db < 0.0 {
            continue;
        }
        let (rb, db) = (rb as usize, db as usize);
        if rb >= rng_bins || db >= dop_bins {
            continue;
        }
        profile[db * rng_bins + rb] += ((1.0 + p.snr.max(0.0)).ln() / 10.0) as f32;
    }

    // Temporal summary: per frame (count, centroid offset xyz, mean |v|,
    // mean v, spatial spread, max snr-norm).
    let mut sequence = Vec::with_capacity(frame_clouds.len().min(config.max_frames));
    for fc in frame_clouds.iter().take(config.max_frames) {
        if fc.is_empty() {
            sequence.push(vec![0.0; SEQUENCE_FEATURES]);
            continue;
        }
        let c = fc.centroid().expect("non-empty") - centroid;
        let n = fc.len() as f64;
        let mean_abs_v = fc.iter().map(|p| p.doppler.abs()).sum::<f64>() / n;
        let mean_v = fc.iter().map(|p| p.doppler).sum::<f64>() / n;
        let spread = fc
            .iter()
            .map(|p| (p.position - centroid - c).norm())
            .sum::<f64>()
            / n;
        let max_snr = fc
            .iter()
            .map(|p| (1.0 + p.snr.max(0.0)).ln() / 10.0)
            .fold(0.0, f64::max);
        sequence.push(vec![
            (n / 20.0) as f32,
            c.x as f32,
            c.y as f32,
            c.z as f32,
            mean_abs_v as f32,
            mean_v as f32,
            spread as f32,
            max_snr as f32,
        ]);
    }
    if sequence.is_empty() {
        sequence.push(vec![0.0; SEQUENCE_FEATURES]);
    }

    ModelInput {
        points,
        positions,
        profile,
        profile_shape: config.profile_shape,
        sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_pointcloud::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cloud() -> PointCloud {
        (0..40)
            .map(|i| {
                Point::new(
                    Vec3::new(0.02 * i as f64, 1.2 + 0.01 * i as f64, 1.0),
                    (i as f64 * 0.11).sin(),
                    10.0 + i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn shapes_are_fixed() {
        let cfg = FeatureConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode(&cloud(), &[], &cfg, &mut rng);
        assert_eq!(input.points.rows(), cfg.num_points);
        assert_eq!(input.points.cols(), POINT_FEATURES);
        assert_eq!(input.positions.len(), cfg.num_points);
        assert_eq!(input.profile.len(), 16 * 24);
        assert_eq!(input.sequence.len(), 1, "no frames → one zero step");
    }

    #[test]
    fn positions_are_raw() {
        // Absolute geometry must survive encoding (paper feeds raw
        // clouds; see POINT_FEATURES docs).
        let cfg = FeatureConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode(&cloud(), &[], &cfg, &mut rng);
        let mean = input.positions.iter().fold(Vec3::ZERO, |a, p| a + *p)
            * (1.0 / input.positions.len() as f64);
        let true_centroid = cloud().centroid().unwrap();
        assert!(
            mean.distance(true_centroid) < 0.3,
            "raw positions expected, got mean {mean:?}"
        );
    }

    #[test]
    fn profile_collects_mass() {
        let cfg = FeatureConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode(&cloud(), &[], &cfg, &mut rng);
        let mass: f32 = input.profile.iter().sum();
        assert!(mass > 0.0);
    }

    #[test]
    fn sequence_respects_max_frames() {
        let cfg = FeatureConfig {
            max_frames: 5,
            ..FeatureConfig::default()
        };
        let frames = vec![cloud(); 12];
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode(&cloud(), &frames, &cfg, &mut rng);
        assert_eq!(input.sequence.len(), 5);
        assert_eq!(input.sequence[0].len(), SEQUENCE_FEATURES);
    }

    #[test]
    fn empty_cloud_still_encodes() {
        let cfg = FeatureConfig::default();
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode(&PointCloud::new(), &[], &cfg, &mut rng);
        assert_eq!(input.points.rows(), cfg.num_points);
        assert!(input.profile.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn doppler_preserved_in_features() {
        let cfg = FeatureConfig {
            num_points: 4,
            ..FeatureConfig::default()
        };
        let c: PointCloud = (0..4)
            .map(|i| Point::new(Vec3::new(i as f64, 1.0, 1.0), 1.5, 5.0))
            .collect();
        let mut rng = StdRng::seed_from_u64(0);
        let input = encode(&c, &[], &cfg, &mut rng);
        for r in 0..4 {
            assert!((input.points.at(r, 3) - 1.5).abs() < 1e-6);
        }
    }
}
