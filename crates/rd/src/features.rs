//! Feature extraction: range-Doppler frames → model inputs.
//!
//! The RD backend feeds `RdNet` two views of one segment (the
//! AWR1642-style conv+LSTM split):
//!
//! * `map` — a time-aggregated log-power map, downsampled to a fixed
//!   conv-friendly shape,
//! * `sequence` — per-frame summary features for the recurrent path.
//!
//! Everything here is pure `f64` accumulation in fixed index order, so
//! extraction is bit-deterministic and embarrassingly parallel: the
//! multi-threaded [`extract_all`] is bit-identical to the sequential
//! path at any worker count.

use crate::frame::RdFrame;
use crate::sample::RdLabeledSample;
use gp_runtime::scope_map;

/// Width of each per-frame summary vector in [`RdInput::sequence`].
pub const RD_SEQUENCE_FEATURES: usize = 8;

/// RD feature-encoding options.
#[derive(Debug, Clone, PartialEq)]
pub struct RdFeatureConfig {
    /// Aggregated map shape `(doppler, range)`; both divisible by 4
    /// (two conv pooling stages).
    pub map_shape: (usize, usize),
    /// Maximum sequence length (frames) for the recurrent view.
    pub max_frames: usize,
    /// Doppler rows around zero velocity excluded from the "moving"
    /// energy statistics (the clutter notch).
    pub guard_rows: usize,
}

impl Default for RdFeatureConfig {
    fn default() -> Self {
        RdFeatureConfig {
            map_shape: (16, 24),
            max_frames: 40,
            guard_rows: 1,
        }
    }
}

impl gp_codec::Encode for RdFeatureConfig {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("map_shape", self.map_shape.encode()),
            ("max_frames", self.max_frames.encode()),
            ("guard_rows", self.guard_rows.encode()),
        ])
    }
}

impl gp_codec::Decode for RdFeatureConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(RdFeatureConfig {
            map_shape: value.get("map_shape")?,
            max_frames: value.get("max_frames")?,
            guard_rows: value.get("guard_rows")?,
        })
    }
}

/// An encoded RD sample.
#[derive(Debug, Clone, PartialEq)]
pub struct RdInput {
    /// Flattened aggregated log-power map (`map_shape.0 × map_shape.1`).
    pub map: Vec<f32>,
    /// Map shape `(doppler, range)`.
    pub map_shape: (usize, usize),
    /// Per-frame summary features ([`RD_SEQUENCE_FEATURES`] wide).
    pub sequence: Vec<Vec<f32>>,
}

fn log_power(p: f64) -> f64 {
    (1.0 + p).ln()
}

/// Log-power of one frame split into `(total, moving)` where "moving"
/// excludes the `guard_rows` rows around zero Doppler.
fn frame_energy(frame: &RdFrame, guard_rows: usize) -> (f64, f64) {
    let centre = frame.doppler_bins / 2;
    let mut total = 0.0;
    let mut moving = 0.0;
    for d in 0..frame.doppler_bins {
        let off_dc = d.abs_diff(centre) > guard_rows;
        for r in 0..frame.range_bins {
            let lp = log_power(frame.power[d * frame.range_bins + r]);
            total += lp;
            if off_dc {
                moving += lp;
            }
        }
    }
    (total, moving)
}

/// Motion energy of a frame — the quantity RD segmentation thresholds.
pub fn motion_energy(frame: &RdFrame, guard_rows: usize) -> f64 {
    frame_energy(frame, guard_rows).1
}

/// Encodes a frame sequence into an [`RdInput`].
pub fn extract(frames: &[RdFrame], config: &RdFeatureConfig) -> RdInput {
    let (md, mr) = config.map_shape;
    let mut map64 = vec![0.0f64; md * mr];

    for frame in frames {
        let (fd, fr) = frame.shape();
        for d in 0..fd {
            let td = d * md / fd.max(1);
            for r in 0..fr {
                let tr = r * mr / fr.max(1);
                map64[td.min(md - 1) * mr + tr.min(mr - 1)] += log_power(frame.power[d * fr + r]);
            }
        }
    }
    let norm = 1.0 / frames.len().max(1) as f64;
    let map: Vec<f32> = map64.iter().map(|v| (v * norm) as f32).collect();

    let mut sequence = Vec::with_capacity(frames.len().min(config.max_frames));
    for frame in frames.iter().take(config.max_frames) {
        sequence.push(frame_summary(frame, config));
    }
    if sequence.is_empty() {
        sequence.push(vec![0.0; RD_SEQUENCE_FEATURES]);
    }

    RdInput {
        map,
        map_shape: config.map_shape,
        sequence,
    }
}

fn frame_summary(frame: &RdFrame, config: &RdFeatureConfig) -> Vec<f32> {
    let (fd, fr) = frame.shape();
    let centre = fd as f64 / 2.0;
    let cells = (fd * fr) as f64;
    let (total, moving) = frame_energy(frame, config.guard_rows);

    // Power-weighted first and second moments of the log-power mass
    // along both axes.
    let mut mass = 0.0;
    let mut mean_d = 0.0;
    let mut mean_r = 0.0;
    let mut peak = 0.0f64;
    for d in 0..fd {
        for r in 0..fr {
            let lp = log_power(frame.power[d * fr + r]);
            mass += lp;
            mean_d += lp * (d as f64 - centre);
            mean_r += lp * r as f64;
            peak = peak.max(lp);
        }
    }
    let (mean_d, mean_r) = if mass > 0.0 {
        (mean_d / mass, mean_r / mass)
    } else {
        (0.0, 0.0)
    };
    let mut var_d = 0.0;
    let mut var_r = 0.0;
    for d in 0..fd {
        for r in 0..fr {
            let lp = log_power(frame.power[d * fr + r]);
            var_d += lp * (d as f64 - centre - mean_d).powi(2);
            var_r += lp * (r as f64 - mean_r).powi(2);
        }
    }
    let (var_d, var_r) = if mass > 0.0 {
        (var_d / mass, var_r / mass)
    } else {
        (0.0, 0.0)
    };

    vec![
        (total / cells) as f32,
        (moving / total.max(1e-12)) as f32,
        (mean_d / centre.max(1.0)) as f32,
        (var_d.sqrt() / centre.max(1.0)) as f32,
        (mean_r / fr as f64) as f32,
        (var_r.sqrt() / fr as f64) as f32,
        peak as f32,
        (moving / cells) as f32,
    ]
}

/// Encodes one labeled sample.
pub fn extract_sample(sample: &RdLabeledSample, config: &RdFeatureConfig) -> RdInput {
    extract(&sample.frames, config)
}

/// Encodes a batch across `threads` threads (`0` and `1` run on the
/// caller). Per-sample extraction is pure and outputs are returned in
/// input order, so the result is bit-identical for every thread count
/// (guarded by the property tests).
pub fn extract_all(
    samples: &[&RdLabeledSample],
    config: &RdFeatureConfig,
    threads: usize,
) -> Vec<RdInput> {
    if threads <= 1 || samples.len() <= 1 {
        return samples.iter().map(|s| extract_sample(s, config)).collect();
    }
    scope_map(threads, samples.to_vec(), |_, s| extract_sample(s, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 16 × 64 map, zero except for the `(row, col, power)` cells.
    fn toy_frame(hot: &[(usize, usize, f64)], t: f64) -> RdFrame {
        let mut f = RdFrame::zeros(16, 64, t);
        for &(d, r, p) in hot {
            f.power[d * f.range_bins + r] = p;
        }
        f
    }

    #[test]
    fn shapes_are_fixed() {
        let fc = RdFeatureConfig::default();
        let frames = vec![toy_frame(&[(3, 10, 5.0)], 0.0); 6];
        let input = extract(&frames, &fc);
        assert_eq!(input.map.len(), 16 * 24);
        assert_eq!(input.map_shape, (16, 24));
        assert_eq!(input.sequence.len(), 6);
        assert_eq!(input.sequence[0].len(), RD_SEQUENCE_FEATURES);
    }

    #[test]
    fn empty_input_still_encodes() {
        let input = extract(&[], &RdFeatureConfig::default());
        assert!(input.map.iter().all(|&v| v == 0.0));
        assert_eq!(input.sequence.len(), 1);
    }

    #[test]
    fn motion_energy_ignores_clutter_notch() {
        let centre = 16 / 2;
        let static_frame = toy_frame(&[(centre, 20, 100.0)], 0.0);
        let moving_frame = toy_frame(&[(centre + 4, 20, 100.0)], 0.0);
        assert_eq!(motion_energy(&static_frame, 1), 0.0);
        assert!(motion_energy(&moving_frame, 1) > 1.0);
    }

    #[test]
    fn sequence_respects_max_frames() {
        let fc = RdFeatureConfig {
            max_frames: 4,
            ..RdFeatureConfig::default()
        };
        let frames = vec![toy_frame(&[(2, 2, 1.0)], 0.0); 9];
        assert_eq!(extract(&frames, &fc).sequence.len(), 4);
    }

    #[test]
    fn doppler_sign_visible_in_features() {
        let fc = RdFeatureConfig::default();
        let up = extract(&[toy_frame(&[(12, 20, 50.0)], 0.0)], &fc);
        let down = extract(&[toy_frame(&[(4, 20, 50.0)], 0.0)], &fc);
        assert!(up.sequence[0][2] > 0.0);
        assert!(down.sequence[0][2] < 0.0);
    }
}
