//! The GesturePrint data-preprocessing stage (paper §IV-B).
//!
//! Raw radar frames become training-ready gesture point clouds through
//! four modules, mirroring Fig. 4 of the paper:
//!
//! 1. **Gesture segmentation** ([`segmentation`]) — a parameter-adaptive
//!    sliding-window detector finds where gestures start and end from the
//!    per-frame point counts,
//! 2. **Noise canceling** ([`noise`]) — DBSCAN over the aggregated
//!    gesture cloud keeps only the main (body-related) cluster,
//! 3. **Data augmentation** ([`augment`]) — Gaussian point jitter applied
//!    at training time (×3 copies, σ = 0.02 m),
//! 4. [`Preprocessor`] — glues the stages together: frames in, clean
//!    per-gesture clouds out.
//!
//! # Example
//!
//! ```
//! use gp_pipeline::{Preprocessor, PreprocessorConfig};
//! use gp_pointcloud::{Point, PointCloud, Vec3};
//! use gp_radar::Frame;
//!
//! // Idle – burst of motion – idle: one segment comes out.
//! let mut frames = Vec::new();
//! for i in 0..60 {
//!     let n = if (20..40).contains(&i) { 12 } else { 1 };
//!     let cloud: PointCloud = (0..n)
//!         .map(|k| Point::new(Vec3::new(0.1 * k as f64, 1.2, 1.0), 0.5, 20.0))
//!         .collect();
//!     frames.push(Frame::new(i as f64 * 0.1, cloud));
//! }
//! let pre = Preprocessor::new(PreprocessorConfig::default());
//! let segments = pre.process(&frames);
//! assert_eq!(segments.len(), 1);
//! assert!(!segments[0].cloud.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod augment;
pub mod noise;
pub mod sample;
pub mod segmentation;

pub use augment::{Augmenter, AugmenterConfig};
pub use noise::{NoiseCanceler, NoiseCancelerConfig};
pub use sample::{GestureSample, LabeledSample};
pub use segmentation::{GestureSegment, OnlineSegmenter, Segmenter, SegmenterConfig};

use gp_radar::Frame;

/// Configuration for the full preprocessing stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreprocessorConfig {
    /// Segmentation parameters.
    pub segmenter: SegmenterConfig,
    /// Noise-canceling parameters.
    pub noise: NoiseCancelerConfig,
}

impl gp_codec::Encode for PreprocessorConfig {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("segmenter", self.segmenter.encode()),
            ("noise", self.noise.encode()),
        ])
    }
}

impl gp_codec::Decode for PreprocessorConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(PreprocessorConfig {
            segmenter: value.get("segmenter")?,
            noise: value.get("noise")?,
        })
    }
}

/// The complete preprocessing pipeline: segmentation + aggregation +
/// noise canceling.
#[derive(Debug, Clone, Default)]
pub struct Preprocessor {
    config: PreprocessorConfig,
}

impl Preprocessor {
    /// Creates a preprocessor.
    pub fn new(config: PreprocessorConfig) -> Self {
        Preprocessor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PreprocessorConfig {
        &self.config
    }

    /// Processes a frame sequence into per-gesture samples: segments the
    /// timeline, aggregates each segment's points, and removes noise
    /// clusters. Segments whose cloud is empty after noise canceling are
    /// dropped.
    pub fn process(&self, frames: &[Frame]) -> Vec<GestureSample> {
        let segmenter = Segmenter::new(self.config.segmenter.clone());
        segmenter
            .segment(frames)
            .into_iter()
            .filter_map(|seg| self.assemble(&frames[seg.start..seg.end], seg.start))
            .collect()
    }

    /// Assembles one detected segment's frames into a [`GestureSample`]:
    /// aggregates the clouds, removes noise clusters, and filters the
    /// per-frame views to the main cluster's neighbourhood.
    ///
    /// `start_frame` records the segment's absolute index in the capture.
    /// Returns `None` when nothing survives noise canceling (the caller
    /// drops such segments). Streaming callers (`gp-serve`) use this on
    /// segments emitted by [`OnlineSegmenter`]; [`Preprocessor::process`]
    /// uses it for every offline segment, so both paths share one
    /// assembly rule.
    pub fn assemble(&self, segment_frames: &[Frame], start_frame: usize) -> Option<GestureSample> {
        let canceler = NoiseCanceler::new(self.config.noise);
        let aggregated = gp_radar::frame::aggregate(segment_frames);
        let clean = canceler.clean(&aggregated);
        if clean.is_empty() {
            return None;
        }
        // Per-frame temporal view: keep each frame's points that lie near
        // the main cluster.
        let centroid = clean.centroid().expect("non-empty");
        let frame_clouds: Vec<_> = segment_frames
            .iter()
            .map(|f| {
                f.cloud
                    .iter()
                    .filter(|p| p.position.distance(centroid) < 1.2)
                    .copied()
                    .collect()
            })
            .collect();
        Some(GestureSample {
            cloud: clean,
            frame_clouds,
            duration_frames: segment_frames.len(),
            start_frame,
        })
    }
}
