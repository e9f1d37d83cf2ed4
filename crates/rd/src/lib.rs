//! Range-Doppler sensing backend for GesturePrint.
//!
//! The point-cloud pipeline consumes the radar vendor's on-chip
//! detection output; this crate works one level down the same FMCW
//! chain, on the range-Doppler power maps themselves. The maps come out
//! of `gp-radar`'s signal chain (`synthesize_frame` →
//! `range_doppler_maps` → `power_map` on the single-antenna
//! `RadarConfig::range_doppler()`, rendered by `gp-testkit`'s
//! `rd_frames`); this crate starts from them:
//!
//! * [`RdFrame`] is the per-frame Doppler × range power map,
//! * [`segment()`]/[`OnlineRdSegmenter`] find gesture activity in the
//!   frame stream,
//! * [`extract`] encodes segments into [`RdInput`]s, and
//! * [`RdNet`] is the conv+recurrent classifier trained on them. Like
//!   `gp-models`' `PointModel`, it exposes two batch calls,
//!   [`RdNet::logits_and_embedding_batch`] and
//!   [`RdNet::train_step_batch`]; a single sample is a batch of one.
//!
//! `gp-core` wraps all of this behind its `SensingBackend` dispatch so
//! a serving session can declare either modality at open; each session
//! streams one.

#![forbid(unsafe_code)]

pub mod features;
pub mod frame;
pub mod model;
pub mod sample;
pub mod segment;

pub use features::{
    extract, extract_all, extract_sample, motion_energy, RdFeatureConfig, RdInput,
    RD_SEQUENCE_FEATURES,
};
pub use frame::RdFrame;
pub use model::RdNet;
pub use sample::RdLabeledSample;
pub use segment::{dominant_segment, segment, OnlineRdSegmenter, RdSegment, RdSegmentConfig};
