//! Range-Doppler sensing backend for GesturePrint.
//!
//! The point-cloud pipeline consumes the radar vendor's on-chip
//! detection output; this crate models the alternative tap one level
//! down the FMCW chain — the complex range-Doppler maps themselves:
//!
//! * [`RdSynthesizer`] renders frames from the same `gp-kinematics`
//!   scatterer ground truth the point-cloud simulator animates,
//! * [`RdFrame`] + CFAR masks ([`RdFrame::detection_mask`]) are the
//!   per-frame representation,
//! * [`segment()`]/[`OnlineRdSegmenter`] find gesture activity in the
//!   frame stream,
//! * [`extract`] encodes segments into [`RdInput`]s, and
//! * [`RdNet`] is the conv+recurrent classifier trained on them.
//!
//! `gp-core` wraps all of this behind its `SensingBackend` dispatch so
//! serving sessions can declare either modality — or fall back to this
//! one when a point-cloud segment is too sparse to trust.

pub mod config;
pub mod features;
pub mod frame;
pub mod model;
pub mod sample;
pub mod segment;
pub mod synth;

pub use config::RdConfig;
pub use features::{
    extract, extract_all, extract_sample, motion_energy, RdFeatureConfig, RdInput,
    RD_SEQUENCE_FEATURES,
};
pub use frame::RdFrame;
pub use model::RdNet;
pub use sample::RdLabeledSample;
pub use segment::{dominant_segment, segment, OnlineRdSegmenter, RdSegment, RdSegmentConfig};
pub use synth::RdSynthesizer;
