//! The end-to-end GesturePrint system (paper Fig. 4).
//!
//! This crate glues the preprocessed samples from `gp-pipeline` to the
//! models in `gp-models` and exposes the paper's two-task API:
//!
//! * [`train::train_classifier`] — trains one classifier (GesIDNet or a
//!   baseline) on labeled gesture clouds with the paper's training-time
//!   augmentation,
//! * [`GesturePrint`] — the full system: a gesture-recognition model plus
//!   user-identification model(s), in **serialized** mode (per-gesture
//!   identifiers selected by the recognised gesture — the paper's
//!   default) or **parallel** mode (one identifier across all gestures).
//!   Inference is batch-first: [`GesturePrint::infer_batch`] over
//!   samples of either backend ([`SampleRef`]) is the one
//!   classify-then-identify body, and [`GesturePrint::infer`],
//!   [`GesturePrint::infer_rd`] and [`GesturePrint::embedding`] are
//!   batches of one through it,
//! * [`report`] — classification reports (accuracy / macro-F1 /
//!   macro-AUC) and verification scores for EER, matching §VI-A3,
//! * [`artifact`] — the versioned persistence layer: models, full
//!   systems and reports travel as self-describing `gp-codec` artifacts
//!   (`save_artifact()` / `load_artifact(bytes)`, no out-of-band
//!   arguments).
//!
//! # Example
//!
//! ```no_run
//! use gestureprint_core::{GesturePrint, GesturePrintConfig, IdentificationMode};
//! use gp_datasets::{presets, BuildOptions, Scale};
//! use gp_radar::Environment;
//!
//! let spec = presets::gestureprint(Environment::Office, Scale::Small);
//! let data = gp_datasets::build(&spec, &BuildOptions::default());
//! let samples: Vec<_> = data.samples.iter().map(|s| &s.labeled).collect();
//! let system = GesturePrint::train(
//!     &samples,
//!     spec.set.gesture_count(),
//!     spec.users,
//!     &GesturePrintConfig::default(),
//! );
//! let out = system.infer(samples[0]);
//! println!("gesture {} by user {}", out.gesture, out.user);
//! ```

pub mod artifact;
pub mod crossval;
pub mod report;
pub mod system;
pub mod train;

pub use artifact::{Artifact, ArtifactError, ArtifactFormat, ModelArtifact, SCHEMA_VERSION};
pub use crossval::kfold_reports;
pub use report::{classification_report, ClassificationReport};
pub use system::{GesturePrint, GesturePrintConfig, IdentificationMode, Inference};
pub use train::{
    train_classifier, train_rd_classifier, ModelKind, SampleRef, SensingBackend, TrainConfig,
    TrainedModel,
};
