//! Synthetic dataset builders mirroring the paper's four gesture datasets.
//!
//! Paper Tab. I:
//!
//! | Dataset | Scenario | Gestures | Users |
//! |---|---|---|---|
//! | GesturePrint (self-collected) | Office + Meeting Room | 15 ASL | 17 |
//! | Pantomime | Office / Open space | 21 self-defined | 26 / 14 |
//! | mHomeGes | Home | 10 self-defined | 8–14 |
//! | mTransSee | Home | 5 self-defined | 32 |
//!
//! Every sample is produced end-to-end: a [`gp_kinematics::Performance`]
//! animates the user, [`gp_radar::RadarSimulator`] captures frames inside
//! the dataset's [`gp_radar::Environment`], and [`gp_pipeline`] segments
//! and cleans the gesture cloud. Builders are deterministic in the master
//! seed and parallelised over samples with std scoped threads.
//!
//! # Example
//!
//! ```no_run
//! use gp_datasets::{presets, BuildOptions, Scale};
//!
//! let spec = presets::mtranssee(Scale::Small, &[1.2]);
//! let dataset = gp_datasets::build(&spec, &BuildOptions::default());
//! assert!(!dataset.samples.is_empty());
//! println!("{} samples", dataset.samples.len());
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod spec;

pub use builder::{build, BuildOptions, Dataset, DatasetSample};
pub use spec::{presets, DatasetSpec, Scale};
