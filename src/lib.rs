//! # GesturePrint
//!
//! A Rust reproduction of **"GesturePrint: Enabling User Identification for
//! mmWave-Based Gesture Recognition Systems"** (ICDCS 2024).
//!
//! GesturePrint augments an mmWave-radar gesture recognition system with
//! *gesture-based user identification*: the same point-cloud sample is
//! classified twice — once to recognise **which gesture** was performed and
//! once to identify **who** performed it — using a shared preprocessing
//! pipeline and the GesIDNet network architecture.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`codec`] | `gp-codec` | self-describing values, strict JSON, `Encode`/`Decode` |
//! | [`dsp`] | `gp-dsp` | FFT, windows, CA-CFAR |
//! | [`pointcloud`] | `gp-pointcloud` | point types, HD/CD/JSD metrics, DBSCAN |
//! | [`kinematics`] | `gp-kinematics` | arm model, gesture trajectories, user biometrics |
//! | [`radar`] | `gp-radar` | FMCW radar simulator |
//! | [`pipeline`] | `gp-pipeline` | segmentation, noise canceling, augmentation |
//! | [`datasets`] | `gp-datasets` | synthetic dataset builders |
//! | [`nn`] | `gp-nn` | tensors, layers, optimizers |
//! | [`models`] | `gp-models` | GesIDNet and baselines |
//! | [`core`] | `gp-core` | end-to-end system (train / infer, serialized & parallel modes, versioned artifacts) |
//! | [`telemetry`] | `gp-telemetry` | metrics registry, mergeable latency histograms, stage spans, versioned snapshots |
//! | [`runtime`] | `gp-runtime` | FIFO worker pool, ordered scoped map, backpressure gate |
//! | [`serve`] | `gp-serve` | streaming multi-session engine, micro-batched execution, per-session admission |
//! | [`net`] | `gp-net` | socket front: framed TCP/UDS streams, reactor, budget-aware backpressure |
//! | [`eval`] | `gp-eval` | accuracy / F1 / AUC / ROC / EER, k-fold, t-SNE |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: synthesise a small
//! multi-user gesture dataset, train GesIDNet for recognition and
//! identification, and evaluate both tasks.

#![forbid(unsafe_code)]

pub use gestureprint_core as core;
pub use gp_codec as codec;
pub use gp_datasets as datasets;
pub use gp_dsp as dsp;
pub use gp_eval as eval;
pub use gp_kinematics as kinematics;
pub use gp_models as models;
pub use gp_net as net;
pub use gp_nn as nn;
pub use gp_pipeline as pipeline;
pub use gp_pointcloud as pointcloud;
pub use gp_radar as radar;
pub use gp_rd as rd;
pub use gp_runtime as runtime;
pub use gp_serve as serve;
pub use gp_store as store;
pub use gp_telemetry as telemetry;
