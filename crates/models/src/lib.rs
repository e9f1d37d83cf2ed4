//! GesIDNet and the baseline classifiers.
//!
//! * [`GesIDNet`] — the paper's architecture (§IV-C): multiscale
//!   PointNet++-style set abstraction over the aggregated gesture cloud,
//!   an **attention-based multilevel feature fusion** module combining
//!   low- and high-level features with adaptively learned weights
//!   (Eqs. 2–3), and a primary + auxiliary classification head.
//! * [`baselines`] — representative reimplementations of the comparison
//!   systems' input families: raw point set (PointNet-style, for
//!   PanArch/Tesla), position–Doppler profile CNN (mGesNet/mSeeNet
//!   style), and a per-frame temporal LSTM (Pantomime-style).
//!
//! All models implement [`PointModel`], so the training/evaluation
//! harness in `gp-core` treats them interchangeably. Its contract is
//! two batch calls, [`PointModel::logits_and_embedding_batch`] and
//! [`PointModel::train_step_batch`]; a single sample is a batch of one.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod features;
pub mod gesidnet;
mod mlp;

pub use baselines::{LstmNet, PointNet, ProfileCnn};
pub use features::{FeatureConfig, ModelInput};
pub use gesidnet::{GesIDNet, GesIDNetConfig};

use gp_nn::{Matrix, Parameterized};

/// A classifier over preprocessed gesture samples. The contract is
/// batch-only: a single sample is a batch of one.
///
/// `Send + Sync` because inference is `&self` and trained models are
/// shared across serving workers (`gp-serve` holds one system behind an
/// `Arc` while micro-batches run on a thread pool).
pub trait PointModel: Parameterized + Send + Sync {
    /// Inference: one row of class logits per input, plus the fused
    /// embedding rows they were computed from (GesIDNet's `Y¹`), out of
    /// one forward pass. Row `i` belongs to input `i`. The embeddings
    /// are `None` for architectures without a fusion tap.
    ///
    /// GesIDNet runs the batch through its one stacked forward without
    /// recording anything for a backward; the baselines run their
    /// per-sample forward over the inputs in order. Either way each row
    /// is bit-exact with its input run alone.
    fn logits_and_embedding_batch(&self, inputs: &[ModelInput]) -> (Matrix, Option<Matrix>);

    /// Training over a mini-batch: forward + backward for every
    /// `(input, label)` pair, accumulating parameter gradients before
    /// the caller takes one optimizer step. Returns the summed loss.
    ///
    /// The baselines loop their per-sample step over the pairs in
    /// order. GesIDNet pushes the whole mini-batch through the same
    /// stacked forward inference runs, recording its trace and the
    /// auxiliary head P2, and then one stacked backward. That computes
    /// the same mathematical gradient sum as a loop of batches of one
    /// but may associate the floating-point additions differently.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `labels` have different lengths.
    fn train_step_batch(&mut self, inputs: &[&ModelInput], labels: &[usize]) -> f32;

    /// Taps intermediate features for visualisation (paper Fig. 6);
    /// returns `(low, high, fused)` when the model exposes them.
    fn feature_taps(&self, _input: &ModelInput) -> Option<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        None
    }
}
