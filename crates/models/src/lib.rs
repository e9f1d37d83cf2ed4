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
//! harness in `gp-core` treats them interchangeably.

pub mod baselines;
pub mod features;
pub mod gesidnet;

pub use baselines::{LstmNet, PointNet, ProfileCnn};
pub use features::{FeatureConfig, ModelInput};
pub use gesidnet::{GesIDNet, GesIDNetConfig};

use gp_nn::{Matrix, Parameterized};

/// A classifier over preprocessed gesture samples.
///
/// `Send + Sync` because inference is `&self` and trained models are
/// shared across serving workers (`gp-serve` holds one system behind an
/// `Arc` while micro-batches run on a thread pool).
pub trait PointModel: Parameterized + Send + Sync {
    /// Class count.
    fn classes(&self) -> usize;

    /// Inference: class logits for one sample.
    fn logits(&self, input: &ModelInput) -> Vec<f32>;

    /// Inference with the identification tap: class logits plus the
    /// fused embedding they were computed from (GesIDNet's `Y¹`), out
    /// of one forward pass. The embedding is `None` for architectures
    /// without a fusion tap, which is the default.
    fn logits_and_embedding(&self, input: &ModelInput) -> (Vec<f32>, Option<Vec<f32>>) {
        (self.logits(input), None)
    }

    /// Batched inference: one row of class logits per input.
    fn logits_batch(&self, inputs: &[ModelInput]) -> Matrix {
        self.logits_and_embedding_batch(inputs).0
    }

    /// Batched [`PointModel::logits_and_embedding`]: row `i` of the
    /// logits and of the embeddings (when the model has a tap) belongs
    /// to input `i`.
    ///
    /// The default maps [`PointModel::logits_and_embedding`] over the
    /// batch; models with genuinely batched kernels can override it
    /// without changing callers. The serving executor and `gp-core`'s
    /// batched entry point go through this, so the whole path is
    /// already batch-shaped.
    fn logits_and_embedding_batch(&self, inputs: &[ModelInput]) -> (Matrix, Option<Matrix>) {
        if inputs.is_empty() {
            return (Matrix::zeros(0, self.classes()), None);
        }
        let (logits, embeddings): (Vec<Vec<f32>>, Vec<Option<Vec<f32>>>) =
            inputs.iter().map(|i| self.logits_and_embedding(i)).unzip();
        let embeddings: Option<Vec<Vec<f32>>> = embeddings.into_iter().collect();
        (
            Matrix::from_rows(&logits),
            embeddings.map(|rows| Matrix::from_rows(&rows)),
        )
    }

    /// Training: forward + backward for one `(input, label)` pair,
    /// accumulating parameter gradients. Returns the loss.
    fn train_step(&mut self, input: &ModelInput, label: usize) -> f32;

    /// Training over a mini-batch: accumulates gradients for every
    /// `(input, label)` pair before the caller takes one optimizer step.
    /// Returns the summed loss over the batch.
    ///
    /// The default loops [`PointModel::train_step`] in order. GesIDNet
    /// overrides it with its one stacked forward/backward, pushing the
    /// whole mini-batch through multi-row kernels; its `train_step` is
    /// this method on a batch of one. A stacked batch computes the same
    /// mathematical gradient sum as a loop of single steps but may
    /// associate the floating-point additions differently.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `labels` have different lengths.
    fn train_step_batch(&mut self, inputs: &[&ModelInput], labels: &[usize]) -> f32 {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length mismatch");
        inputs
            .iter()
            .zip(labels)
            .map(|(x, &y)| self.train_step(x, y))
            .sum()
    }

    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Taps intermediate features for visualisation (paper Fig. 6);
    /// returns `(low, high, fused)` when the model exposes them.
    fn feature_taps(&self, _input: &ModelInput) -> Option<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        None
    }
}
