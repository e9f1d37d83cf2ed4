//! Evaluation utilities: classification metrics, ROC/EER, data splits,
//! confusion matrices, and a small t-SNE implementation for feature
//! visualisation (paper Fig. 6).
//!
//! Metric definitions follow the paper (§VI-A3): GRA/UIA are plain
//! accuracies, GRF1/UIF1 are macro-averaged F1 scores, GRAUC/UIAUC are
//! macro one-vs-rest areas under the ROC curve, and EER is the rate at
//! which the false-positive and false-negative rates cross in the
//! one-vs-rest verification setting.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod roc;
pub mod split;
pub mod tsne;

pub use metrics::{accuracy, confusion_matrix, macro_auc, macro_f1, ConfusionMatrix};
pub use roc::{eer, eer_from_curve, roc_curve, RocEerSummary, RocPoint};
pub use split::{kfold_indices, train_test_split};
