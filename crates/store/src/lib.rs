//! # gp-store
//!
//! The identity store behind the GesturePrint serving stack: durable
//! artifact storage plus the enrollment gallery that turns the
//! closed-set user classifier into an open-set identification system.
//!
//! Three layers:
//!
//! - [`ArtifactRegistry`] — a directory of versioned artifacts
//!   (`<root>/<name>/v<version>.gpa`). Writes are tempfile + `rename`
//!   atomic and serialized per registry, so concurrent publishers get
//!   distinct versions; retention keeps the newest N versions.
//! - [`EmbeddingGallery`] — per-user centroids of the GesIDNet fusion
//!   feature, nearest-centroid matching, and an acceptance threshold
//!   calibrated against a target false-accept rate with gp-eval's ROC
//!   machinery. This is what lets the system say *"nobody I know"*.
//! - [`IdentityStore`] — the thread-safe combination gp-serve holds:
//!   concurrent enroll/identify over a shared gallery, checkpointed
//!   as `gestureprint.gallery` artifacts, `store.*` telemetry.
//!
//! Artifacts are format-agnostic on read: both the JSON and the binary
//! (`GPB`) envelope encodings load transparently; the registry always
//! writes binary.

#![forbid(unsafe_code)]

pub mod gallery;
pub mod identity;
pub mod registry;

pub use gallery::{
    euclidean, EmbeddingGallery, GalleryEntry, GalleryError, GalleryMatch, Identification,
    GALLERY_VERSION,
};
pub use identity::{EnrollReceipt, IdentityStore, GALLERY_ARTIFACT};
pub use registry::{ArtifactRegistry, RegistryConfig};

use gestureprint_core::artifact::ArtifactError;
use gp_codec::DecodeError;

/// Errors from the store layer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Stored bytes failed envelope decoding.
    Artifact(ArtifactError),
    /// A payload inside a well-formed envelope failed to decode.
    Decode(DecodeError),
    /// Gallery mutation failure (dimension mismatch, empty input).
    Gallery(GalleryError),
    /// No such artifact (or version) in the registry.
    NotFound {
        /// The name (possibly `name@vN`) that was asked for.
        name: String,
    },
    /// Artifact names are restricted to path-safe characters.
    InvalidName(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Artifact(e) => write!(f, "store artifact: {e}"),
            StoreError::Decode(e) => write!(f, "store payload: {e}"),
            StoreError::Gallery(e) => write!(f, "gallery: {e}"),
            StoreError::NotFound { name } => write!(f, "no artifact named '{name}'"),
            StoreError::InvalidName(name) => {
                write!(f, "invalid artifact name {name:?} (path-safe ASCII only)")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Artifact(e) => Some(e),
            StoreError::Decode(e) => Some(e),
            StoreError::Gallery(e) => Some(e),
            StoreError::NotFound { .. } | StoreError::InvalidName(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ArtifactError> for StoreError {
    fn from(e: ArtifactError) -> Self {
        StoreError::Artifact(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}
