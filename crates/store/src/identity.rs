//! The identity store: a thread-safe enrollment gallery persisted
//! through the artifact registry.
//!
//! This is the piece gp-serve holds: sessions enroll embeddings and
//! resolve identities concurrently (the gallery sits behind a
//! `RwLock`; identification only reads), and every mutation can be
//! checkpointed as a `gestureprint.gallery` artifact — versioned,
//! atomic, and retained like any other artifact in the registry.
//! Checkpoints are taken one at a time, so a newer version never holds
//! an older gallery than the version before it.

use crate::gallery::{EmbeddingGallery, Identification};
use crate::registry::{ArtifactRegistry, RegistryConfig};
use crate::StoreError;
use gestureprint_core::artifact::{kinds, Artifact};
use gp_codec::{Decode, Encode};
use gp_eval::RocEerSummary;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Registry name under which gallery checkpoints are published.
pub const GALLERY_ARTIFACT: &str = "gallery";

/// Receipt returned by [`IdentityStore::enroll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnrollReceipt {
    /// The enrolled user.
    pub user: String,
    /// That user's sample count after this enrollment.
    pub samples: u64,
    /// Total users in the gallery after this enrollment.
    pub users: usize,
}

/// Handles into the engine telemetry registry (`store.*`).
struct Exported {
    users: Arc<gp_telemetry::Gauge>,
    samples: Arc<gp_telemetry::Gauge>,
    enrollments: Arc<gp_telemetry::Counter>,
    enroll_rejected: Arc<gp_telemetry::Counter>,
    accepted: Arc<gp_telemetry::Counter>,
    rejected: Arc<gp_telemetry::Counter>,
    lookup: Arc<gp_telemetry::AtomicHistogram>,
}

/// Gallery + registry + telemetry, shareable across serve sessions.
pub struct IdentityStore {
    registry: ArtifactRegistry,
    gallery: RwLock<EmbeddingGallery>,
    /// Held from a checkpoint's snapshot through its publish.
    persisting: Mutex<()>,
    exported: Mutex<Option<Exported>>,
}

impl std::fmt::Debug for IdentityStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.read();
        f.debug_struct("IdentityStore")
            .field("root", &self.registry.root())
            .field("users", &g.users())
            .field("samples", &g.samples())
            .field("threshold", &g.threshold())
            .finish()
    }
}

impl IdentityStore {
    /// Opens the store at `root`, resuming from the newest persisted
    /// gallery checkpoint when one exists (an empty registry starts an
    /// empty, closed-set gallery).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from the registry, [`StoreError::Artifact`] /
    /// [`StoreError::Decode`] when an existing checkpoint is not a
    /// well-formed gallery artifact.
    pub fn open(root: impl Into<PathBuf>, config: RegistryConfig) -> Result<Self, StoreError> {
        let registry = ArtifactRegistry::open(root, config)?;
        let gallery = match registry.load_latest(GALLERY_ARTIFACT) {
            Ok((_, artifact)) => {
                if artifact.kind != kinds::GALLERY {
                    return Err(StoreError::Decode(gp_codec::DecodeError::new(format!(
                        "artifact '{GALLERY_ARTIFACT}' has kind {:?}, expected {:?}",
                        artifact.kind,
                        kinds::GALLERY
                    ))));
                }
                EmbeddingGallery::decode(&artifact.payload)?
            }
            Err(StoreError::NotFound { .. }) => EmbeddingGallery::new(),
            Err(e) => return Err(e),
        };
        Ok(IdentityStore {
            registry,
            gallery: RwLock::new(gallery),
            persisting: Mutex::new(()),
            exported: Mutex::new(None),
        })
    }

    /// The underlying artifact registry (models, reports, ... share the
    /// same versioned storage as the gallery).
    pub fn registry(&self) -> &ArtifactRegistry {
        &self.registry
    }

    /// Registers the `store.*` instruments — gallery gauges, enrollment
    /// counters (folded in and rejected), identify accept/reject
    /// counters, the identify-latency histogram — and the registry's
    /// own `store.registry.*` set.
    pub fn attach_telemetry(&self, registry: &gp_telemetry::Registry) {
        self.registry.attach_telemetry(registry);
        let exported = Exported {
            users: registry.gauge("store.gallery.users"),
            samples: registry.gauge("store.gallery.samples"),
            enrollments: registry.counter("store.enroll.count"),
            enroll_rejected: registry.counter("store.enroll.rejected"),
            accepted: registry.counter("store.identify.accepted"),
            rejected: registry.counter("store.identify.rejected"),
            lookup: registry.histogram("store.identify.lookup"),
        };
        let g = self.read();
        exported.users.set(g.users() as i64);
        exported.samples.set(g.samples() as i64);
        drop(g);
        *lock_poisonless(&self.exported) = Some(exported);
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, EmbeddingGallery> {
        self.gallery.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, EmbeddingGallery> {
        self.gallery.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Folds one embedding into `user`'s gallery template.
    ///
    /// # Errors
    ///
    /// [`StoreError::Gallery`] on dimension mismatch or empty input; the
    /// gallery is left unchanged and `store.enroll.rejected` counts it.
    pub fn enroll(&self, user: &str, embedding: &[f32]) -> Result<EnrollReceipt, StoreError> {
        let enrolled = {
            let mut g = self.write();
            g.enroll(user, embedding)
                .map(|samples| (samples, g.users(), g.samples()))
        };
        let (samples, users, total) = match enrolled {
            Ok(counts) => counts,
            Err(e) => {
                if let Some(exported) = &*lock_poisonless(&self.exported) {
                    exported.enroll_rejected.inc();
                }
                return Err(StoreError::Gallery(e));
            }
        };
        if let Some(e) = &*lock_poisonless(&self.exported) {
            e.enrollments.inc();
            e.users.set(users as i64);
            e.samples.set(total as i64);
        }
        Ok(EnrollReceipt {
            user: user.to_owned(),
            samples,
            users,
        })
    }

    /// Open-set identification of `embedding` against the gallery.
    pub fn identify(&self, embedding: &[f32]) -> Identification {
        let start = Instant::now();
        let outcome = self.read().identify(embedding);
        if let Some(e) = &*lock_poisonless(&self.exported) {
            e.lookup.record_duration(start.elapsed());
            if outcome.accepted() {
                e.accepted.inc();
            } else {
                e.rejected.inc();
            }
        }
        outcome
    }

    /// Calibrates the gallery threshold from labeled probes (see
    /// [`EmbeddingGallery::calibrate`]); returns the ROC/EER summary.
    ///
    /// # Panics
    ///
    /// Panics on an empty gallery, empty probes, a probe dimension
    /// mismatch, or a negative `target_far`.
    pub fn calibrate(
        &self,
        scenario: &str,
        probes: &[(String, Vec<f32>)],
        target_far: f64,
    ) -> RocEerSummary {
        self.write().calibrate(scenario, probes, target_far)
    }

    /// Sets the acceptance threshold directly.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn set_threshold(&self, threshold: f64) {
        self.write().set_threshold(threshold);
    }

    /// Current acceptance threshold.
    pub fn threshold(&self) -> f64 {
        self.read().threshold()
    }

    /// Number of enrolled users.
    pub fn users(&self) -> usize {
        self.read().users()
    }

    /// Total enrolled samples.
    pub fn samples(&self) -> u64 {
        self.read().samples()
    }

    /// Whether `user` is enrolled.
    pub fn is_enrolled(&self, user: &str) -> bool {
        self.read().entry(user).is_some()
    }

    /// A snapshot of the current gallery state.
    pub fn gallery_snapshot(&self) -> EmbeddingGallery {
        self.read().clone()
    }

    /// Publishes the current gallery as a new `gestureprint.gallery`
    /// artifact version; returns that version. Concurrent calls take
    /// their snapshots in version order; enrollment waits only while
    /// the snapshot is encoded, not during the write.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from the registry publish.
    pub fn persist(&self) -> Result<u64, StoreError> {
        let _persisting = lock_poisonless(&self.persisting);
        let artifact = Artifact::new(kinds::GALLERY, self.read().encode());
        self.registry.publish(GALLERY_ARTIFACT, artifact)
    }
}

fn lock_poisonless<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery::GalleryError;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gp-store-identity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn enroll_persist_reopen_identify() {
        let root = tmp_root("reopen");
        let store = IdentityStore::open(&root, RegistryConfig::default()).unwrap();
        let receipt = store.enroll("ada", &[0.0, 0.0]).unwrap();
        assert_eq!(receipt.samples, 1);
        store.enroll("ada", &[0.2, 0.0]).unwrap();
        store.enroll("bob", &[5.0, 5.0]).unwrap();
        store.set_threshold(1.0);
        assert_eq!(store.persist().unwrap(), 1);

        // A fresh store over the same root resumes the gallery —
        // centroids, threshold, everything.
        drop(store);
        let resumed = IdentityStore::open(&root, RegistryConfig::default()).unwrap();
        assert_eq!(resumed.users(), 2);
        assert_eq!(resumed.samples(), 3);
        assert_eq!(resumed.threshold(), 1.0);
        assert_eq!(resumed.identify(&[0.1, 0.0]).user(), Some("ada"));
        assert!(!resumed.identify(&[50.0, 50.0]).accepted());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_root_starts_empty_and_rejects() {
        let root = tmp_root("empty");
        let store = IdentityStore::open(&root, RegistryConfig::default()).unwrap();
        assert_eq!(store.users(), 0);
        assert!(!store.identify(&[1.0]).accepted());
        assert!(!store.is_enrolled("ada"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn telemetry_tracks_gallery_and_lookups() {
        let root = tmp_root("telemetry");
        let store = IdentityStore::open(&root, RegistryConfig::default()).unwrap();
        store.enroll("ada", &[0.0, 0.0]).unwrap(); // pre-attach
        let telemetry = gp_telemetry::Registry::new();
        store.attach_telemetry(&telemetry);
        // Gauges reflect pre-attach state immediately.
        assert_eq!(telemetry.snapshot().gauges["store.gallery.users"], 1);

        store.enroll("bob", &[4.0, 4.0]).unwrap();
        store.set_threshold(1.0);
        store.identify(&[0.1, 0.1]); // accept
        store.identify(&[9.0, 9.0]); // reject
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauges["store.gallery.users"], 2);
        assert_eq!(snap.gauges["store.gallery.samples"], 2);
        assert_eq!(snap.counters["store.enroll.count"], 1);
        assert_eq!(snap.counters["store.identify.accepted"], 1);
        assert_eq!(snap.counters["store.identify.rejected"], 1);
        assert_eq!(snap.histograms["store.identify.lookup"].count(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rejected_enrollment_is_counted_and_leaves_gallery_unchanged() {
        let root = tmp_root("rejected");
        let store = IdentityStore::open(&root, RegistryConfig::default()).unwrap();
        let telemetry = gp_telemetry::Registry::new();
        store.attach_telemetry(&telemetry);
        store.enroll("ada", &[0.0, 0.0]).unwrap();
        let before = store.gallery_snapshot();

        // Wrong dimension, for a known and for a new user.
        for user in ["ada", "bob"] {
            assert!(matches!(
                store.enroll(user, &[1.0, 2.0, 3.0]),
                Err(StoreError::Gallery(GalleryError::DimMismatch { .. }))
            ));
        }
        assert_eq!(store.gallery_snapshot(), before);
        assert!(!store.is_enrolled("bob"));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters["store.enroll.rejected"], 2);
        assert_eq!(snap.counters["store.enroll.count"], 1);
        assert_eq!(snap.gauges["store.gallery.samples"], 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_kind_checkpoint_fails_typed() {
        let root = tmp_root("kind");
        {
            let reg = ArtifactRegistry::open(&root, RegistryConfig::default()).unwrap();
            reg.publish(
                GALLERY_ARTIFACT,
                Artifact::new(kinds::REPORT, gp_codec::Value::record([])),
            )
            .unwrap();
        }
        assert!(matches!(
            IdentityStore::open(&root, RegistryConfig::default()),
            Err(StoreError::Decode(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }
}
