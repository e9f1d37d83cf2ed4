//! Directory-backed, versioned artifact registry.
//!
//! Layout: one subdirectory per artifact name, one file per version —
//! `<root>/<name>/v<20-digit version>.gpa`. Every write goes through a
//! tempfile + `rename` pair, so a crash mid-write can never leave a
//! torn artifact where a reader looks: readers only ever see fully
//! published files, and stray `.tmp-*` leftovers are ignored by every
//! listing and swept on the next [`ArtifactRegistry::open`].
//!
//! Publishes through one registry handle are serialized: choosing the
//! next version, writing, renaming and pruning happen under one lock,
//! so concurrent publishers always get distinct versions and no rename
//! replaces another publisher's file. Separate handles over one
//! directory do not coordinate: writers share one handle.
//!
//! Retention keeps the newest [`RegistryConfig::retain`] versions per
//! name; older files are pruned after each publish. New versions are
//! written in the binary envelope; loads decode either envelope.

use gestureprint_core::artifact::{Artifact, ArtifactFormat};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::StoreError;

/// Registry tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryConfig {
    /// Versions kept per artifact name; older ones are pruned after
    /// each publish. `0` is treated as `1` (the newest always stays).
    pub retain: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig { retain: 4 }
    }
}

/// Handles into the engine telemetry registry (`store.registry.*`).
struct Exported {
    publishes: Arc<gp_telemetry::Counter>,
    load: Arc<gp_telemetry::AtomicHistogram>,
}

/// The versioned artifact store.
pub struct ArtifactRegistry {
    root: PathBuf,
    config: RegistryConfig,
    /// Held for a whole publish: version choice, write, rename, prune.
    publishing: Mutex<()>,
    next_tmp: AtomicU64,
    exported: Mutex<Option<Exported>>,
}

impl std::fmt::Debug for ArtifactRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactRegistry")
            .field("root", &self.root)
            .field("config", &self.config)
            .finish()
    }
}

/// Artifact names become directory names; keep them boring.
fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && name.len() <= 100
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidName(name.to_owned()))
    }
}

fn version_file(version: u64) -> String {
    format!("v{version:020}.gpa")
}

fn parse_version(file: &str) -> Option<u64> {
    file.strip_prefix('v')?
        .strip_suffix(".gpa")
        .filter(|digits| digits.len() == 20 && digits.bytes().all(|b| b.is_ascii_digit()))?
        .parse()
        .ok()
}

impl ArtifactRegistry {
    /// Opens (creating if needed) a registry rooted at `root`, sweeping
    /// any `.tmp-*` leftovers a previous crash may have stranded.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the root cannot be created or listed.
    pub fn open(root: impl Into<PathBuf>, config: RegistryConfig) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        // Sweep stranded tempfiles: they are invisible to readers either
        // way, this just reclaims the space.
        for entry in std::fs::read_dir(&root)? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            for file in std::fs::read_dir(&dir)? {
                let path = file?.path();
                let is_tmp = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(".tmp-"));
                if is_tmp {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(ArtifactRegistry {
            root,
            config,
            publishing: Mutex::new(()),
            next_tmp: AtomicU64::new(0),
            exported: Mutex::new(None),
        })
    }

    /// The directory this registry stores into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Registers the `store.registry.*` instruments (publish counter,
    /// load-latency histogram) in `registry`.
    pub fn attach_telemetry(&self, registry: &gp_telemetry::Registry) {
        *lock_poisonless(&self.exported) = Some(Exported {
            publishes: registry.counter("store.registry.publishes"),
            load: registry.histogram("store.registry.load"),
        });
    }

    /// Publishes `artifact` as the next version of `name`, atomically:
    /// the bytes land in a tempfile first and are `rename`d into place,
    /// then versions beyond the retention window are pruned. Returns
    /// the new version number (versions start at 1). Concurrent
    /// publishes through this registry run one at a time, so each gets
    /// its own version.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] or [`StoreError::Io`].
    pub fn publish(&self, name: &str, artifact: Artifact) -> Result<u64, StoreError> {
        validate_name(name)?;
        let bytes = artifact.into_bytes_with(ArtifactFormat::Binary);
        let _publishing = lock_poisonless(&self.publishing);
        let dir = self.root.join(name);
        std::fs::create_dir_all(&dir)?;
        let version = self.versions(name)?.last().copied().unwrap_or(0) + 1;

        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.next_tmp.fetch_add(1, Ordering::Relaxed)
        ));
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            // Push the payload to disk before the rename publishes it:
            // after a crash the file either exists whole or not at all.
            file.sync_all()?;
        }
        let final_path = dir.join(version_file(version));
        if let Err(e) = std::fs::rename(&tmp, &final_path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Best-effort directory fsync so the rename itself is durable.
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }

        // Prune beyond the retention window.
        let retain = self.config.retain.max(1);
        let versions = self.versions(name)?;
        if versions.len() > retain {
            for &old in &versions[..versions.len() - retain] {
                let _ = std::fs::remove_file(dir.join(version_file(old)));
            }
        }

        if let Some(e) = &*lock_poisonless(&self.exported) {
            e.publishes.inc();
        }
        Ok(version)
    }

    /// The retained version numbers of `name`, oldest first. An
    /// unknown name is simply an empty list.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] or [`StoreError::Io`].
    pub fn versions(&self, name: &str) -> Result<Vec<u64>, StoreError> {
        validate_name(name)?;
        let dir = self.root.join(name);
        let mut versions = Vec::new();
        match std::fs::read_dir(&dir) {
            Ok(entries) => {
                for entry in entries {
                    if let Some(v) = entry?.file_name().to_str().and_then(parse_version) {
                        versions.push(v);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        versions.sort_unstable();
        Ok(versions)
    }

    /// Loads the newest version of `name`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when no version exists; otherwise see
    /// [`ArtifactRegistry::load_version`].
    pub fn load_latest(&self, name: &str) -> Result<(u64, Artifact), StoreError> {
        let version = self
            .versions(name)?
            .last()
            .copied()
            .ok_or_else(|| StoreError::NotFound {
                name: name.to_owned(),
            })?;
        Ok((version, self.load_version(name, version)?))
    }

    /// Reads and decodes one specific version of `name` (either
    /// envelope format).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for a missing version,
    /// [`StoreError::Artifact`] for bytes that fail to decode,
    /// [`StoreError::Io`] / [`StoreError::InvalidName`] otherwise.
    pub fn load_version(&self, name: &str, version: u64) -> Result<Artifact, StoreError> {
        validate_name(name)?;
        let start = Instant::now();
        let path = self.root.join(name).join(version_file(version));
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound {
                    name: format!("{name}@v{version}"),
                })
            }
            Err(e) => return Err(e.into()),
        };
        let artifact = Artifact::from_bytes(&bytes)?;
        if let Some(e) = &*lock_poisonless(&self.exported) {
            e.load.record_duration(start.elapsed());
        }
        Ok(artifact)
    }
}

fn lock_poisonless<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gestureprint_core::artifact::kinds;
    use gp_codec::Value;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gp-store-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn report(x: i64) -> Artifact {
        Artifact::new(kinds::REPORT, Value::record([("x", Value::Int(x))]))
    }

    #[test]
    fn publish_load_roundtrip_and_versioning() {
        let root = tmp_root("roundtrip");
        let reg = ArtifactRegistry::open(&root, RegistryConfig::default()).unwrap();
        assert_eq!(reg.publish("report", report(1)).unwrap(), 1);
        assert_eq!(reg.publish("report", report(2)).unwrap(), 2);
        let (version, latest) = reg.load_latest("report").unwrap();
        assert_eq!(version, 2);
        assert_eq!(latest.payload.get::<i64>("x").unwrap(), 2);
        assert_eq!(
            reg.load_version("report", 1)
                .unwrap()
                .payload
                .get::<i64>("x")
                .unwrap(),
            1
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retention_prunes_old_versions() {
        let root = tmp_root("retain");
        let config = RegistryConfig { retain: 2 };
        let reg = ArtifactRegistry::open(&root, config).unwrap();
        for i in 0..5 {
            reg.publish("r", report(i)).unwrap();
        }
        assert_eq!(reg.versions("r").unwrap(), vec![4, 5]);
        // Pruned versions are really gone.
        assert!(matches!(
            reg.load_version("r", 1),
            Err(StoreError::NotFound { .. })
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_sim_leaves_no_torn_artifact() {
        let root = tmp_root("crash");
        let reg = ArtifactRegistry::open(&root, RegistryConfig::default()).unwrap();
        reg.publish("m", report(1)).unwrap();

        // Simulate a crash mid-write: a half-written tempfile appears
        // in the artifact directory, never renamed.
        let torn = root.join("m").join(".tmp-99999-0");
        std::fs::write(&torn, b"{\"schema_version\":1,\"kin").unwrap();

        // Readers never see it: the only version is the published one.
        assert_eq!(reg.versions("m").unwrap(), vec![1]);
        let fresh = ArtifactRegistry::open(&root, RegistryConfig::default()).unwrap();
        let (v, artifact) = fresh.load_latest("m").unwrap();
        assert_eq!(v, 1);
        assert_eq!(artifact.payload.get::<i64>("x").unwrap(), 1);
        // ...and the reopen swept the leftover.
        assert!(!torn.exists(), "stranded tempfile survived the sweep");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_names_rejected() {
        let root = tmp_root("names");
        let reg = ArtifactRegistry::open(&root, RegistryConfig::default()).unwrap();
        for bad in ["", "../evil", "a/b", ".hidden", "nul\0byte"] {
            assert!(
                matches!(reg.publish(bad, report(0)), Err(StoreError::InvalidName(_))),
                "{bad:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn telemetry_counts_publishes_and_loads_after_attach() {
        let root = tmp_root("telemetry");
        let reg = ArtifactRegistry::open(&root, RegistryConfig::default()).unwrap();
        reg.publish("m", report(3)).unwrap();
        reg.load_latest("m").unwrap(); // pre-attach
        let telemetry = gp_telemetry::Registry::new();
        reg.attach_telemetry(&telemetry);
        reg.load_latest("m").unwrap(); // post-attach
        reg.publish("m", report(4)).unwrap();
        let snap = telemetry.snapshot();
        assert!(!snap.counters.contains_key("store.registry.lru_hits"));
        assert_eq!(snap.counters["store.registry.publishes"], 1);
        assert_eq!(snap.histograms["store.registry.load"].count(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
