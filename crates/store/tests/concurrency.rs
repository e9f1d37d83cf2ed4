//! Concurrent writers on one registry and on one identity store.
//!
//! Publishers that race on "newest version + 1" pick the same version,
//! and the later rename silently replaces the earlier file while both
//! report success. These tests pin the opposite: every publish gets its
//! own version, each retained version holds the payload its publisher
//! passed, and gallery checkpoints taken during enrollment never go
//! backwards in version order. Every read goes through a freshly
//! opened registry, so it sees the files on disk.

use gestureprint_core::artifact::{kinds, Artifact};
use gp_codec::{Decode, Value};
use gp_store::{
    ArtifactRegistry, EmbeddingGallery, IdentityStore, RegistryConfig, GALLERY_ARTIFACT,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gp-store-concurrency-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_publishes_get_distinct_versions_holding_their_payloads() {
    const THREADS: i64 = 8;
    const PER_THREAD: i64 = 10;
    let total = (THREADS * PER_THREAD) as u64;
    let root = tmp_root("publish");
    let config = RegistryConfig {
        retain: total as usize,
    };
    let registry = ArtifactRegistry::open(&root, config.clone()).unwrap();
    let start = Barrier::new(THREADS as usize);

    let published: Vec<(u64, i64)> = std::thread::scope(|s| {
        let publishers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (registry, start) = (&registry, &start);
                s.spawn(move || {
                    start.wait();
                    (0..PER_THREAD)
                        .map(|k| {
                            let x = t * PER_THREAD + k;
                            let payload = Value::record([("x", Value::Int(x))]);
                            let artifact = Artifact::new(kinds::REPORT, payload);
                            (registry.publish("m", artifact).unwrap(), x)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        publishers
            .into_iter()
            .flat_map(|p| p.join().unwrap())
            .collect()
    });

    let by_version: BTreeMap<u64, i64> = published.iter().copied().collect();
    assert_eq!(
        by_version.len() as u64,
        total,
        "publishes returned {} distinct versions",
        by_version.len()
    );
    let all: Vec<u64> = (1..=total).collect();
    assert_eq!(by_version.keys().copied().collect::<Vec<_>>(), all);

    let fresh = ArtifactRegistry::open(&root, config).unwrap();
    assert_eq!(fresh.versions("m").unwrap(), all);
    for (&version, &x) in &by_version {
        let artifact = fresh.load_version("m", version).unwrap();
        assert_eq!(
            artifact.payload.get::<i64>("x").unwrap(),
            x,
            "v{version} holds another publisher's payload"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn gallery_samples_never_decrease_with_version() {
    const PERSISTERS: usize = 4;
    const PER_PERSISTER: usize = 10;
    let root = tmp_root("gallery");
    let config = RegistryConfig { retain: 1000 };
    let store = IdentityStore::open(&root, config.clone()).unwrap();
    let persisting = AtomicBool::new(true);

    let versions: Vec<u64> = std::thread::scope(|s| {
        for t in 0..4u8 {
            let (store, persisting) = (&store, &persisting);
            s.spawn(move || {
                let user = format!("user{t}");
                let mut k = 0.0f32;
                while persisting.load(Ordering::Relaxed) {
                    store.enroll(&user, &[f32::from(t), k]).unwrap();
                    k += 1.0;
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
        }
        let persisters: Vec<_> = (0..PERSISTERS)
            .map(|_| {
                let store = &store;
                s.spawn(move || {
                    (0..PER_PERSISTER)
                        .map(|_| store.persist().unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let versions = persisters
            .into_iter()
            .flat_map(|p| p.join().unwrap())
            .collect();
        persisting.store(false, Ordering::Relaxed);
        versions
    });

    let distinct: BTreeSet<u64> = versions.iter().copied().collect();
    assert_eq!(distinct.len(), PERSISTERS * PER_PERSISTER);
    let fresh = ArtifactRegistry::open(&root, config).unwrap();
    let stored = fresh.versions(GALLERY_ARTIFACT).unwrap();
    assert_eq!(stored, distinct.into_iter().collect::<Vec<_>>());
    let mut previous = 0;
    for version in stored {
        let artifact = fresh.load_version(GALLERY_ARTIFACT, version).unwrap();
        let samples = EmbeddingGallery::decode(&artifact.payload)
            .unwrap()
            .samples();
        assert!(
            samples >= previous,
            "v{version} holds {samples} samples, fewer than the {previous} before it"
        );
        previous = samples;
    }
    assert!(previous <= store.samples());
    let _ = std::fs::remove_dir_all(&root);
}
