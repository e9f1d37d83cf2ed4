//! End-to-end determinism: the full path from the dataset builder through
//! `GesturePrint` training and inference must be a pure function of its
//! seeds, regardless of how many worker threads do the building or the
//! training.
//!
//! This extends the builder-level `single_thread_matches_parallel` unit
//! test (`gp-datasets`) across crate boundaries into `gp-core`. The
//! identification embedding an inference returns is held to the same
//! bar, against the separate identifier forward that enrollment uses.

use gestureprint_core::{GesturePrint, GesturePrintConfig, IdentificationMode, TrainConfig};
use gp_datasets::{build, presets, BuildOptions, Dataset, Scale};
use gp_pipeline::LabeledSample;
use gp_rd::RdLabeledSample;
use gp_testkit::quick_train;

fn build_with_threads(threads: usize) -> Dataset {
    let spec = presets::mtranssee(Scale::Custom { users: 2, reps: 4 }, &[1.2]);
    build(
        &spec,
        &BuildOptions {
            threads,
            ..BuildOptions::default()
        },
    )
}

/// Canonical ordering so thread scheduling cannot leak into comparisons.
fn ordered(ds: &Dataset) -> Vec<&LabeledSample> {
    let mut refs: Vec<_> = ds.samples.iter().collect();
    refs.sort_by_key(|s| (s.labeled.user, s.labeled.gesture, s.rep));
    refs.iter().map(|s| &s.labeled).collect()
}

#[test]
fn dataset_identical_across_thread_counts() {
    let seq = build_with_threads(1);
    let par = build_with_threads(4);
    assert_eq!(
        seq.samples.len(),
        par.samples.len(),
        "sample counts diverge"
    );
    assert_eq!(seq.dropped, par.dropped, "drop counts diverge");
    for (a, b) in ordered(&seq).iter().zip(ordered(&par).iter()) {
        assert_eq!(a, b, "sample contents diverge between 1 and 4 threads");
    }
}

#[test]
fn trained_system_identical_across_thread_counts() {
    let seq = build_with_threads(1);
    let par = build_with_threads(4);
    let train_on = |ds: &Dataset, threads: usize| -> GesturePrint {
        let samples = ordered(ds);
        GesturePrint::train(
            &samples,
            5,
            2,
            &GesturePrintConfig {
                mode: IdentificationMode::Serialized,
                train: TrainConfig {
                    epochs: 4,
                    ..quick_train()
                },
                threads,
            },
        )
    };
    let system_seq = train_on(&seq, 1);
    let system_par = train_on(&par, 4);

    // Identical inference on every probe sample, bit for bit.
    for probe in ordered(&seq) {
        let a = system_seq.infer(probe);
        let b = system_par.infer(probe);
        assert_eq!(a.gesture, b.gesture);
        assert_eq!(a.user, b.user);
        assert_eq!(
            a.gesture_probs, b.gesture_probs,
            "gesture posteriors diverge"
        );
        assert_eq!(a.user_probs, b.user_probs, "user posteriors diverge");
        // The embedding inference hands back is the one a separate
        // identifier forward computes (the enrollment path).
        assert_eq!(
            a.embedding,
            system_seq.embedding_for_gesture(probe, a.gesture),
            "inference embedding diverges from the identifier's tap"
        );
        assert!(a.embedding.is_some(), "GesIDNet identifiers have a tap");
        assert_eq!(a.embedding, b.embedding, "embeddings diverge");
    }

    // And the batched path is bit-identical for every batch size 1..=8,
    // embeddings included, regardless of which thread count trained the
    // system: batch composition must never leak into predictions.
    let probes = ordered(&seq);
    let reference: Vec<_> = probes.iter().map(|p| system_seq.infer(p)).collect();
    for system in [&system_seq, &system_par] {
        for batch in 1..=8usize {
            let mut batched = Vec::with_capacity(probes.len());
            for chunk in probes.chunks(batch) {
                batched.extend(system.infer_batch(chunk));
            }
            assert_eq!(
                batched, reference,
                "batched inference diverges at batch size {batch}"
            );
        }
    }
}

#[test]
fn rd_inference_embedding_matches_the_identifier_tap() {
    let system = gp_testkit::toy_rd_system();
    let samples = gp_testkit::toy_rd_samples(3);
    let refs: Vec<&RdLabeledSample> = samples.iter().collect();
    let reference: Vec<_> = refs.iter().map(|s| system.infer_rd(s)).collect();
    for (s, inference) in refs.iter().zip(&reference) {
        assert_eq!(
            inference.embedding,
            system.embedding_rd_for_gesture(s, inference.gesture),
            "RD inference embedding diverges from the identifier's tap"
        );
    }
    for batch in 1..=4usize {
        let batched: Vec<_> = refs
            .chunks(batch)
            .flat_map(|chunk| system.infer_rd_batch(chunk))
            .collect();
        assert_eq!(batched, reference, "RD batch size {batch}");
    }
}
