//! End-to-end determinism: the full path from the dataset builder through
//! `GesturePrint` training and inference must be a pure function of its
//! seeds, regardless of how many worker threads do the building or the
//! training.
//!
//! This extends the builder-level `single_thread_matches_parallel` unit
//! test (`gp-datasets`) across crate boundaries into `gp-core`, for both
//! identification modes and both sensing backends: the gesture model and
//! the identifiers train side by side on one pool, so their weights must
//! not depend on its size. The identification half of an inference
//! (its embedding and user posteriors) is held to the same bar, against
//! a separate encode and forward of the dispatched identifier
//! (`embedding_for_gesture`, `probabilities_batch`): inference encodes
//! each sample once and hands that input to the identifier only where
//! the identifier would encode it the same.

use gestureprint_core::{
    ArtifactFormat, GesturePrint, GesturePrintConfig, IdentificationMode, Inference, SampleRef,
    TrainConfig,
};
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

/// `sample` with its cloud cut to its first `points` points, so that
/// encoding pads it back to `feature.num_points` with random draws.
fn padded(sample: &LabeledSample, points: usize) -> LabeledSample {
    let keep: Vec<usize> = (0..points.min(sample.cloud.len())).collect();
    LabeledSample {
        cloud: sample.cloud.select(&keep),
        ..sample.clone()
    }
}

/// Asserts that an inference's identification half is what the
/// identifier its gesture dispatches to computes on its own: its own
/// encode of the probe, then one forward.
fn assert_identifier_agrees<'a>(
    system: &GesturePrint,
    probe: impl Into<SampleRef<'a>>,
    inference: &Inference,
    what: &str,
) {
    let probe = probe.into();
    let identifier = system.identifier_for(inference.gesture);
    assert_eq!(
        inference.user_probs,
        identifier.probabilities_batch(&[probe])[0],
        "{what}: user posteriors diverge from the identifier's own"
    );
    assert_eq!(
        inference.embedding,
        system.embedding_for_gesture(probe, inference.gesture),
        "{what}: inference embedding diverges from the identifier's tap"
    );
}

/// The trained system's full binary artifact: every weight of the
/// gesture model and of each identifier, byte for byte.
fn weights(system: &GesturePrint) -> Vec<u8> {
    system.save_artifact_with(ArtifactFormat::Binary)
}

#[test]
fn trained_system_identical_across_thread_counts() {
    let seq = build_with_threads(1);
    let par = build_with_threads(4);
    let train_on = |ds: &Dataset, mode: IdentificationMode, threads: usize| -> GesturePrint {
        let samples = ordered(ds);
        GesturePrint::train(
            &samples,
            5,
            2,
            &GesturePrintConfig {
                mode,
                train: TrainConfig {
                    epochs: 4,
                    ..quick_train()
                },
                threads,
            },
        )
    };
    for mode in [IdentificationMode::Serialized, IdentificationMode::Parallel] {
        let system_seq = train_on(&seq, mode, 1);
        let system_par = train_on(&par, mode, 4);
        assert!(
            weights(&system_seq) == weights(&system_par),
            "{mode:?}: trained weights diverge between 1 and 4 threads"
        );

        // Probes of fewer points than the encoding keeps: encoding pads
        // them with seeded random draws, so an identifier with its own
        // encode seed encodes them differently from the gesture model.
        let sparse: Vec<LabeledSample> = ordered(&seq).iter().map(|s| padded(s, 40)).collect();
        let mut probes = ordered(&seq);
        probes.extend(&sparse);
        let mut reencoded = 0;

        // Identical inference on every probe sample, bit for bit.
        for &probe in &probes {
            let a = system_seq.infer(probe);
            let b = system_par.infer(probe);
            assert_eq!(a.gesture, b.gesture);
            assert_eq!(a.user, b.user);
            assert_eq!(
                a.gesture_probs, b.gesture_probs,
                "{mode:?}: gesture posteriors diverge"
            );
            assert_eq!(
                a.user_probs, b.user_probs,
                "{mode:?}: user posteriors diverge"
            );
            // The identification half inference hands back is the one a
            // separate encode and forward of the dispatched identifier
            // computes.
            assert_identifier_agrees(&system_seq, probe, &a, &format!("{mode:?}"));
            assert!(a.embedding.is_some(), "GesIDNet identifiers have a tap");
            assert_eq!(a.embedding, b.embedding, "{mode:?}: embeddings diverge");
            let gesture_model = system_seq.gesture_model();
            if gesture_model.encode_input(probe)
                != system_seq.identifier_for(a.gesture).encode_input(probe)
            {
                reencoded += 1;
            }
        }
        // Serialized identifiers other than gesture 0's have encode
        // seeds of their own, so some padded probes must reach one.
        if mode == IdentificationMode::Serialized {
            assert!(reencoded > 0, "no probe needs its identifier's own encode");
        }

        // And the batched path is bit-identical for every batch size
        // 1..=8, embeddings included, regardless of which thread count
        // trained the system: batch composition must never leak into
        // predictions.
        let reference: Vec<_> = probes.iter().map(|p| system_seq.infer(p)).collect();
        for system in [&system_seq, &system_par] {
            for batch in 1..=8usize {
                let mut batched = Vec::with_capacity(probes.len());
                for chunk in probes.chunks(batch) {
                    batched.extend(system.infer_batch(chunk));
                }
                assert_eq!(
                    batched, reference,
                    "{mode:?}: batched inference diverges at batch size {batch}"
                );
            }
        }
    }

    // The range-Doppler backend trains through the same scoped map.
    let samples = gp_testkit::toy_rd_samples(3);
    let refs: Vec<&RdLabeledSample> = samples.iter().collect();
    for mode in [IdentificationMode::Serialized, IdentificationMode::Parallel] {
        let train_rd = |threads: usize| {
            GesturePrint::train_rd(
                &refs,
                2,
                2,
                &GesturePrintConfig {
                    mode,
                    train: TrainConfig {
                        epochs: 4,
                        ..gp_testkit::quick_rd_train()
                    },
                    threads,
                },
            )
        };
        let (rd_seq, rd_par) = (train_rd(1), train_rd(4));
        assert!(
            weights(&rd_seq) == weights(&rd_par),
            "RD {mode:?}: trained weights diverge between 1 and 4 threads"
        );
        let inferences = rd_seq.infer_batch(&refs);
        assert_eq!(
            inferences,
            rd_par.infer_batch(&refs),
            "RD {mode:?}: inference diverges between 1 and 4 threads"
        );
        for (&probe, inference) in refs.iter().zip(&inferences) {
            assert_identifier_agrees(&rd_seq, probe, inference, &format!("RD {mode:?}"));
        }
    }
}

#[test]
fn rd_inference_embedding_matches_the_identifier_tap() {
    let system = gp_testkit::toy_rd_system();
    let samples = gp_testkit::toy_rd_samples(3);
    let refs: Vec<&RdLabeledSample> = samples.iter().collect();
    let reference: Vec<_> = refs.iter().map(|s| system.infer_rd(s)).collect();
    for (&s, inference) in refs.iter().zip(&reference) {
        assert_identifier_agrees(&system, s, inference, "RD");
    }
    for batch in 1..=4usize {
        let batched: Vec<_> = refs
            .chunks(batch)
            .flat_map(|chunk| system.infer_batch(chunk))
            .collect();
        assert_eq!(batched, reference, "RD batch size {batch}");
    }
}
