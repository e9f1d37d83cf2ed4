//! The full GesturePrint system: gesture recognition + user
//! identification in serialized or parallel mode (paper §IV-C).

use crate::train::{argmax, fit, SampleRef, SensingBackend, TrainConfig, TrainedModel, Untrained};
use gp_pipeline::LabeledSample;
use gp_rd::RdLabeledSample;
use gp_runtime::scope_map;

/// Runtime identification mode (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdentificationMode {
    /// One identification model *per gesture*; the recogniser's output
    /// selects which identifier runs. The paper's default (GP-S).
    Serialized,
    /// A single identification model trained across all gestures (GP-P).
    Parallel,
}

/// System configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GesturePrintConfig {
    /// Identification mode.
    pub mode: IdentificationMode,
    /// Training configuration shared by all models.
    pub train: TrainConfig,
    /// Number of worker threads that train the gesture model and the
    /// identifiers side by side (`0` = available parallelism). The
    /// trained weights do not depend on it.
    pub threads: usize,
}

impl Default for GesturePrintConfig {
    fn default() -> Self {
        GesturePrintConfig {
            mode: IdentificationMode::Serialized,
            train: TrainConfig::default(),
            threads: 0,
        }
    }
}

impl IdentificationMode {
    /// Stable serialization tag (persisted in artifacts; do not rename).
    pub fn tag(self) -> &'static str {
        match self {
            IdentificationMode::Serialized => "serialized",
            IdentificationMode::Parallel => "parallel",
        }
    }
}

impl gp_codec::Encode for IdentificationMode {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::Str(self.tag().to_owned())
    }
}

impl gp_codec::Decode for IdentificationMode {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        match value.as_str()? {
            "serialized" => Ok(IdentificationMode::Serialized),
            "parallel" => Ok(IdentificationMode::Parallel),
            other => Err(gp_codec::DecodeError::new(format!(
                "unknown identification mode '{other}'"
            ))),
        }
    }
}

impl gp_codec::Encode for GesturePrintConfig {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::record([
            ("mode", self.mode.encode()),
            ("train", self.train.encode()),
            ("threads", self.threads.encode()),
        ])
    }
}

impl gp_codec::Decode for GesturePrintConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(GesturePrintConfig {
            mode: value.get("mode")?,
            train: value.get("train")?,
            threads: value.get("threads")?,
        })
    }
}

/// The inference result for one gesture sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Inference {
    /// Recognised gesture class.
    pub gesture: usize,
    /// Identified user.
    pub user: usize,
    /// Gesture class probabilities.
    pub gesture_probs: Vec<f64>,
    /// User class probabilities (from the identifier that ran).
    pub user_probs: Vec<f64>,
    /// The identification embedding: the fused penultimate feature of
    /// the identifier that ran, out of the same forward pass as
    /// `user_probs` (the value [`GesturePrint::embedding_for_gesture`]
    /// recomputes). `None` when that architecture has no fusion tap.
    pub embedding: Option<Vec<f32>>,
}

/// A trained GesturePrint system.
#[derive(Debug)]
pub struct GesturePrint {
    gesture_model: TrainedModel,
    /// Serialized: one per gesture (index = gesture id). Parallel: one.
    identifiers: Vec<TrainedModel>,
    mode: IdentificationMode,
    gestures: usize,
    users: usize,
}

impl GesturePrint {
    /// Trains the system on labeled samples.
    ///
    /// In serialized mode one identifier is trained per gesture (on that
    /// gesture's samples only); gestures with no training samples fall
    /// back to a global identifier. The gesture model and every
    /// identifier train in parallel on up to `config.threads` threads,
    /// in both modes.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, labels exceed the class counts, or
    /// `config.train.model` is an RD architecture.
    pub fn train(
        samples: &[&LabeledSample],
        gestures: usize,
        users: usize,
        config: &GesturePrintConfig,
    ) -> Self {
        Self::train_with(samples, gestures, users, config)
    }

    /// Trains a range-Doppler system — the RD counterpart of
    /// [`GesturePrint::train`], with the same serialized/parallel
    /// identifier structure, per-gesture seed offsets, and epoch
    /// scaling.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, labels exceed the class counts, or
    /// `config.train.model` is not an RD architecture.
    pub fn train_rd(
        samples: &[&RdLabeledSample],
        gestures: usize,
        users: usize,
        config: &GesturePrintConfig,
    ) -> Self {
        Self::train_with(samples, gestures, users, config)
    }

    /// The body of [`GesturePrint::train`] and [`GesturePrint::train_rd`]
    /// over samples of either backend: every model trains as
    /// [`crate::train_classifier`] trains one, as one job of a single
    /// pool map.
    fn train_with<'a, S: Copy + Into<SampleRef<'a>>>(
        samples: &[S],
        gestures: usize,
        users: usize,
        config: &GesturePrintConfig,
    ) -> Self {
        assert!(!samples.is_empty(), "cannot train on an empty sample set");
        let samples: Vec<SampleRef<'a>> = samples.iter().map(|&s| s.into()).collect();
        let gesture_pairs: Vec<(SampleRef<'a>, usize)> =
            samples.iter().map(|&s| (s, s.labels().0)).collect();
        let all_pairs: Vec<(SampleRef<'a>, usize)> =
            samples.iter().map(|&s| (s, s.labels().1)).collect();
        // Serialized mode: each gesture's samples, labelled by user.
        let groups: Vec<Vec<(SampleRef<'a>, usize)>> = match config.mode {
            IdentificationMode::Parallel => Vec::new(),
            IdentificationMode::Serialized => {
                let mut groups = vec![Vec::new(); gestures];
                for &s in &samples {
                    let (gesture, user) = s.labels();
                    groups[gesture].push((s, user));
                }
                groups
            }
        };

        // One job per model: the gesture model first (it sees every
        // sample, so it is the longest job and should start first), then
        // the identifiers in dispatch order.
        let mut jobs = vec![(gesture_pairs.as_slice(), gestures, config.train.clone())];
        match config.mode {
            IdentificationMode::Parallel => jobs.push((&all_pairs, users, config.train.clone())),
            IdentificationMode::Serialized => {
                for (g, group) in groups.iter().enumerate() {
                    let pairs = if group.is_empty() { &all_pairs } else { group };
                    let mut cfg = config.train.clone();
                    cfg.seed = cfg.seed.wrapping_add(g as u64 * 0x1009);
                    // Per-gesture identifiers see a fraction of the data;
                    // scale epochs (capped at 3×) so each model gets a
                    // comparable optimisation budget.
                    let ratio = (samples.len() as f64 / pairs.len().max(1) as f64).min(3.0);
                    cfg.epochs = ((cfg.epochs as f64) * ratio).round() as usize;
                    jobs.push((pairs, users, cfg));
                }
            }
        }

        // Every model is seeded on its own and `scope_map` keeps job
        // order, so the weights do not depend on the worker count. The
        // models are built here and only fitted on the map's threads,
        // so the system's weights come from the heap of the thread that
        // keeps them. Memory a short-lived thread allocates stays in its
        // malloc arena after it exits, and which later threads take that
        // arena over depends on thread start order, so a system built
        // there made peak memory differ from run to run.
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|(pairs, classes, cfg)| (pairs, Untrained::build(classes, &cfg), cfg))
            .collect();
        let mut models = scope_map(config.threads, jobs, |_, (pairs, model, cfg)| {
            fit(model, pairs, &cfg, None)
        });
        let gesture_model = models.remove(0);
        let identifiers = models;

        GesturePrint {
            gesture_model,
            identifiers,
            mode: config.mode,
            gestures,
            users,
        }
    }

    /// Reassembles a system from already-trained parts (the artifact
    /// loader's constructor; see [`crate::artifact`]).
    pub(crate) fn from_parts(
        gesture_model: TrainedModel,
        identifiers: Vec<TrainedModel>,
        mode: IdentificationMode,
        gestures: usize,
        users: usize,
    ) -> Self {
        GesturePrint {
            gesture_model,
            identifiers,
            mode,
            gestures,
            users,
        }
    }

    /// The per-gesture (serialized) or single (parallel) identifiers,
    /// in dispatch order.
    pub(crate) fn identifiers(&self) -> &[TrainedModel] {
        &self.identifiers
    }

    /// The identification mode.
    pub fn mode(&self) -> IdentificationMode {
        self.mode
    }

    /// The sensing representation this system consumes — every model in
    /// the system shares the gesture model's backend.
    pub fn backend(&self) -> SensingBackend {
        self.gesture_model.backend()
    }

    /// Gesture class count.
    pub fn gestures(&self) -> usize {
        self.gestures
    }

    /// User class count.
    pub fn users(&self) -> usize {
        self.users
    }

    /// The gesture-recognition model.
    pub fn gesture_model(&self) -> &TrainedModel {
        &self.gesture_model
    }

    /// Index into `identifiers` of the model that runs for `gesture` —
    /// the single definition of the mode's dispatch rule, shared by
    /// inference and [`GesturePrint::identifier_for`].
    fn identifier_index(&self, gesture: usize) -> usize {
        match self.mode {
            IdentificationMode::Parallel => 0,
            IdentificationMode::Serialized => gesture.min(self.identifiers.len() - 1),
        }
    }

    /// The identifier that runs for `gesture`.
    pub fn identifier_for(&self, gesture: usize) -> &TrainedModel {
        &self.identifiers[self.identifier_index(gesture)]
    }

    /// Full inference: gesture, then user via the mode's identifier,
    /// whose forward also yields the identification embedding. A batch
    /// of one through [`GesturePrint::infer_batch`].
    pub fn infer(&self, sample: &LabeledSample) -> Inference {
        self.infer_batch(&[sample]).remove(0)
    }

    /// [`GesturePrint::infer`] for a range-Doppler sample.
    pub fn infer_rd(&self, sample: &RdLabeledSample) -> Inference {
        self.infer_batch(&[sample]).remove(0)
    }

    /// Batched inference over samples of either backend — the serving
    /// path's entry point (`gp-serve`'s micro-batching executor calls
    /// this per batch and backend).
    ///
    /// The gesture recogniser runs batched over the whole set, then the
    /// samples are grouped by the identifier their recognised gesture
    /// dispatches to ([`GesturePrint::identifier_for`]), so each
    /// identifier also runs batched over its group (serialized mode;
    /// parallel mode has one group). The per-sample entries are this on a
    /// batch of one, and each batched row is bit-exact with its sample
    /// run alone, so results do not depend on batch composition.
    ///
    /// Each sample is encoded once, for the gesture recogniser. Its
    /// identifier takes that input over wherever it would encode the
    /// sample bit for bit the same (equal feature configurations, and
    /// equal encode seeds when encoding pads the cloud with random
    /// draws), and encodes the sample itself otherwise, so the result
    /// is that of each model encoding for itself.
    ///
    /// # Panics
    ///
    /// Panics if a sample's backend does not match
    /// [`GesturePrint::backend`].
    pub fn infer_batch<'a, S: Copy + Into<SampleRef<'a>>>(&self, samples: &[S]) -> Vec<Inference> {
        let samples: Vec<SampleRef<'a>> = samples.iter().map(|&s| s.into()).collect();
        let encoded = self.gesture_model.encode(&samples);
        let (gesture_probs, _) = self.gesture_model.forward(&encoded);
        let gestures: Vec<usize> = gesture_probs.iter().map(|p| argmax(p)).collect();

        // Group sample indices by the identifier that must run for them.
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, &gesture) in gestures.iter().enumerate() {
            groups
                .entry(self.identifier_index(gesture))
                .or_default()
                .push(i);
        }
        let models: Vec<&TrainedModel> = groups.keys().map(|&k| &self.identifiers[k]).collect();
        let groups: Vec<Vec<usize>> = groups.into_values().collect();
        let batches = encoded.split(&self.gesture_model, &samples, &groups, &models);
        let mut user_probs: Vec<Vec<f64>> = vec![Vec::new(); samples.len()];
        let mut embeddings: Vec<Option<Vec<f32>>> = vec![None; samples.len()];
        for ((model, indices), inputs) in models.iter().zip(&groups).zip(&batches) {
            let (probs, group_embeddings) = model.forward(inputs);
            for (row, (&i, p)) in indices.iter().zip(probs).enumerate() {
                user_probs[i] = p;
                embeddings[i] = group_embeddings.as_ref().map(|m| m.row(row).to_vec());
            }
        }

        gestures
            .into_iter()
            .zip(gesture_probs)
            .zip(user_probs)
            .zip(embeddings)
            .map(
                |(((gesture, gesture_probs), user_probs), embedding)| Inference {
                    gesture,
                    user: argmax(&user_probs),
                    gesture_probs,
                    user_probs,
                    embedding,
                },
            )
            .collect()
    }

    /// The user-discriminative embedding of a sample: the fused
    /// penultimate feature of the identifier the recognised gesture
    /// dispatches to, i.e. `infer(sample).embedding`. This is what
    /// `gp-store` enrolls into a gallery — identification then becomes
    /// nearest-gallery matching instead of a closed-set argmax.
    /// `None` when the identifier architecture has no fusion tap.
    pub fn embedding(&self, sample: &LabeledSample) -> Option<Vec<f32>> {
        self.infer(sample).embedding
    }

    /// The identification embedding of a sample of either backend for a
    /// gesture the caller already recognised: one forward of that
    /// gesture's identifier. Inference results already carry this value
    /// as [`Inference::embedding`], so this is for per-sample reference
    /// checks. `None` when the identifier has no fusion tap.
    pub fn embedding_for_gesture<'a>(
        &self,
        sample: impl Into<SampleRef<'a>>,
        gesture: usize,
    ) -> Option<Vec<f32>> {
        let identifier = self.identifier_for(gesture);
        let (_, embeddings) = identifier.forward(&identifier.encode(&[sample.into()]));
        embeddings.map(|m| m.row(0).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::ModelKind;
    use gp_models::features::FeatureConfig;
    use gp_pointcloud::{Point, PointCloud, Vec3};

    /// 2 gestures × 2 users toy world: gesture controls motion axis,
    /// user controls lateral offset and Doppler magnitude.
    fn toy_samples(reps: usize) -> Vec<LabeledSample> {
        let mut out = Vec::new();
        for gesture in 0..2usize {
            for user in 0..2usize {
                for rep in 0..reps {
                    let shift = if user == 0 { -0.3 } else { 0.3 };
                    let cloud: PointCloud = (0..24)
                        .map(|i| {
                            let t = i as f64 * 0.3 + rep as f64 * 0.07;
                            let (dx, dz) = if gesture == 0 {
                                (t.sin() * 0.35, 0.02) // lateral sweep
                            } else {
                                (0.02, t.sin() * 0.35) // vertical sweep
                            };
                            Point::new(
                                Vec3::new(shift + dx, 1.2 + t.cos() * 0.1, 1.0 + dz),
                                (t * 1.3).sin() * (0.8 + user as f64 * 0.6),
                                14.0,
                            )
                        })
                        .collect();
                    out.push(LabeledSample {
                        cloud: cloud.clone(),
                        frame_clouds: vec![cloud; 4],
                        duration_frames: 18 + 4 * user,
                        gesture,
                        user,
                    });
                }
            }
        }
        out
    }

    fn quick_config(mode: IdentificationMode) -> GesturePrintConfig {
        GesturePrintConfig {
            mode,
            train: TrainConfig {
                model: ModelKind::GesIdNet,
                epochs: 12,
                augment: None,
                feature: FeatureConfig {
                    num_points: 24,
                    ..FeatureConfig::default()
                },
                ..TrainConfig::default()
            },
            threads: 2,
        }
    }

    #[test]
    fn serialized_system_learns_both_tasks() {
        let samples = toy_samples(6);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system =
            GesturePrint::train(&refs, 2, 2, &quick_config(IdentificationMode::Serialized));
        let mut g_ok = 0;
        let mut u_ok = 0;
        for s in &samples {
            let out = system.infer(s);
            if out.gesture == s.gesture {
                g_ok += 1;
            }
            if out.user == s.user {
                u_ok += 1;
            }
        }
        assert!(g_ok >= 20, "gesture recognition weak: {g_ok}/24");
        assert!(u_ok >= 20, "user identification weak: {u_ok}/24");
    }

    #[test]
    fn parallel_mode_uses_single_identifier() {
        let samples = toy_samples(4);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system = GesturePrint::train(&refs, 2, 2, &quick_config(IdentificationMode::Parallel));
        assert!(std::ptr::eq(
            system.identifier_for(0),
            system.identifier_for(1)
        ));
        let out = system.infer(&samples[0]);
        assert_eq!(out.user_probs.len(), 2);
    }

    #[test]
    fn serialized_mode_has_one_identifier_per_gesture() {
        let samples = toy_samples(4);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system =
            GesturePrint::train(&refs, 2, 2, &quick_config(IdentificationMode::Serialized));
        assert!(!std::ptr::eq(
            system.identifier_for(0),
            system.identifier_for(1)
        ));
    }

    #[test]
    fn inference_probabilities_normalised() {
        let samples = toy_samples(4);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system =
            GesturePrint::train(&refs, 2, 2, &quick_config(IdentificationMode::Serialized));
        let out = system.infer(&samples[0]);
        assert!((out.gesture_probs.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!((out.user_probs.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn batched_inference_matches_sequential() {
        let samples = toy_samples(4);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        for mode in [IdentificationMode::Serialized, IdentificationMode::Parallel] {
            let system = GesturePrint::train(&refs, 2, 2, &quick_config(mode));
            let batched = system.infer_batch(&refs);
            assert_eq!(batched.len(), samples.len());
            for (i, s) in samples.iter().enumerate() {
                assert_eq!(batched[i], system.infer(s), "sample {i} mode {mode:?}");
            }
            assert!(system.infer_batch::<&LabeledSample>(&[]).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_training_rejected() {
        GesturePrint::train(&[], 2, 2, &quick_config(IdentificationMode::Serialized));
    }

    #[test]
    fn embeddings_are_deterministic_and_user_discriminative() {
        let samples = toy_samples(6);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system =
            GesturePrint::train(&refs, 2, 2, &quick_config(IdentificationMode::Serialized));
        let e = system.embedding(&samples[0]).expect("GesIDNet has a tap");
        assert!(!e.is_empty());
        assert_eq!(system.embedding(&samples[0]).unwrap(), e, "deterministic");
        // Same-user embeddings sit closer than cross-user ones on
        // average (the property the gallery matcher relies on).
        let dist = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (f64::from(x - y)).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let embeds: Vec<(usize, Vec<f32>)> = samples
            .iter()
            .map(|s| (s.user, system.embedding(s).unwrap()))
            .collect();
        let (mut same, mut same_n, mut diff, mut diff_n) = (0.0, 0u32, 0.0, 0u32);
        for i in 0..embeds.len() {
            for j in (i + 1)..embeds.len() {
                let d = dist(&embeds[i].1, &embeds[j].1);
                if embeds[i].0 == embeds[j].0 {
                    same += d;
                    same_n += 1;
                } else {
                    diff += d;
                    diff_n += 1;
                }
            }
        }
        assert!(
            same / f64::from(same_n) < diff / f64::from(diff_n),
            "genuine mean {} >= impostor mean {}",
            same / f64::from(same_n),
            diff / f64::from(diff_n)
        );
    }

    #[test]
    fn embedding_is_none_without_a_fusion_tap() {
        let samples = toy_samples(3);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let mut config = quick_config(IdentificationMode::Parallel);
        config.train.model = ModelKind::PointNet;
        let system = GesturePrint::train(&refs, 2, 2, &config);
        assert_eq!(system.embedding(&samples[0]), None);
        assert_eq!(system.infer(&samples[0]).embedding, None);
        assert_eq!(system.infer_batch(&refs[..2])[1].embedding, None);
    }

    /// 2 gestures × 2 users RD toy world: gesture controls the range
    /// column band, user controls which side of zero Doppler the energy
    /// sits on.
    fn toy_rd_samples(reps: usize) -> Vec<RdLabeledSample> {
        let mut out = Vec::new();
        for gesture in 0..2usize {
            for user in 0..2usize {
                for rep in 0..reps {
                    let d = if user == 0 { 4 } else { 12 };
                    let r0 = if gesture == 0 { 10 } else { 36 };
                    let frames: Vec<gp_rd::RdFrame> = (0..8)
                        .map(|i| {
                            let mut f = gp_rd::RdFrame::zeros(16, 64, i as f64 * 0.1);
                            let r = r0 + (rep + i) % 4;
                            f.power[d * f.range_bins + r] = 40.0 + rep as f64;
                            f.power[(d + 1) * f.range_bins + r] = 20.0;
                            f
                        })
                        .collect();
                    out.push(RdLabeledSample {
                        frames,
                        duration_frames: 8,
                        gesture,
                        user,
                    });
                }
            }
        }
        out
    }

    fn quick_rd_config(mode: IdentificationMode) -> GesturePrintConfig {
        GesturePrintConfig {
            mode,
            train: TrainConfig {
                model: ModelKind::RdNet,
                epochs: 12,
                learning_rate: 5e-3,
                augment: None,
                ..TrainConfig::default()
            },
            threads: 2,
        }
    }

    #[test]
    fn rd_system_learns_both_tasks() {
        let samples = toy_rd_samples(6);
        let refs: Vec<&RdLabeledSample> = samples.iter().collect();
        let system = GesturePrint::train_rd(
            &refs,
            2,
            2,
            &quick_rd_config(IdentificationMode::Serialized),
        );
        assert_eq!(system.backend(), crate::train::SensingBackend::RangeDoppler);
        let mut g_ok = 0;
        let mut u_ok = 0;
        for s in &samples {
            let out = system.infer_rd(s);
            if out.gesture == s.gesture {
                g_ok += 1;
            }
            if out.user == s.user {
                u_ok += 1;
            }
        }
        assert!(g_ok >= 20, "RD gesture recognition weak: {g_ok}/24");
        assert!(u_ok >= 20, "RD user identification weak: {u_ok}/24");
        // Embeddings exist on the RD path (RdNet always has a fusion tap).
        let out = system.infer_rd(&samples[0]);
        let e = system
            .embedding_for_gesture(&samples[0], out.gesture)
            .unwrap();
        assert_eq!(e.len(), 48);
        assert_eq!(out.embedding, Some(e));
    }

    #[test]
    fn rd_batched_matches_sequential() {
        let samples = toy_rd_samples(3);
        let refs: Vec<&RdLabeledSample> = samples.iter().collect();
        let system =
            GesturePrint::train_rd(&refs, 2, 2, &quick_rd_config(IdentificationMode::Parallel));
        let batched = system.infer_batch(&refs);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(batched[i], system.infer_rd(s), "sample {i}");
        }
    }

    #[test]
    fn tied_gesture_logits_pick_the_first_gesture_everywhere() {
        // A zeroed gesture model gives all-zero logits, so every
        // recognition is an exact tie. Enrollment (`embedding`),
        // per-sample and batched inference and the classification report
        // must break it the same way: first on ties.
        let samples = toy_samples(3);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let mut system =
            GesturePrint::train(&refs, 2, 2, &quick_config(IdentificationMode::Serialized));
        system
            .gesture_model
            .model_mut()
            .for_each_param(&mut |p, _| p.fill(0.0));
        let batched = system.infer_batch(&refs);
        for (s, from_batch) in samples.iter().zip(&batched) {
            let out = system.infer(s);
            assert_eq!(out.gesture, 0);
            assert_eq!(out.gesture_probs[0], out.gesture_probs[1], "a tie");
            assert_eq!(system.embedding(s), out.embedding);
            assert_eq!(from_batch, &out);
        }
        let pairs: Vec<(&LabeledSample, usize)> = refs.iter().map(|&s| (s, s.gesture)).collect();
        let report = crate::classification_report(system.gesture_model(), &pairs);
        assert!(report.predictions.iter().all(|&p| p == 0));
    }
}
