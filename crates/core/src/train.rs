//! Classifier training with the paper's augmentation scheme.

use gp_models::features::{encode, FeatureConfig, ModelInput};
use gp_models::{GesIDNet, GesIDNetConfig, LstmNet, PointModel, PointNet, ProfileCnn};
use gp_nn::{softmax_rows, Adam, Matrix, Parameterized};
use gp_pipeline::{Augmenter, AugmenterConfig, LabeledSample};
use gp_rd::{
    extract_sample as rd_extract_sample, RdFeatureConfig, RdInput, RdLabeledSample, RdNet,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The sensing representation a model (or a whole system) consumes.
///
/// GesturePrint's two-stage classify-then-identify structure is
/// representation-agnostic: the same [`TrainedModel`] /
/// [`crate::GesturePrint`] machinery dispatches on this enum, so a
/// point-cloud system and a range-Doppler system differ only in which
/// encoder and network run behind the shared surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensingBackend {
    /// Detected point clouds (`gp-pipeline` samples, the paper's path).
    PointCloud,
    /// Complex range-Doppler maps (`gp-rd` samples).
    RangeDoppler,
}

impl SensingBackend {
    /// Stable serialization tag (persisted in artifacts; do not rename).
    pub fn tag(self) -> &'static str {
        match self {
            SensingBackend::PointCloud => "point_cloud",
            SensingBackend::RangeDoppler => "range_doppler",
        }
    }
}

/// A borrowed sample of either sensing representation — the element
/// type of the batch-first inference surface. The batch entries
/// ([`TrainedModel::probabilities_batch`],
/// [`crate::GesturePrint::infer_batch`]) and
/// [`crate::GesturePrint::embedding_for_gesture`] take anything that
/// converts into it, so `&LabeledSample` and `&RdLabeledSample` go
/// through the same calls; a single sample is a batch of one.
#[derive(Debug, Clone, Copy)]
pub enum SampleRef<'a> {
    /// A point-cloud sample.
    Cloud(&'a LabeledSample),
    /// A range-Doppler sample.
    Rd(&'a RdLabeledSample),
}

impl SampleRef<'_> {
    /// The backend this sample belongs to.
    pub fn backend(&self) -> SensingBackend {
        match self {
            SampleRef::Cloud(_) => SensingBackend::PointCloud,
            SampleRef::Rd(_) => SensingBackend::RangeDoppler,
        }
    }
}

impl<'a> From<&'a LabeledSample> for SampleRef<'a> {
    fn from(s: &'a LabeledSample) -> Self {
        SampleRef::Cloud(s)
    }
}

impl<'a> From<&'a RdLabeledSample> for SampleRef<'a> {
    fn from(s: &'a RdLabeledSample) -> Self {
        SampleRef::Rd(s)
    }
}

/// The decision rule over a probability row: the index of the largest
/// probability, first on ties (like [`gp_nn::argmax`] over logits).
/// Recognition, identification, enrollment and
/// [`crate::classification_report`] all decide through it.
pub(crate) fn argmax(probs: &[f64]) -> usize {
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map_or(0, |(i, _)| i)
}

/// Which architecture to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's GesIDNet.
    GesIdNet,
    /// GesIDNet with the attention fusion disabled (ablation arm).
    GesIdNetNoFusion,
    /// PointNet-style baseline.
    PointNet,
    /// Position–Doppler profile CNN baseline.
    ProfileCnn,
    /// Temporal LSTM baseline.
    Lstm,
    /// Conv+recurrent range-Doppler classifier (`gp-rd` backend).
    RdNet,
}

impl ModelKind {
    /// Every architecture, in declaration order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::GesIdNet,
        ModelKind::GesIdNetNoFusion,
        ModelKind::PointNet,
        ModelKind::ProfileCnn,
        ModelKind::Lstm,
        ModelKind::RdNet,
    ];

    /// Stable serialization tag (persisted in artifacts; do not rename).
    pub fn tag(self) -> &'static str {
        match self {
            ModelKind::GesIdNet => "gesidnet",
            ModelKind::GesIdNetNoFusion => "gesidnet_no_fusion",
            ModelKind::PointNet => "pointnet",
            ModelKind::ProfileCnn => "profile_cnn",
            ModelKind::Lstm => "lstm",
            ModelKind::RdNet => "rdnet",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::GesIdNet => "GesIDNet",
            ModelKind::GesIdNetNoFusion => "GesIDNet w/o fusion",
            ModelKind::PointNet => "PointNet",
            ModelKind::ProfileCnn => "ProfileCNN",
            ModelKind::Lstm => "LSTM",
            ModelKind::RdNet => "RdNet",
        }
    }

    /// The sensing representation this architecture consumes.
    pub fn backend(self) -> SensingBackend {
        match self {
            ModelKind::RdNet => SensingBackend::RangeDoppler,
            _ => SensingBackend::PointCloud,
        }
    }

    /// Whether this is a range-Doppler architecture.
    pub fn is_rd(self) -> bool {
        self.backend() == SensingBackend::RangeDoppler
    }
}

impl gp_codec::Encode for ModelKind {
    fn encode(&self) -> gp_codec::Value {
        gp_codec::Value::Str(self.tag().to_owned())
    }
}

impl gp_codec::Decode for ModelKind {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        let tag = value.as_str()?;
        ModelKind::ALL
            .into_iter()
            .find(|k| k.tag() == tag)
            .ok_or_else(|| gp_codec::DecodeError::new(format!("unknown model kind '{tag}'")))
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Architecture.
    pub model: ModelKind,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size (gradients accumulate across the batch before the
    /// optimizer step).
    pub batch_size: usize,
    /// Training-time augmentation (paper: ×3 copies, σ = 0.02); `None`
    /// for the "w/o DA" ablation arm.
    pub augment: Option<AugmenterConfig>,
    /// Feature encoding options.
    pub feature: FeatureConfig,
    /// RD feature encoding options; only consulted by RD architectures.
    /// `None` means [`RdFeatureConfig::default`] — and keeps the encoded
    /// form byte-identical to pre-RD configs (the field is emitted only
    /// when set, mirroring `ServeConfig`'s additive-field pattern).
    pub rd_feature: Option<RdFeatureConfig>,
    /// Master seed (initialisation, shuffling, augmentation, resampling).
    pub seed: u64,
}

impl TrainConfig {
    /// The RD feature configuration in effect (explicit or default).
    pub fn rd_feature(&self) -> RdFeatureConfig {
        self.rd_feature.clone().unwrap_or_default()
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            model: ModelKind::GesIdNet,
            epochs: 24,
            learning_rate: 2e-3,
            batch_size: 8,
            augment: Some(AugmenterConfig::default()),
            feature: FeatureConfig::default(),
            rd_feature: None,
            seed: 7,
        }
    }
}

impl gp_codec::Encode for TrainConfig {
    fn encode(&self) -> gp_codec::Value {
        let mut fields = vec![
            ("model", self.model.encode()),
            ("epochs", self.epochs.encode()),
            ("learning_rate", self.learning_rate.encode()),
            ("batch_size", self.batch_size.encode()),
            ("augment", self.augment.encode()),
            ("feature", self.feature.encode()),
            ("seed", self.seed.encode()),
        ];
        if let Some(rd) = &self.rd_feature {
            fields.push(("rd_feature", rd.encode()));
        }
        gp_codec::Value::record(fields)
    }
}

impl gp_codec::Decode for TrainConfig {
    fn decode(value: &gp_codec::Value) -> Result<Self, gp_codec::DecodeError> {
        Ok(TrainConfig {
            model: value.get("model")?,
            epochs: value.get("epochs")?,
            learning_rate: value.get("learning_rate")?,
            batch_size: value.get("batch_size")?,
            augment: value.get("augment")?,
            feature: value.get("feature")?,
            rd_feature: value.get_or("rd_feature", None)?,
            seed: value.get("seed")?,
        })
    }
}

/// The network behind a [`TrainedModel`], one variant per
/// [`SensingBackend`].
enum BackendModel {
    Point(Box<dyn PointModel>),
    Rd(RdNet),
}

/// A trained classifier bundled with its encoding configuration.
pub struct TrainedModel {
    model: BackendModel,
    feature: FeatureConfig,
    rd_feature: RdFeatureConfig,
    kind: ModelKind,
    classes: usize,
    encode_seed: u64,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("kind", &self.kind)
            .field("classes", &self.classes)
            .finish()
    }
}

impl TrainedModel {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The architecture kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The sensing representation this model consumes.
    pub fn backend(&self) -> SensingBackend {
        self.kind.backend()
    }

    /// Encodes a sample with the model's feature configuration
    /// (deterministic).
    pub fn encode_input(&self, sample: &LabeledSample) -> ModelInput {
        let mut rng = StdRng::seed_from_u64(self.encode_seed);
        encode(&sample.cloud, &sample.frame_clouds, &self.feature, &mut rng)
    }

    /// Encodes an RD sample with the model's RD feature configuration
    /// (deterministic — RD extraction draws no randomness).
    fn encode_rd_input(&self, sample: &RdLabeledSample) -> RdInput {
        rd_extract_sample(sample, &self.rd_feature)
    }

    /// Class probabilities for a batch of samples, one row per sample
    /// (a single sample is a batch of one). Takes `&LabeledSample` or
    /// `&RdLabeledSample` elements alike.
    ///
    /// # Panics
    ///
    /// Panics if a sample's backend does not match
    /// [`TrainedModel::backend`].
    pub fn probabilities_batch<'a, S: Copy + Into<SampleRef<'a>>>(
        &self,
        samples: &[S],
    ) -> Vec<Vec<f64>> {
        let samples: Vec<SampleRef<'a>> = samples.iter().map(|&s| s.into()).collect();
        self.probabilities_and_embeddings(&samples).0
    }

    /// The one inference body: encodes each sample for the model's
    /// backend, runs one batched forward, and returns the softmax rows
    /// plus, when the architecture has a fusion tap, the embedding rows
    /// out of the same forward (row `i` belongs to sample `i`). RdNet has
    /// no batched forward, so its rows are stacked per-sample forwards.
    ///
    /// # Panics
    ///
    /// Panics if a sample's backend does not match
    /// [`TrainedModel::backend`].
    pub(crate) fn probabilities_and_embeddings(
        &self,
        samples: &[SampleRef<'_>],
    ) -> (Vec<Vec<f64>>, Option<Matrix>) {
        if samples.is_empty() {
            return (Vec::new(), None);
        }
        let (logits, embeddings) = match &self.model {
            BackendModel::Point(model) => {
                let inputs: Vec<ModelInput> = samples
                    .iter()
                    .map(|&s| match s {
                        SampleRef::Cloud(s) => self.encode_input(s),
                        SampleRef::Rd(_) => {
                            panic!("range-Doppler inference on a point-cloud model")
                        }
                    })
                    .collect();
                model.logits_and_embedding_batch(&inputs)
            }
            BackendModel::Rd(model) => {
                let (logits, embeddings): (Vec<Vec<f32>>, Vec<Vec<f32>>) = samples
                    .iter()
                    .map(|&s| match s {
                        SampleRef::Rd(s) => model.logits_and_embedding(&self.encode_rd_input(s)),
                        SampleRef::Cloud(_) => {
                            panic!("point-cloud inference on a range-Doppler model")
                        }
                    })
                    .unzip();
                (
                    Matrix::from_rows(&logits),
                    Some(Matrix::from_rows(&embeddings)),
                )
            }
        };
        let probs = softmax_rows(&logits);
        let probs = (0..probs.rows())
            .map(|r| probs.row(r).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (probs, embeddings)
    }

    /// Feature taps for visualisation: GesIDNet's `F¹`, `F²` and `Y¹`;
    /// `None` for every other architecture.
    pub fn feature_taps(&self, sample: &LabeledSample) -> Option<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        match &self.model {
            BackendModel::Point(model) => model.feature_taps(&self.encode_input(sample)),
            BackendModel::Rd(_) => None,
        }
    }

    /// Builds an untrained point-cloud model shell (used when loading
    /// saved weights).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is an RD architecture — use
    /// [`TrainedModel::untrained_rd`].
    pub fn untrained(kind: ModelKind, classes: usize, feature: FeatureConfig) -> Self {
        assert!(
            !kind.is_rd(),
            "untrained() builds point-cloud shells; use untrained_rd() for {kind:?}"
        );
        let mut rng = StdRng::seed_from_u64(0);
        TrainedModel {
            model: BackendModel::Point(make_model(kind, classes, &feature, &mut rng)),
            feature,
            rd_feature: RdFeatureConfig::default(),
            kind,
            classes,
            encode_seed: TrainConfig::default().seed ^ 0xEEC0DE,
        }
    }

    /// Builds an untrained range-Doppler model shell (used when loading
    /// saved weights).
    pub fn untrained_rd(classes: usize, rd_feature: RdFeatureConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(0);
        TrainedModel {
            model: BackendModel::Rd(RdNet::new(classes, rd_feature.map_shape, &mut rng)),
            feature: FeatureConfig::default(),
            rd_feature,
            kind: ModelKind::RdNet,
            classes,
            encode_seed: TrainConfig::default().seed ^ 0xEEC0DE,
        }
    }

    pub(crate) fn model_mut(&mut self) -> &mut dyn gp_nn::Parameterized {
        match &mut self.model {
            BackendModel::Point(m) => &mut **m,
            BackendModel::Rd(m) => m,
        }
    }

    pub(crate) fn model_ref(&self) -> &dyn gp_nn::Parameterized {
        match &self.model {
            BackendModel::Point(m) => &**m,
            BackendModel::Rd(m) => m,
        }
    }

    /// The feature-encoding configuration the model was trained with.
    pub fn feature(&self) -> &FeatureConfig {
        &self.feature
    }

    /// The RD feature-encoding configuration (meaningful for RD models;
    /// the default placeholder otherwise).
    pub fn rd_feature(&self) -> &RdFeatureConfig {
        &self.rd_feature
    }

    pub(crate) fn encode_seed(&self) -> u64 {
        self.encode_seed
    }

    pub(crate) fn set_encode_seed(&mut self, seed: u64) {
        self.encode_seed = seed;
    }
}

fn make_model(
    kind: ModelKind,
    classes: usize,
    feature: &FeatureConfig,
    rng: &mut StdRng,
) -> Box<dyn PointModel> {
    match kind {
        ModelKind::GesIdNet => Box::new(GesIDNet::new(GesIDNetConfig::for_classes(classes), rng)),
        ModelKind::GesIdNetNoFusion => Box::new(GesIDNet::new(
            GesIDNetConfig {
                fusion: false,
                ..GesIDNetConfig::for_classes(classes)
            },
            rng,
        )),
        ModelKind::PointNet => Box::new(PointNet::new(classes, rng)),
        ModelKind::ProfileCnn => Box::new(ProfileCnn::new(classes, feature.profile_shape, rng)),
        ModelKind::Lstm => Box::new(LstmNet::new(classes, rng)),
        ModelKind::RdNet => panic!("RdNet is not a point-cloud model; use the RD training path"),
    }
}

/// Trains a classifier on `(sample, label)` pairs.
///
/// Labels need not equal `sample.gesture`/`sample.user` — the caller
/// chooses the task by supplying the label (this is exactly how the
/// paper trains the same architecture for both tasks on the same data).
///
/// # Panics
///
/// Panics if `samples` is empty or any label is `>= classes`.
pub fn train_classifier(
    samples: &[(&LabeledSample, usize)],
    classes: usize,
    config: &TrainConfig,
) -> TrainedModel {
    train_classifier_instrumented(samples, classes, config, None)
}

/// [`train_classifier`] with optional telemetry: when a registry is
/// given, per-epoch wall time lands in the `train.stage.epoch`
/// histogram and per-mini-batch step time (forward + backward +
/// optimizer update) in `train.stage.batch_step`, alongside
/// `train.samples` / `train.batches` counters — the same registry and
/// naming scheme the serving stack exports, so training runs can emit
/// `BENCH_*.json` artifacts through the identical snapshot path.
///
/// # Panics
///
/// Panics if `samples` is empty or any label is `>= classes`.
pub fn train_classifier_instrumented(
    samples: &[(&LabeledSample, usize)],
    classes: usize,
    config: &TrainConfig,
    telemetry: Option<&gp_telemetry::Registry>,
) -> TrainedModel {
    assert!(!samples.is_empty(), "cannot train on an empty sample set");
    assert!(
        samples.iter().all(|(_, l)| *l < classes),
        "label out of range"
    );
    assert!(
        !config.model.is_rd(),
        "train_classifier takes point-cloud samples; use train_rd_classifier for {:?}",
        config.model
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut model = make_model(config.model, classes, &config.feature, &mut rng);

    // Encode the training set once: original + augmented copies.
    let mut encoded: Vec<(ModelInput, usize)> = Vec::new();
    for (i, (sample, label)) in samples.iter().enumerate() {
        let mut enc_rng = StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37));
        encoded.push((
            encode(
                &sample.cloud,
                &sample.frame_clouds,
                &config.feature,
                &mut enc_rng,
            ),
            *label,
        ));
        if let Some(aug_cfg) = config.augment {
            let augmenter = Augmenter::new(aug_cfg);
            for copy in augmenter.augment(&sample.cloud, &mut enc_rng) {
                encoded.push((
                    encode(&copy, &sample.frame_clouds, &config.feature, &mut enc_rng),
                    *label,
                ));
            }
        }
    }

    run_epochs(
        &mut *model,
        encoded.len(),
        &mut rng,
        config,
        telemetry,
        |model, chunk| {
            let inputs: Vec<&ModelInput> = chunk.iter().map(|&i| &encoded[i].0).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| encoded[i].1).collect();
            model.train_step_batch(&inputs, &labels);
        },
    );

    TrainedModel {
        model: BackendModel::Point(model),
        feature: config.feature.clone(),
        rd_feature: RdFeatureConfig::default(),
        kind: config.model,
        classes,
        encode_seed: config.seed ^ 0xEEC0DE,
    }
}

/// Trains a range-Doppler classifier on `(sample, label)` pairs —
/// the RD counterpart of [`train_classifier`], with the same
/// deterministic shuffle/mini-batch/Adam loop. RD extraction is
/// deterministic and the synthesizer already injects thermal noise, so
/// there is no augmentation stage.
///
/// # Panics
///
/// Panics if `samples` is empty, any label is `>= classes`, or
/// `config.model` is not an RD architecture.
pub fn train_rd_classifier(
    samples: &[(&RdLabeledSample, usize)],
    classes: usize,
    config: &TrainConfig,
) -> TrainedModel {
    train_rd_classifier_instrumented(samples, classes, config, None)
}

/// [`train_rd_classifier`] with optional telemetry, recording into the
/// same `train.stage.*` histograms and `train.*` counters as the
/// point-cloud trainer.
///
/// # Panics
///
/// See [`train_rd_classifier`].
pub fn train_rd_classifier_instrumented(
    samples: &[(&RdLabeledSample, usize)],
    classes: usize,
    config: &TrainConfig,
    telemetry: Option<&gp_telemetry::Registry>,
) -> TrainedModel {
    assert!(!samples.is_empty(), "cannot train on an empty sample set");
    assert!(
        samples.iter().all(|(_, l)| *l < classes),
        "label out of range"
    );
    assert!(
        config.model.is_rd(),
        "train_rd_classifier requires an RD architecture, got {:?}",
        config.model
    );
    let rd_feature = config.rd_feature();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut model = RdNet::new(classes, rd_feature.map_shape, &mut rng);

    let encoded: Vec<(RdInput, usize)> = samples
        .iter()
        .map(|(s, l)| (rd_extract_sample(s, &rd_feature), *l))
        .collect();

    // RdNet has no batched backward: each chunk runs sample by sample.
    run_epochs(
        &mut model,
        encoded.len(),
        &mut rng,
        config,
        telemetry,
        |model, chunk| {
            for &i in chunk {
                let (input, label) = &encoded[i];
                model.train_step(input, *label);
            }
        },
    );

    TrainedModel {
        model: BackendModel::Rd(model),
        feature: config.feature.clone(),
        rd_feature,
        kind: config.model,
        classes,
        encode_seed: config.seed ^ 0xEEC0DE,
    }
}

/// The mini-batch loop both trainers share. Each epoch shuffles the
/// sample order with `rng`; each chunk of `config.batch_size` indices
/// (including the short tail chunk) accumulates gradients through
/// `step`, then Adam takes one step. With a registry, per-epoch wall
/// time lands in `train.stage.epoch`, per-chunk step time (forward +
/// backward + optimizer update) in `train.stage.batch_step`, and the
/// `train.samples` / `train.batches` counters advance.
fn run_epochs<M: Parameterized + ?Sized>(
    model: &mut M,
    samples: usize,
    rng: &mut StdRng,
    config: &TrainConfig,
    telemetry: Option<&gp_telemetry::Registry>,
    mut step: impl FnMut(&mut M, &[usize]),
) {
    let epoch_hist = telemetry.map(|t| t.histogram("train.stage.epoch"));
    let step_hist = telemetry.map(|t| t.histogram("train.stage.batch_step"));
    let sample_counter = telemetry.map(|t| t.counter("train.samples"));
    let batch_counter = telemetry.map(|t| t.counter("train.batches"));

    let mut adam = Adam::new(config.learning_rate);
    let mut order: Vec<usize> = (0..samples).collect();
    for _epoch in 0..config.epochs {
        let epoch_start = std::time::Instant::now();
        order.shuffle(rng);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let step_start = std::time::Instant::now();
            step(model, chunk);
            adam.begin_step();
            model.for_each_param(&mut |p, g| adam.update(p, g));
            if let Some(h) = &step_hist {
                h.record_duration(step_start.elapsed());
            }
            if let Some(c) = &sample_counter {
                c.add(chunk.len() as u64);
            }
            if let Some(c) = &batch_counter {
                c.inc();
            }
        }
        if let Some(h) = &epoch_hist {
            h.record_duration(epoch_start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_pointcloud::{Point, PointCloud, Vec3};

    /// Two synthetic "users": one gestures left of centre, one right.
    fn toy_samples() -> Vec<LabeledSample> {
        let mut out = Vec::new();
        for user in 0..2usize {
            for rep in 0..6usize {
                let shift = if user == 0 { -0.3 } else { 0.3 };
                let cloud: PointCloud = (0..24)
                    .map(|i| {
                        let t = i as f64 * 0.35 + rep as f64 * 0.1;
                        Point::new(
                            Vec3::new(shift + t.sin() * 0.2, 1.2 + t.cos() * 0.15, 1.0),
                            (t * 1.1).sin() * (1.0 + user as f64 * 0.4),
                            14.0,
                        )
                    })
                    .collect();
                out.push(LabeledSample {
                    cloud: cloud.clone(),
                    frame_clouds: vec![cloud; 4],
                    duration_frames: 20,
                    gesture: 0,
                    user,
                });
            }
        }
        out
    }

    /// The predicted class of one sample: a batch of one.
    fn predict<'a>(model: &TrainedModel, sample: impl Into<SampleRef<'a>>) -> usize {
        argmax(&model.probabilities_batch(&[sample.into()])[0])
    }

    fn quick_config(model: ModelKind) -> TrainConfig {
        TrainConfig {
            model,
            epochs: 12,
            augment: None,
            feature: FeatureConfig {
                num_points: 24,
                ..FeatureConfig::default()
            },
            ..TrainConfig::default()
        }
    }

    #[test]
    fn trains_and_separates_users() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick_config(ModelKind::GesIdNet));
        let correct = samples
            .iter()
            .filter(|&s| predict(&model, s) == s.user)
            .count();
        assert!(correct >= 10, "GesIDNet user split failed: {correct}/12");
    }

    #[test]
    fn probabilities_are_normalised() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick_config(ModelKind::PointNet));
        let p = model.probabilities_batch(&[&samples[0]]).remove(0);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn augmentation_inflates_training_set_without_breaking() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let config = TrainConfig {
            augment: Some(AugmenterConfig::default()),
            ..quick_config(ModelKind::GesIdNet)
        };
        let model = train_classifier(&pairs, 2, &config);
        let correct = samples
            .iter()
            .filter(|&s| predict(&model, s) == s.user)
            .count();
        assert!(correct >= 10, "augmented training failed: {correct}/12");
    }

    #[test]
    fn batched_probabilities_match_sequential() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick_config(ModelKind::GesIdNet));
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let batched = model.probabilities_batch(&refs);
        assert_eq!(batched.len(), samples.len());
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(batched[i], model.probabilities_batch(&[s])[0], "sample {i}");
        }
        assert!(model.probabilities_batch::<&LabeledSample>(&[]).is_empty());
    }

    #[test]
    fn instrumented_training_records_stage_histograms() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let cfg = quick_config(ModelKind::PointNet);
        let registry = gp_telemetry::Registry::new();
        let _ = train_classifier_instrumented(&pairs, 2, &cfg, Some(&registry));
        let snap = registry.snapshot();
        let epochs = snap.histograms["train.stage.epoch"].count();
        assert_eq!(epochs, cfg.epochs as u64);
        let batches_per_epoch = samples.len().div_ceil(cfg.batch_size) as u64;
        assert_eq!(
            snap.histograms["train.stage.batch_step"].count(),
            epochs * batches_per_epoch
        );
        assert_eq!(
            snap.counters["train.samples"],
            (samples.len() * cfg.epochs) as u64
        );
        assert_eq!(snap.counters["train.batches"], epochs * batches_per_epoch);
    }

    #[test]
    fn instrumented_and_plain_training_agree() {
        // Telemetry is observation only: the trained weights must be
        // identical with and without a registry attached.
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let cfg = quick_config(ModelKind::GesIdNet);
        let registry = gp_telemetry::Registry::new();
        let a = train_classifier(&pairs, 2, &cfg);
        let b = train_classifier_instrumented(&pairs, 2, &cfg, Some(&registry));
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        assert_eq!(a.probabilities_batch(&refs), b.probabilities_batch(&refs));
    }

    #[test]
    fn deterministic_training() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let cfg = quick_config(ModelKind::PointNet);
        let a = train_classifier(&pairs, 2, &cfg);
        let b = train_classifier(&pairs, 2, &cfg);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        assert_eq!(a.probabilities_batch(&refs), b.probabilities_batch(&refs));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_training_panics() {
        train_classifier(&[], 2, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, 5)).collect();
        train_classifier(&pairs, 2, &TrainConfig::default());
    }

    /// Hand-built RD samples: the user's energy blob sits above or
    /// below the zero-Doppler row.
    fn toy_rd_samples(reps: usize) -> Vec<RdLabeledSample> {
        let cfg = gp_rd::RdConfig::default();
        let mut out = Vec::new();
        for user in 0..2usize {
            for rep in 0..reps {
                let d = if user == 0 { 4 } else { 12 };
                let frames: Vec<gp_rd::RdFrame> = (0..8)
                    .map(|i| {
                        let mut f = gp_rd::RdFrame::zeros(&cfg, i as f64 * 0.1);
                        let r = 18 + (rep + i) % 3;
                        f.power[d * cfg.range_bins + r] = 40.0 + rep as f64;
                        f.power[(d + 1) * cfg.range_bins + r] = 25.0;
                        f
                    })
                    .collect();
                out.push(RdLabeledSample {
                    frames,
                    duration_frames: 8,
                    gesture: 0,
                    user,
                });
            }
        }
        out
    }

    fn rd_config() -> TrainConfig {
        TrainConfig {
            model: ModelKind::RdNet,
            epochs: 16,
            learning_rate: 5e-3,
            augment: None,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn rd_training_learns_toy_split() {
        let samples = toy_rd_samples(6);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_rd_classifier(&pairs, 2, &rd_config());
        assert_eq!(model.backend(), SensingBackend::RangeDoppler);
        let correct = samples
            .iter()
            .filter(|&s| predict(&model, s) == s.user)
            .count();
        assert!(correct >= 10, "RdNet user split failed: {correct}/12");
        let (_, embeddings) = model.probabilities_and_embeddings(&[(&samples[0]).into()]);
        assert_eq!(embeddings.expect("RdNet has a fusion tap").cols(), 48);
    }

    #[test]
    fn rd_training_is_deterministic() {
        let samples = toy_rd_samples(4);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let a = train_rd_classifier(&pairs, 2, &rd_config());
        let b = train_rd_classifier(&pairs, 2, &rd_config());
        let refs: Vec<&RdLabeledSample> = samples.iter().collect();
        let batched = a.probabilities_batch(&refs);
        assert_eq!(batched, b.probabilities_batch(&refs));
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(batched[i], a.probabilities_batch(&[s])[0], "sample {i}");
        }
    }

    #[test]
    #[should_panic(expected = "use train_rd_classifier")]
    fn point_trainer_rejects_rd_kind() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let cfg = TrainConfig {
            model: ModelKind::RdNet,
            ..TrainConfig::default()
        };
        train_classifier(&pairs, 2, &cfg);
    }

    #[test]
    #[should_panic(expected = "requires an RD architecture")]
    fn rd_trainer_rejects_point_kind() {
        let samples = toy_rd_samples(2);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        train_rd_classifier(&pairs, 2, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "point-cloud inference on a range-Doppler model")]
    fn backend_mismatch_panics() {
        let samples = toy_samples();
        let model = TrainedModel::untrained_rd(2, RdFeatureConfig::default());
        model.probabilities_batch(&[&samples[0]]);
    }

    #[test]
    #[should_panic(expected = "range-Doppler inference on a point-cloud model")]
    fn rd_sample_on_point_model_panics() {
        let samples = toy_rd_samples(1);
        let model = TrainedModel::untrained(ModelKind::PointNet, 2, FeatureConfig::default());
        model.probabilities_batch(&[&samples[0]]);
    }

    #[test]
    fn train_config_encoding_is_stable_without_rd_field() {
        use gp_codec::{Decode, Encode};
        // Pre-RD configs must encode byte-identically: the rd_feature
        // field is additive and only emitted when set.
        let cfg = TrainConfig::default();
        let value = cfg.encode();
        let map = value.as_map().unwrap();
        assert!(
            map.iter().all(|(k, _)| k != "rd_feature"),
            "default config must not emit rd_feature"
        );
        assert_eq!(TrainConfig::decode(&value).unwrap(), cfg);

        let rd_cfg = TrainConfig {
            rd_feature: Some(RdFeatureConfig {
                max_frames: 12,
                ..RdFeatureConfig::default()
            }),
            ..TrainConfig::default()
        };
        let roundtrip = TrainConfig::decode(&rd_cfg.encode()).unwrap();
        assert_eq!(roundtrip, rd_cfg);
    }
}
