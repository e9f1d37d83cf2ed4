//! Classifier training with the paper's augmentation scheme.

use gp_models::features::{encode, encode_draws, FeatureConfig, ModelInput};
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
/// type of the batch-first training and inference surface.
/// [`train_classifier`], the batch entries
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

    /// The sample's ground-truth `(gesture, user)` labels.
    pub(crate) fn labels(&self) -> (usize, usize) {
        match self {
            SampleRef::Cloud(s) => (s.gesture, s.user),
            SampleRef::Rd(s) => (s.gesture, s.user),
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
    Rd(Box<RdNet>),
}

/// Samples encoded for one backend's network, row `i` from sample `i`:
/// what [`TrainedModel::encode`] hands [`TrainedModel::forward`].
pub(crate) enum Encoded {
    /// Point-cloud inputs.
    Point(Vec<ModelInput>),
    /// Range-Doppler inputs.
    Rd(Vec<RdInput>),
}

impl Encoded {
    /// Splits the rows into one batch per group of `groups` (sample
    /// indices, each row in exactly one group), in group order and, in a
    /// group, in index order. Group `k` feeds `models[k]`: a row moves
    /// into its batch when that model encodes the row's sample bit for
    /// bit as `encoder`, which encoded the rows, did
    /// ([`TrainedModel::encodes_like`]); otherwise that model encodes the
    /// sample itself.
    pub(crate) fn split(
        self,
        encoder: &TrainedModel,
        samples: &[SampleRef<'_>],
        groups: &[Vec<usize>],
        models: &[&TrainedModel],
    ) -> Vec<Encoded> {
        fn split<I>(
            rows: Vec<I>,
            groups: &[Vec<usize>],
            reuse: impl Fn(usize, usize) -> bool,
            encode: impl Fn(usize, usize) -> I,
        ) -> Vec<Vec<I>> {
            let mut rows: Vec<Option<I>> = rows.into_iter().map(Some).collect();
            groups
                .iter()
                .enumerate()
                .map(|(k, indices)| {
                    indices
                        .iter()
                        .map(|&i| {
                            let row = rows[i].take().expect("a row joins one group");
                            if reuse(k, i) {
                                row
                            } else {
                                encode(k, i)
                            }
                        })
                        .collect()
                })
                .collect()
        }
        let reuse = |k: usize, i: usize| encoder.encodes_like(models[k], samples[i]);
        match self {
            Encoded::Point(rows) => split(rows, groups, reuse, |k, i| {
                models[k].point_input(samples[i])
            })
            .into_iter()
            .map(Encoded::Point)
            .collect(),
            Encoded::Rd(rows) => split(rows, groups, reuse, |k, i| models[k].rd_input(samples[i]))
                .into_iter()
                .map(Encoded::Rd)
                .collect(),
        }
    }
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

    /// [`TrainedModel::encode_input`] for a sample of either backend.
    ///
    /// # Panics
    ///
    /// Panics on a range-Doppler sample.
    fn point_input(&self, sample: SampleRef<'_>) -> ModelInput {
        match sample {
            SampleRef::Cloud(s) => self.encode_input(s),
            SampleRef::Rd(_) => panic!("range-Doppler inference on a point-cloud model"),
        }
    }

    /// Encodes an RD sample with the model's RD feature configuration
    /// (deterministic — RD extraction draws no randomness).
    ///
    /// # Panics
    ///
    /// Panics on a point-cloud sample.
    fn rd_input(&self, sample: SampleRef<'_>) -> RdInput {
        match sample {
            SampleRef::Rd(s) => rd_extract_sample(s, &self.rd_feature),
            SampleRef::Cloud(_) => panic!("point-cloud inference on a range-Doppler model"),
        }
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
        self.forward(&self.encode(&samples)).0
    }

    /// The encode half of inference: each sample encoded for the
    /// model's backend, row `i` from sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if a sample's backend does not match
    /// [`TrainedModel::backend`].
    pub(crate) fn encode(&self, samples: &[SampleRef<'_>]) -> Encoded {
        match &self.model {
            BackendModel::Point(_) => {
                Encoded::Point(samples.iter().map(|&s| self.point_input(s)).collect())
            }
            BackendModel::Rd(_) => Encoded::Rd(samples.iter().map(|&s| self.rd_input(s)).collect()),
        }
    }

    /// The forward half of inference: one batched forward over `inputs`,
    /// returning the softmax rows plus, when the architecture has a
    /// fusion tap, the embedding rows out of the same forward (row `i`
    /// belongs to input `i`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is a non-empty batch of the other backend.
    pub(crate) fn forward(&self, inputs: &Encoded) -> (Vec<Vec<f64>>, Option<Matrix>) {
        let (logits, embeddings) = match (&self.model, inputs) {
            (_, Encoded::Point(v)) if v.is_empty() => return (Vec::new(), None),
            (_, Encoded::Rd(v)) if v.is_empty() => return (Vec::new(), None),
            (BackendModel::Point(model), Encoded::Point(inputs)) => {
                model.logits_and_embedding_batch(inputs)
            }
            (BackendModel::Rd(model), Encoded::Rd(inputs)) => {
                let (logits, embeddings) = model.logits_and_embedding_batch(inputs);
                (logits, Some(embeddings))
            }
            (BackendModel::Point(_), Encoded::Rd(_)) => {
                panic!("range-Doppler inference on a point-cloud model")
            }
            (BackendModel::Rd(_), Encoded::Point(_)) => {
                panic!("point-cloud inference on a range-Doppler model")
            }
        };
        let probs = softmax_rows(&logits);
        let probs = (0..probs.rows())
            .map(|r| probs.row(r).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (probs, embeddings)
    }

    /// Whether `other` encodes `sample` bit for bit as this model does,
    /// so that this model's input can feed `other`'s forward. RD
    /// extraction is deterministic, so equal RD configurations suffice.
    /// A point-cloud encode draws from its seeded stream only when it
    /// pads the cloud ([`encode_draws`]), so equal feature
    /// configurations suffice without a draw, and with one the encode
    /// seeds must match too.
    pub(crate) fn encodes_like(&self, other: &TrainedModel, sample: SampleRef<'_>) -> bool {
        match sample {
            SampleRef::Cloud(s) => {
                self.feature == other.feature
                    && (self.encode_seed == other.encode_seed
                        || !encode_draws(&s.cloud, &self.feature))
            }
            SampleRef::Rd(_) => self.rd_feature == other.rd_feature,
        }
    }

    /// Feature taps for visualisation: GesIDNet's `F¹`, `F²` and `Y¹`;
    /// `None` for every other architecture.
    pub fn feature_taps(&self, sample: &LabeledSample) -> Option<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        match &self.model {
            BackendModel::Point(model) => model.feature_taps(&self.encode_input(sample)),
            BackendModel::Rd(_) => None,
        }
    }

    /// Builds an untrained model of `kind`: the trainer's starting
    /// point and the shell [`crate::ModelArtifact::into_model`] loads
    /// weights into. `rng` draws the initial weights. `max_values`
    /// bounds the declared size before any layer is allocated: the
    /// loader passes what its weight stream can hold, the trainer
    /// `usize::MAX`.
    ///
    /// # Errors
    ///
    /// A message naming the shape when `kind` pools a 2-D input
    /// (ProfileCNN's `feature.profile_shape`, RdNet's
    /// `rd_feature.map_shape`) with a side of 0 or not divisible by 4, or
    /// naming `feature.num_points` when a point-cloud `kind` would
    /// encode samples into zero points. A message naming the size when
    /// `classes`, or a pooled shape's cell count after both pools,
    /// exceeds `max_values`: each class owns a bias value in the head
    /// and each pooled cell a weight in the layer after the conv stack,
    /// so no stream that small fills the model, and sizing it could ask
    /// for more memory than exists.
    pub(crate) fn build(
        kind: ModelKind,
        classes: usize,
        feature: &FeatureConfig,
        rd_feature: &RdFeatureConfig,
        encode_seed: u64,
        max_values: usize,
        rng: &mut StdRng,
    ) -> Result<Self, String> {
        if kind.backend() == SensingBackend::PointCloud && feature.num_points == 0 {
            return Err(format!(
                "{} needs a feature.num_points above 0",
                kind.name()
            ));
        }
        if classes > max_values {
            return Err(format!(
                "{} declares {classes} classes, more than its {max_values} parameter values",
                kind.name()
            ));
        }
        let pooled = match kind {
            ModelKind::ProfileCnn => Some(("feature.profile_shape", feature.profile_shape)),
            ModelKind::RdNet => Some(("rd_feature.map_shape", rd_feature.map_shape)),
            _ => None,
        };
        if let Some((field, (rows, cols))) = pooled {
            if rows == 0 || cols == 0 || rows % 4 != 0 || cols % 4 != 0 {
                return Err(format!(
                    "{} needs a {field} with sides above 0 and divisible by 4, got ({rows}, {cols})",
                    kind.name()
                ));
            }
            if (rows / 4).saturating_mul(cols / 4) > max_values {
                return Err(format!(
                    "{} declares a {field} of ({rows}, {cols}), more pooled cells than its {max_values} parameter values",
                    kind.name()
                ));
            }
        }
        let gesidnet = |fusion| GesIDNetConfig {
            fusion,
            ..GesIDNetConfig::for_classes(classes)
        };
        let model = match kind {
            ModelKind::GesIdNet => {
                BackendModel::Point(Box::new(GesIDNet::new(gesidnet(true), rng)))
            }
            ModelKind::GesIdNetNoFusion => {
                BackendModel::Point(Box::new(GesIDNet::new(gesidnet(false), rng)))
            }
            ModelKind::PointNet => BackendModel::Point(Box::new(PointNet::new(classes, rng))),
            ModelKind::ProfileCnn => BackendModel::Point(Box::new(ProfileCnn::new(
                classes,
                feature.profile_shape,
                rng,
            ))),
            ModelKind::Lstm => BackendModel::Point(Box::new(LstmNet::new(classes, rng))),
            ModelKind::RdNet => {
                BackendModel::Rd(Box::new(RdNet::new(classes, rd_feature.map_shape, rng)))
            }
        };
        Ok(TrainedModel {
            model,
            feature: feature.clone(),
            rd_feature: rd_feature.clone(),
            kind,
            classes,
            encode_seed,
        })
    }

    pub(crate) fn model_mut(&mut self) -> &mut dyn gp_nn::Parameterized {
        match &mut self.model {
            BackendModel::Point(m) => &mut **m,
            BackendModel::Rd(m) => &mut **m,
        }
    }

    pub(crate) fn model_ref(&self) -> &dyn gp_nn::Parameterized {
        match &self.model {
            BackendModel::Point(m) => &**m,
            BackendModel::Rd(m) => &**m,
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
}

/// Trains a classifier on `(sample, label)` pairs of either backend.
///
/// Labels need not equal the sample's gesture or user — the caller
/// chooses the task by supplying the label (this is exactly how the
/// paper trains the same architecture for both tasks on the same data).
/// `config.model` picks the architecture and with it the backend
/// ([`ModelKind::backend`]). Point-cloud samples are encoded once, plus
/// `config.augment`'s jittered copies; range-Doppler samples are
/// extracted once with [`TrainConfig::rd_feature`] (extraction is
/// deterministic and the synthesizer already injects thermal noise, so
/// there is no augmentation stage). Both then run the same
/// deterministic shuffle/mini-batch/Adam loop.
///
/// With a telemetry registry, per-epoch wall time lands in the
/// `train.stage.epoch` histogram and per-mini-batch step time (forward +
/// backward + optimizer update) in `train.stage.batch_step`, alongside
/// `train.samples` / `train.batches` counters — the same registry and
/// naming scheme the serving stack exports, so training runs can emit
/// `BENCH_*.json` artifacts through the identical snapshot path.
/// Telemetry only observes: the trained weights are the same without it.
///
/// # Panics
///
/// Panics if `samples` is empty, any label is `>= classes`, a sample is
/// not of `config.model`'s backend, or `config` gives the architecture a
/// shape it cannot pool: ProfileCNN's `feature.profile_shape` or RdNet's
/// `rd_feature` map shape with a side of 0 or not divisible by 4, or a
/// point-cloud architecture a `feature.num_points` of 0.
pub fn train_classifier<'a, S: Copy + Into<SampleRef<'a>>>(
    samples: &[(S, usize)],
    classes: usize,
    config: &TrainConfig,
    telemetry: Option<&gp_telemetry::Registry>,
) -> TrainedModel {
    fit(
        Untrained::build(classes, config),
        samples,
        config,
        telemetry,
    )
}

/// The first half of [`train_classifier`]: the model with its seeded
/// initial weights, and the random stream [`fit`] draws its shuffles
/// from. The system trainer builds on one thread and fits on another.
pub(crate) struct Untrained {
    trained: TrainedModel,
    rng: StdRng,
}

impl Untrained {
    /// Builds `config.model` with `classes` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `config` gives the architecture a shape it cannot
    /// pool (see [`train_classifier`]).
    pub(crate) fn build(classes: usize, config: &TrainConfig) -> Untrained {
        let rd_feature = match config.model.backend() {
            SensingBackend::PointCloud => RdFeatureConfig::default(),
            SensingBackend::RangeDoppler => config.rd_feature(),
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let trained = TrainedModel::build(
            config.model,
            classes,
            &config.feature,
            &rd_feature,
            config.seed ^ 0xEEC0DE,
            usize::MAX,
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("invalid training config: {e}"));
        Untrained { trained, rng }
    }
}

/// The second half of [`train_classifier`]: trains `untrained` on
/// `(sample, label)` pairs with the `config` it was built from.
///
/// # Panics
///
/// As [`train_classifier`], on the samples.
pub(crate) fn fit<'a, S: Copy + Into<SampleRef<'a>>>(
    untrained: Untrained,
    samples: &[(S, usize)],
    config: &TrainConfig,
    telemetry: Option<&gp_telemetry::Registry>,
) -> TrainedModel {
    let Untrained {
        mut trained,
        mut rng,
    } = untrained;
    assert!(!samples.is_empty(), "cannot train on an empty sample set");
    assert!(
        samples.iter().all(|(_, l)| *l < trained.classes()),
        "label out of range"
    );
    let rd_feature = trained.rd_feature().clone();
    let wrong_backend = || -> ! {
        panic!(
            "training sample backend does not match {}, which trains on {} samples",
            config.model.name(),
            config.model.backend().tag()
        )
    };

    match &mut trained.model {
        BackendModel::Point(model) => {
            // Encode the training set once: original + augmented copies.
            let mut encoded: Vec<(ModelInput, usize)> = Vec::new();
            for (i, &(sample, label)) in samples.iter().enumerate() {
                let SampleRef::Cloud(sample) = sample.into() else {
                    wrong_backend()
                };
                let mut enc_rng =
                    StdRng::seed_from_u64(config.seed ^ (i as u64).wrapping_mul(0x9E37));
                encoded.push((
                    encode(
                        &sample.cloud,
                        &sample.frame_clouds,
                        &config.feature,
                        &mut enc_rng,
                    ),
                    label,
                ));
                if let Some(aug_cfg) = config.augment {
                    let augmenter = Augmenter::new(aug_cfg);
                    for copy in augmenter.augment(&sample.cloud, &mut enc_rng) {
                        encoded.push((
                            encode(&copy, &sample.frame_clouds, &config.feature, &mut enc_rng),
                            label,
                        ));
                    }
                }
            }
            run_epochs(
                &mut **model,
                &encoded,
                &mut rng,
                config,
                telemetry,
                |m, x, y| m.train_step_batch(x, y),
            );
        }
        BackendModel::Rd(model) => {
            let encoded: Vec<(RdInput, usize)> = samples
                .iter()
                .map(|&(sample, label)| match sample.into() {
                    SampleRef::Rd(sample) => (rd_extract_sample(sample, &rd_feature), label),
                    SampleRef::Cloud(_) => wrong_backend(),
                })
                .collect();
            run_epochs(
                &mut **model,
                &encoded,
                &mut rng,
                config,
                telemetry,
                RdNet::train_step_batch,
            );
        }
    }
    trained
}

/// The mini-batch loop of [`train_classifier`], for either backend's
/// encoded set. Each epoch shuffles the sample order with `rng`; each
/// chunk of `config.batch_size` samples (including the short tail
/// chunk) accumulates gradients through one `train_step_batch` call,
/// then Adam takes one step. With a registry, per-epoch wall time lands
/// in `train.stage.epoch`, per-chunk step time (forward + backward +
/// optimizer update) in `train.stage.batch_step`, and the
/// `train.samples` / `train.batches` counters advance.
fn run_epochs<M: Parameterized + ?Sized, I>(
    model: &mut M,
    encoded: &[(I, usize)],
    rng: &mut StdRng,
    config: &TrainConfig,
    telemetry: Option<&gp_telemetry::Registry>,
    train_step_batch: impl Fn(&mut M, &[&I], &[usize]) -> f32,
) {
    let epoch_hist = telemetry.map(|t| t.histogram("train.stage.epoch"));
    let step_hist = telemetry.map(|t| t.histogram("train.stage.batch_step"));
    let sample_counter = telemetry.map(|t| t.counter("train.samples"));
    let batch_counter = telemetry.map(|t| t.counter("train.batches"));

    let mut adam = Adam::new(config.learning_rate);
    let mut order: Vec<usize> = (0..encoded.len()).collect();
    for _epoch in 0..config.epochs {
        let epoch_start = std::time::Instant::now();
        order.shuffle(rng);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let step_start = std::time::Instant::now();
            let inputs: Vec<&I> = chunk.iter().map(|&i| &encoded[i].0).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| encoded[i].1).collect();
            train_step_batch(model, &inputs, &labels);
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
        let model = train_classifier(&pairs, 2, &quick_config(ModelKind::GesIdNet), None);
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
        let model = train_classifier(&pairs, 2, &quick_config(ModelKind::PointNet), None);
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
        let model = train_classifier(&pairs, 2, &config, None);
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
        let model = train_classifier(&pairs, 2, &quick_config(ModelKind::GesIdNet), None);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let batched = model.probabilities_batch(&refs);
        assert_eq!(batched.len(), samples.len());
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(batched[i], model.probabilities_batch(&[s])[0], "sample {i}");
        }
        assert!(model.probabilities_batch::<&LabeledSample>(&[]).is_empty());
    }

    /// Trains `cfg` on user labels of its backend's toy set (no
    /// augmentation configured, so one encoded sample each); returns the
    /// set's size and the trained model's probabilities over it.
    fn train_toy(
        cfg: &TrainConfig,
        telemetry: Option<&gp_telemetry::Registry>,
    ) -> (usize, Vec<Vec<f64>>) {
        assert!(cfg.augment.is_none());
        if cfg.model.is_rd() {
            let samples = toy_rd_samples(6);
            let pairs: Vec<(&RdLabeledSample, usize)> =
                samples.iter().map(|s| (s, s.user)).collect();
            let model = train_classifier(&pairs, 2, cfg, telemetry);
            let refs: Vec<&RdLabeledSample> = samples.iter().collect();
            (samples.len(), model.probabilities_batch(&refs))
        } else {
            let samples = toy_samples();
            let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
            let model = train_classifier(&pairs, 2, cfg, telemetry);
            let refs: Vec<&LabeledSample> = samples.iter().collect();
            (samples.len(), model.probabilities_batch(&refs))
        }
    }

    #[test]
    fn instrumented_training_records_stage_histograms() {
        for cfg in [quick_config(ModelKind::PointNet), rd_config()] {
            let registry = gp_telemetry::Registry::new();
            let (samples, _) = train_toy(&cfg, Some(&registry));
            let snap = registry.snapshot();
            let kind = cfg.model;
            let epochs = snap.histograms["train.stage.epoch"].count();
            assert_eq!(epochs, cfg.epochs as u64, "{kind:?}");
            let batches_per_epoch = samples.div_ceil(cfg.batch_size) as u64;
            assert_eq!(
                snap.histograms["train.stage.batch_step"].count(),
                epochs * batches_per_epoch,
                "{kind:?}"
            );
            assert_eq!(
                snap.counters["train.samples"],
                (samples * cfg.epochs) as u64,
                "{kind:?}"
            );
            assert_eq!(
                snap.counters["train.batches"],
                epochs * batches_per_epoch,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn instrumented_and_plain_training_agree() {
        // Telemetry is observation only: the trained weights must be
        // identical with and without a registry attached.
        for cfg in [quick_config(ModelKind::GesIdNet), rd_config()] {
            let registry = gp_telemetry::Registry::new();
            let (_, plain) = train_toy(&cfg, None);
            let (_, instrumented) = train_toy(&cfg, Some(&registry));
            assert_eq!(plain, instrumented, "{:?}", cfg.model);
        }
    }

    #[test]
    fn deterministic_training() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let cfg = quick_config(ModelKind::PointNet);
        let a = train_classifier(&pairs, 2, &cfg, None);
        let b = train_classifier(&pairs, 2, &cfg, None);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        assert_eq!(a.probabilities_batch(&refs), b.probabilities_batch(&refs));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_training_panics() {
        train_classifier::<&LabeledSample>(&[], 2, &TrainConfig::default(), None);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, 5)).collect();
        train_classifier(&pairs, 2, &TrainConfig::default(), None);
    }

    /// Hand-built RD samples: the user's energy blob sits above or
    /// below the zero-Doppler row.
    fn toy_rd_samples(reps: usize) -> Vec<RdLabeledSample> {
        let mut out = Vec::new();
        for user in 0..2usize {
            for rep in 0..reps {
                let d = if user == 0 { 4 } else { 12 };
                let frames: Vec<gp_rd::RdFrame> = (0..8)
                    .map(|i| {
                        let mut f = gp_rd::RdFrame::zeros(16, 64, i as f64 * 0.1);
                        let r = 18 + (rep + i) % 3;
                        f.power[d * f.range_bins + r] = 40.0 + rep as f64;
                        f.power[(d + 1) * f.range_bins + r] = 25.0;
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
        let model = train_classifier(&pairs, 2, &rd_config(), None);
        assert_eq!(model.backend(), SensingBackend::RangeDoppler);
        let correct = samples
            .iter()
            .filter(|&s| predict(&model, s) == s.user)
            .count();
        assert!(correct >= 10, "RdNet user split failed: {correct}/12");
        let (_, embeddings) = model.forward(&model.encode(&[(&samples[0]).into()]));
        assert_eq!(embeddings.expect("RdNet has a fusion tap").cols(), 48);
    }

    #[test]
    fn rd_training_is_deterministic() {
        let samples = toy_rd_samples(4);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let a = train_classifier(&pairs, 2, &rd_config(), None);
        let b = train_classifier(&pairs, 2, &rd_config(), None);
        let refs: Vec<&RdLabeledSample> = samples.iter().collect();
        let batched = a.probabilities_batch(&refs);
        assert_eq!(batched, b.probabilities_batch(&refs));
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(batched[i], a.probabilities_batch(&[s])[0], "sample {i}");
        }
    }

    #[test]
    #[should_panic(expected = "training sample backend does not match RdNet")]
    fn point_trainer_rejects_rd_kind() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let cfg = TrainConfig {
            model: ModelKind::RdNet,
            ..TrainConfig::default()
        };
        train_classifier(&pairs, 2, &cfg, None);
    }

    #[test]
    #[should_panic(expected = "training sample backend does not match GesIDNet")]
    fn rd_trainer_rejects_point_kind() {
        let samples = toy_rd_samples(2);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        train_classifier(&pairs, 2, &TrainConfig::default(), None);
    }

    #[test]
    #[should_panic(expected = "invalid training config: ProfileCNN needs a feature.profile_shape")]
    fn trainer_rejects_an_unpoolable_shape() {
        let samples = toy_samples();
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let mut cfg = quick_config(ModelKind::ProfileCnn);
        cfg.feature.profile_shape = (5, 5);
        train_classifier(&pairs, 2, &cfg, None);
    }

    #[test]
    #[should_panic(expected = "invalid training config: RdNet needs a rd_feature.map_shape")]
    fn trainer_rejects_a_zero_sided_shape() {
        let samples = toy_rd_samples(1);
        let pairs: Vec<(&RdLabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let mut cfg = rd_config();
        cfg.rd_feature = Some(RdFeatureConfig {
            map_shape: (0, 0),
            ..RdFeatureConfig::default()
        });
        train_classifier(&pairs, 2, &cfg, None);
    }

    /// An untrained 2-class model of `kind` with default features.
    fn fresh(kind: ModelKind) -> TrainedModel {
        let mut rng = StdRng::seed_from_u64(0);
        let (feature, rd_feature) = (FeatureConfig::default(), RdFeatureConfig::default());
        TrainedModel::build(kind, 2, &feature, &rd_feature, 0, usize::MAX, &mut rng).unwrap()
    }

    #[test]
    #[should_panic(expected = "point-cloud inference on a range-Doppler model")]
    fn backend_mismatch_panics() {
        let samples = toy_samples();
        fresh(ModelKind::RdNet).probabilities_batch(&[&samples[0]]);
    }

    #[test]
    #[should_panic(expected = "range-Doppler inference on a point-cloud model")]
    fn rd_sample_on_point_model_panics() {
        let samples = toy_rd_samples(1);
        fresh(ModelKind::PointNet).probabilities_batch(&[&samples[0]]);
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
