//! Self-describing, versioned artifacts: the persistence layer of the
//! GesturePrint system.
//!
//! Every byte stream this workspace persists — trained models, full
//! two-stage systems, evaluation reports — travels inside one envelope:
//!
//! ```text
//! Artifact {
//!     schema_version,   // readers reject versions from the future
//!     kind,             // "gestureprint.model" | ".system" | ".report" | ...
//!     created_rev,      // crate version that wrote the artifact
//!     payload,          // kind-specific gp_codec::Value
//! }
//! ```
//!
//! serialised as compact [`gp_codec`] JSON. The envelope is what makes
//! artifacts *self-describing*: [`TrainedModel::load_artifact`] and
//! [`GesturePrint::load_artifact`] rebuild a model from bytes alone —
//! architecture kind, class count, feature configuration and the
//! per-sample encode seed all ride inside the payload, so no
//! out-of-band arguments can drift out of sync with the weights.
//!
//! Versioning policy: `schema_version` bumps only on breaking payload
//! changes; additive fields decode from older artifacts via
//! [`gp_codec::Value::get_or`] defaults. A reader accepts any version
//! `<=` its own [`SCHEMA_VERSION`] and fails typed
//! ([`ArtifactError::FutureSchema`]) on newer ones, so old binaries
//! never misread new state silently.

use crate::system::{GesturePrint, IdentificationMode};
use crate::train::{ModelKind, TrainedModel};
use gp_codec::{binary, json, Decode, DecodeError, Encode, Value};
use gp_models::features::FeatureConfig;
use gp_nn::serialize::{load_params, save_params, LoadParamsError};
use gp_rd::RdFeatureConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The envelope schema version this build reads and writes.
pub const SCHEMA_VERSION: u32 = 1;

/// Magic prefix of binary-format artifacts. The first byte is not a
/// legal UTF-8 start byte, so no JSON artifact can collide with it —
/// [`Artifact::from_bytes`] sniffs this prefix to route between the
/// two byte backends.
pub const BINARY_MAGIC: [u8; 4] = [0x8F, b'G', b'P', b'B'];

/// Byte backend an artifact is serialised with. Readers accept both
/// regardless of what was written; the format is a storage choice, not
/// a schema difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArtifactFormat {
    /// Compact [`gp_codec::json`] text (the historical default; weight
    /// streams ride as base64).
    #[default]
    Json,
    /// [`BINARY_MAGIC`] + the canonical [`gp_codec::binary`] encoding —
    /// weight streams ride as raw bytes, ~25-30% smaller end to end.
    Binary,
}

/// Well-known artifact kinds.
pub mod kinds {
    /// A single trained classifier ([`super::ModelArtifact`]).
    pub const MODEL: &str = "gestureprint.model";
    /// A full two-stage system (gesture model + identifiers + config).
    pub const SYSTEM: &str = "gestureprint.system";
    /// An evaluation report (metrics, figure data).
    pub const REPORT: &str = "gestureprint.report";
    /// A telemetry snapshot (`gp-telemetry` registry export).
    pub const TELEMETRY: &str = "gestureprint.telemetry";
    /// An enrollment gallery (`gp-store` per-user embedding centroids).
    pub const GALLERY: &str = "gestureprint.gallery";
}

/// Errors from reading an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The bytes were not valid UTF-8 / JSON / envelope shape.
    Malformed(String),
    /// The artifact is a different kind than the caller asked for.
    WrongKind {
        /// Kind the caller expected.
        expected: String,
        /// Kind stored in the envelope.
        found: String,
    },
    /// The artifact was written by a newer schema than this build reads.
    FutureSchema {
        /// Version stored in the envelope.
        stored: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The payload decoded, but its weight stream does not match the
    /// declared architecture.
    Params(LoadParamsError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::WrongKind { expected, found } => {
                write!(
                    f,
                    "artifact kind mismatch: expected '{expected}', found '{found}'"
                )
            }
            ArtifactError::FutureSchema { stored, supported } => write!(
                f,
                "artifact schema v{stored} is newer than this build's v{supported}"
            ),
            ArtifactError::Params(e) => write!(f, "weight stream mismatch: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> Self {
        ArtifactError::Malformed(e.to_string())
    }
}

impl From<LoadParamsError> for ArtifactError {
    fn from(e: LoadParamsError) -> Self {
        ArtifactError::Params(e)
    }
}

/// The versioned envelope wrapping every persisted payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Envelope schema version at write time.
    pub schema_version: u32,
    /// What the payload is (see [`kinds`]).
    pub kind: String,
    /// The crate version that wrote the artifact (informational; not
    /// validated on load).
    pub created_rev: String,
    /// Kind-specific payload.
    pub payload: Value,
}

impl Artifact {
    /// Wraps `payload` in a current-version envelope.
    pub fn new(kind: &str, payload: Value) -> Artifact {
        Artifact {
            schema_version: SCHEMA_VERSION,
            kind: kind.to_owned(),
            created_rev: env!("CARGO_PKG_VERSION").to_owned(),
            payload,
        }
    }

    /// Serialises the envelope as compact JSON bytes.
    ///
    /// # Panics
    ///
    /// Panics if the payload contains non-finite floats or nesting past
    /// the codec limit — both are producer bugs, not data conditions
    /// (use [`gp_codec::json::to_json`] directly to handle them as
    /// errors).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.clone().into_bytes()
    }

    /// Consuming form of [`Artifact::to_bytes`]: serialises without
    /// cloning the payload — the save paths use this, since model
    /// payloads carry multi-megabyte weight streams.
    ///
    /// # Panics
    ///
    /// Same contract as [`Artifact::to_bytes`].
    pub fn into_bytes(self) -> Vec<u8> {
        self.into_bytes_with(ArtifactFormat::Json)
    }

    /// Serialises the envelope in the chosen byte format.
    ///
    /// # Panics
    ///
    /// Panics on payloads past the codec nesting limit; additionally,
    /// JSON cannot carry non-finite floats (the binary format can).
    pub fn into_bytes_with(self, format: ArtifactFormat) -> Vec<u8> {
        let envelope = Value::record([
            ("schema_version", self.schema_version.encode()),
            ("kind", self.kind.encode()),
            ("created_rev", self.created_rev.encode()),
            ("payload", self.payload),
        ]);
        match format {
            ArtifactFormat::Json => json::to_json(&envelope)
                .expect("artifact payloads are finite and bounded")
                .into_bytes(),
            ArtifactFormat::Binary => {
                let body = binary::to_binary(&envelope).expect("artifact payloads are bounded");
                let mut out = Vec::with_capacity(BINARY_MAGIC.len() + body.len());
                out.extend_from_slice(&BINARY_MAGIC);
                out.extend_from_slice(&body);
                out
            }
        }
    }

    /// The byte format `bytes` was serialised with, if recognisable.
    pub fn sniff_format(bytes: &[u8]) -> Option<ArtifactFormat> {
        if bytes.starts_with(&BINARY_MAGIC) {
            Some(ArtifactFormat::Binary)
        } else if bytes.first() == Some(&b'{') {
            Some(ArtifactFormat::Json)
        } else {
            None
        }
    }

    /// Parses an envelope from bytes, enforcing the version policy.
    /// Both byte formats load through here — the [`BINARY_MAGIC`]
    /// prefix routes to the binary decoder, everything else is treated
    /// as JSON text.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] for bytes that are not a valid
    /// envelope, [`ArtifactError::FutureSchema`] for artifacts written
    /// by a newer schema.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        let value = if let Some(body) = bytes.strip_prefix(&BINARY_MAGIC[..]) {
            binary::from_binary(body)
                .map_err(|e| ArtifactError::Malformed(format!("bad binary envelope: {e}")))?
        } else {
            let text = std::str::from_utf8(bytes)
                .map_err(|e| ArtifactError::Malformed(format!("not UTF-8: {e}")))?;
            json::from_json(text).map_err(|e| ArtifactError::Malformed(format!("bad JSON: {e}")))?
        };
        let schema_version: u32 = value.get("schema_version")?;
        if schema_version > SCHEMA_VERSION {
            return Err(ArtifactError::FutureSchema {
                stored: schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        Ok(Artifact {
            schema_version,
            kind: value.get("kind")?,
            created_rev: value.get("created_rev")?,
            payload: value.field("payload")?.clone(),
        })
    }

    /// Fails with [`ArtifactError::WrongKind`] unless the envelope
    /// carries `kind`.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn expect_kind(&self, kind: &str) -> Result<(), ArtifactError> {
        if self.kind == kind {
            Ok(())
        } else {
            Err(ArtifactError::WrongKind {
                expected: kind.to_owned(),
                found: self.kind.clone(),
            })
        }
    }
}

/// The payload of a [`kinds::MODEL`] artifact: everything needed to
/// rebuild a [`TrainedModel`] — architecture kind, class count, feature
/// configuration, the deterministic encode seed, and the flat weight
/// stream of [`gp_nn::serialize`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Architecture to rebuild.
    pub kind: ModelKind,
    /// Class count of the head.
    pub classes: usize,
    /// Feature encoding the model was trained with.
    pub feature: FeatureConfig,
    /// RD feature encoding (meaningful for RD architectures; emitted
    /// only for them, so point-cloud artifacts stay byte-identical to
    /// the pre-RD schema).
    pub rd_feature: RdFeatureConfig,
    /// Seed of the deterministic per-sample encoding.
    pub encode_seed: u64,
    /// `gp_nn::serialize` flat weight stream.
    pub weights: Vec<u8>,
}

impl ModelArtifact {
    /// Snapshots a trained model's architecture + weights.
    pub fn from_model(model: &TrainedModel) -> ModelArtifact {
        ModelArtifact {
            kind: model.kind(),
            classes: model.classes(),
            feature: model.feature().clone(),
            rd_feature: model.rd_feature().clone(),
            encode_seed: model.encode_seed(),
            weights: save_params(model.model_ref()).into(),
        }
    }

    /// Rebuilds the model: architecture from the declared
    /// `(kind, classes, feature, rd_feature)` through the constructor
    /// the trainer uses, weights from the stream.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] when the declared architecture
    /// cannot be built (a pooled shape with a side not divisible by 4,
    /// or a point-cloud model with `feature.num_points` 0);
    /// [`ArtifactError::Params`] when the stream does not match the
    /// declared architecture (truncated, corrupt, or mislabeled).
    pub fn into_model(&self) -> Result<TrainedModel, ArtifactError> {
        let mut model = TrainedModel::build(
            self.kind,
            self.classes,
            &self.feature,
            &self.rd_feature,
            self.encode_seed,
            &mut StdRng::seed_from_u64(0),
        )
        .map_err(ArtifactError::Malformed)?;
        load_params(model.model_mut(), &self.weights)?;
        Ok(model)
    }
}

impl ModelArtifact {
    /// Consuming form of [`Encode::encode`]: moves the weight stream
    /// into the value instead of cloning it.
    pub fn into_value(self) -> Value {
        let mut fields = vec![
            ("kind", self.kind.encode()),
            ("classes", self.classes.encode()),
            ("feature", self.feature.encode()),
            ("encode_seed", self.encode_seed.encode()),
            ("weights", Value::Bytes(self.weights)),
        ];
        if self.kind.is_rd() {
            fields.push(("rd_feature", self.rd_feature.encode()));
        }
        Value::record(fields)
    }
}

impl Encode for ModelArtifact {
    fn encode(&self) -> Value {
        self.clone().into_value()
    }
}

impl Decode for ModelArtifact {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(ModelArtifact {
            kind: value.get("kind")?,
            classes: value.get("classes")?,
            feature: value.get("feature")?,
            rd_feature: value.get_or("rd_feature", RdFeatureConfig::default())?,
            encode_seed: value.get("encode_seed")?,
            weights: value.field("weights")?.as_bytes()?.to_vec(),
        })
    }
}

impl TrainedModel {
    /// Serialises the model as a self-describing [`kinds::MODEL`]
    /// artifact: the result carries its own architecture metadata and
    /// needs no out-of-band arguments to load.
    pub fn save_artifact(&self) -> Vec<u8> {
        self.save_artifact_with(ArtifactFormat::Json)
    }

    /// [`TrainedModel::save_artifact`] in the chosen byte format; both
    /// load through the same [`TrainedModel::load_artifact`].
    pub fn save_artifact_with(&self, format: ArtifactFormat) -> Vec<u8> {
        Artifact::new(kinds::MODEL, ModelArtifact::from_model(self).into_value())
            .into_bytes_with(format)
    }

    /// Rebuilds a model from [`TrainedModel::save_artifact`] bytes
    /// alone.
    ///
    /// # Errors
    ///
    /// See [`ArtifactError`]: malformed bytes, wrong artifact kind, a
    /// future schema version, or a weight/architecture mismatch all
    /// fail typed — never with a panic.
    pub fn load_artifact(bytes: &[u8]) -> Result<TrainedModel, ArtifactError> {
        let artifact = Artifact::from_bytes(bytes)?;
        artifact.expect_kind(kinds::MODEL)?;
        ModelArtifact::decode(&artifact.payload)?.into_model()
    }
}

impl GesturePrint {
    /// Serialises the full two-stage system — gesture model, every
    /// identifier, mode and class counts — as one [`kinds::SYSTEM`]
    /// artifact.
    pub fn save_artifact(&self) -> Vec<u8> {
        self.save_artifact_with(ArtifactFormat::Json)
    }

    /// [`GesturePrint::save_artifact`] in the chosen byte format; both
    /// load through the same [`GesturePrint::load_artifact`].
    pub fn save_artifact_with(&self, format: ArtifactFormat) -> Vec<u8> {
        let identifiers: Vec<Value> = self
            .identifiers()
            .iter()
            .map(|m| ModelArtifact::from_model(m).into_value())
            .collect();
        let payload = Value::record([
            ("mode", self.mode().encode()),
            ("gestures", self.gestures().encode()),
            ("users", self.users().encode()),
            (
                "gesture_model",
                ModelArtifact::from_model(self.gesture_model()).into_value(),
            ),
            ("identifiers", Value::Seq(identifiers)),
        ]);
        Artifact::new(kinds::SYSTEM, payload).into_bytes_with(format)
    }

    /// Reconstructs a trained system from
    /// [`GesturePrint::save_artifact`] bytes alone, with bit-identical
    /// [`GesturePrint::infer`] results.
    ///
    /// # Errors
    ///
    /// See [`ArtifactError`]; additionally fails as
    /// [`ArtifactError::Malformed`] when the payload's parts disagree
    /// (identifier count vs mode, class counts vs declared sizes).
    pub fn load_artifact(bytes: &[u8]) -> Result<GesturePrint, ArtifactError> {
        let artifact = Artifact::from_bytes(bytes)?;
        artifact.expect_kind(kinds::SYSTEM)?;
        let payload = &artifact.payload;
        let mode: IdentificationMode = payload.get("mode")?;
        let gestures: usize = payload.get("gestures")?;
        let users: usize = payload.get("users")?;
        let gesture_model = ModelArtifact::decode(payload.field("gesture_model")?)?.into_model()?;
        let identifiers: Vec<TrainedModel> = payload
            .field("identifiers")?
            .as_seq()
            .map_err(ArtifactError::from)?
            .iter()
            .map(|v| ModelArtifact::decode(v)?.into_model())
            .collect::<Result<_, _>>()?;

        let expected_identifiers = match mode {
            IdentificationMode::Parallel => 1,
            IdentificationMode::Serialized => gestures,
        };
        if identifiers.len() != expected_identifiers {
            return Err(ArtifactError::Malformed(format!(
                "{} mode expects {expected_identifiers} identifier(s), artifact has {}",
                mode.tag(),
                identifiers.len()
            )));
        }
        if gesture_model.classes() != gestures {
            return Err(ArtifactError::Malformed(format!(
                "gesture model has {} classes, system declares {gestures} gestures",
                gesture_model.classes()
            )));
        }
        if let Some(bad) = identifiers.iter().find(|m| m.classes() != users) {
            return Err(ArtifactError::Malformed(format!(
                "identifier has {} classes, system declares {users} users",
                bad.classes()
            )));
        }
        if let Some(bad) = identifiers
            .iter()
            .find(|m| m.backend() != gesture_model.backend())
        {
            return Err(ArtifactError::Malformed(format!(
                "identifier backend {:?} disagrees with gesture model backend {:?}",
                bad.backend(),
                gesture_model.backend()
            )));
        }
        Ok(GesturePrint::from_parts(
            gesture_model,
            identifiers,
            mode,
            gestures,
            users,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::GesturePrintConfig;
    use crate::train::{train_classifier, TrainConfig};
    use gp_pipeline::LabeledSample;
    use gp_pointcloud::{Point, PointCloud, Vec3};

    /// 2 gestures × 2 users toy world (mirrors the system tests).
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
                                (t.sin() * 0.35, 0.02)
                            } else {
                                (0.02, t.sin() * 0.35)
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

    fn quick(kind: ModelKind) -> TrainConfig {
        TrainConfig {
            model: kind,
            epochs: 6,
            augment: None,
            feature: gp_models::features::FeatureConfig {
                num_points: 24,
                ..Default::default()
            },
            // Non-default seed: the artifact must carry the encode seed
            // for predictions to survive the round trip bit-exactly.
            seed: 1234,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn model_artifact_roundtrips_all_kinds_from_bytes_alone() {
        let samples = toy_samples(3);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        for kind in ModelKind::ALL.into_iter().filter(|k| !k.is_rd()) {
            let model = train_classifier(&pairs, 2, &quick(kind), None);
            let bytes = model.save_artifact();
            let restored = TrainedModel::load_artifact(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_eq!(restored.kind(), kind);
            assert_eq!(restored.classes(), 2);
            let refs: Vec<&LabeledSample> = samples.iter().collect();
            assert_eq!(
                model.probabilities_batch(&refs),
                restored.probabilities_batch(&refs),
                "{} prediction drifted across the artifact round trip",
                kind.name()
            );
        }
    }

    /// RD toy world mirroring the system tests.
    fn toy_rd_samples(reps: usize) -> Vec<gp_rd::RdLabeledSample> {
        let mut out = Vec::new();
        for gesture in 0..2usize {
            for user in 0..2usize {
                for rep in 0..reps {
                    let d = if user == 0 { 4 } else { 12 };
                    let r0 = if gesture == 0 { 10 } else { 36 };
                    let frames: Vec<gp_rd::RdFrame> = (0..6)
                        .map(|i| {
                            let mut f = gp_rd::RdFrame::zeros(16, 64, i as f64 * 0.1);
                            f.power[d * f.range_bins + r0 + (rep + i) % 4] = 40.0 + rep as f64;
                            f
                        })
                        .collect();
                    out.push(gp_rd::RdLabeledSample {
                        frames,
                        duration_frames: 6,
                        gesture,
                        user,
                    });
                }
            }
        }
        out
    }

    fn quick_rd() -> TrainConfig {
        TrainConfig {
            model: ModelKind::RdNet,
            epochs: 4,
            augment: None,
            seed: 1234,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn rd_model_artifact_roundtrips_both_formats() {
        let samples = toy_rd_samples(3);
        let pairs: Vec<(&gp_rd::RdLabeledSample, usize)> =
            samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick_rd(), None);
        for format in [ArtifactFormat::Json, ArtifactFormat::Binary] {
            let bytes = model.save_artifact_with(format);
            let restored =
                TrainedModel::load_artifact(&bytes).unwrap_or_else(|e| panic!("{format:?}: {e}"));
            assert_eq!(restored.kind(), ModelKind::RdNet);
            assert_eq!(restored.rd_feature(), model.rd_feature());
            let refs: Vec<&gp_rd::RdLabeledSample> = samples.iter().collect();
            assert_eq!(
                model.probabilities_batch(&refs),
                restored.probabilities_batch(&refs),
                "{format:?} RD prediction drifted across the round trip"
            );
        }
    }

    #[test]
    fn rd_artifact_carries_its_feature_config() {
        let samples = toy_rd_samples(2);
        let pairs: Vec<(&gp_rd::RdLabeledSample, usize)> =
            samples.iter().map(|s| (s, s.user)).collect();
        let cfg = TrainConfig {
            rd_feature: Some(RdFeatureConfig {
                max_frames: 12,
                ..RdFeatureConfig::default()
            }),
            ..quick_rd()
        };
        let model = train_classifier(&pairs, 2, &cfg, None);
        let restored = TrainedModel::load_artifact(&model.save_artifact()).unwrap();
        assert_eq!(restored.rd_feature().max_frames, 12);
        // Point-cloud artifacts must not grow the new field: the
        // golden-fixture compat gate depends on byte-stable payloads.
        let samples = toy_samples(2);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let point = train_classifier(&pairs, 2, &quick(ModelKind::PointNet), None);
        let payload = ModelArtifact::from_model(&point).into_value();
        assert!(payload
            .as_map()
            .unwrap()
            .iter()
            .all(|(k, _)| k != "rd_feature"));
    }

    #[test]
    fn rd_system_artifact_roundtrips() {
        let samples = toy_rd_samples(3);
        let refs: Vec<&gp_rd::RdLabeledSample> = samples.iter().collect();
        for mode in [IdentificationMode::Serialized, IdentificationMode::Parallel] {
            let system = GesturePrint::train_rd(
                &refs,
                2,
                2,
                &GesturePrintConfig {
                    mode,
                    train: quick_rd(),
                    threads: 2,
                },
            );
            let bytes = system.save_artifact_with(ArtifactFormat::Binary);
            let restored = GesturePrint::load_artifact(&bytes).expect("load RD system");
            assert_eq!(
                restored.backend(),
                crate::train::SensingBackend::RangeDoppler
            );
            for s in &samples {
                assert_eq!(system.infer_rd(s), restored.infer_rd(s), "{mode:?}");
            }
        }
    }

    #[test]
    fn system_artifact_roundtrips_both_modes() {
        let samples = toy_samples(4);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        // Both identification modes, and — in serialized mode — every
        // classic architecture: a system must reconstruct from bytes
        // alone with bit-identical inference for each ModelKind.
        let cases = [
            (IdentificationMode::Serialized, ModelKind::GesIdNet),
            (IdentificationMode::Serialized, ModelKind::PointNet),
            (IdentificationMode::Serialized, ModelKind::Lstm),
            (IdentificationMode::Parallel, ModelKind::GesIdNet),
        ];
        for (mode, kind) in cases {
            let system = GesturePrint::train(
                &refs,
                2,
                2,
                &GesturePrintConfig {
                    mode,
                    train: quick(kind),
                    threads: 2,
                },
            );
            let bytes = system.save_artifact();
            let restored = GesturePrint::load_artifact(&bytes).expect("load");
            assert_eq!(restored.mode(), mode);
            assert_eq!(restored.gestures(), 2);
            assert_eq!(restored.users(), 2);
            for s in &samples {
                assert_eq!(system.infer(s), restored.infer(s), "{mode:?} {kind:?}");
            }
            // The batched path goes through the same restored weights.
            assert_eq!(system.infer_batch(&refs), restored.infer_batch(&refs));
        }
    }

    #[test]
    fn wrong_kind_fails_typed() {
        let samples = toy_samples(2);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick(ModelKind::PointNet), None);
        let bytes = model.save_artifact();
        match GesturePrint::load_artifact(&bytes) {
            Err(ArtifactError::WrongKind { expected, found }) => {
                assert_eq!(expected, kinds::SYSTEM);
                assert_eq!(found, kinds::MODEL);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn future_schema_fails_typed() {
        let artifact = Artifact {
            schema_version: SCHEMA_VERSION + 1,
            kind: kinds::MODEL.into(),
            created_rev: "test".into(),
            payload: Value::Null,
        };
        match Artifact::from_bytes(&artifact.to_bytes()) {
            Err(ArtifactError::FutureSchema { stored, supported }) => {
                assert_eq!(stored, SCHEMA_VERSION + 1);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected FutureSchema, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bytes_fail_typed_never_panic() {
        for bytes in [
            &b""[..],
            b"garbage",
            b"{}",
            b"{\"schema_version\":1}",
            &[0xFF, 0xFE, 0x00],
        ] {
            assert!(
                matches!(
                    TrainedModel::load_artifact(bytes),
                    Err(ArtifactError::Malformed(_))
                ),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn truncated_and_corrupt_weight_streams_fail_typed() {
        let samples = toy_samples(2);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick(ModelKind::PointNet), None);

        // Truncate the weight stream inside an otherwise valid payload.
        let mut snapshot = ModelArtifact::from_model(&model);
        snapshot.weights.truncate(snapshot.weights.len() / 2);
        let bytes = Artifact::new(kinds::MODEL, snapshot.encode()).to_bytes();
        assert!(matches!(
            TrainedModel::load_artifact(&bytes),
            Err(ArtifactError::Params(_))
        ));

        // Mislabel the architecture: weights no longer fit the kind.
        let mut mislabeled = ModelArtifact::from_model(&model);
        mislabeled.kind = ModelKind::Lstm;
        let bytes = Artifact::new(kinds::MODEL, mislabeled.encode()).to_bytes();
        assert!(matches!(
            TrainedModel::load_artifact(&bytes),
            Err(ArtifactError::Params(_))
        ));
    }

    #[test]
    fn unpoolable_shapes_fail_typed_never_panic() {
        // ProfileCNN and RdNet pool their 2-D input twice, so each side
        // of its shape must be divisible by 4, and a point-cloud model
        // cannot encode a sample into zero points. An artifact declaring
        // such a shape is malformed, in either byte format, alone or
        // inside a system.
        let mut rng = StdRng::seed_from_u64(0);
        let mut fresh = |kind| {
            let (feature, rd_feature) = (FeatureConfig::default(), RdFeatureConfig::default());
            TrainedModel::build(kind, 2, &feature, &rd_feature, 0, &mut rng).unwrap()
        };
        let mut profile = ModelArtifact::from_model(&fresh(ModelKind::ProfileCnn));
        profile.feature.profile_shape = (5, 5);
        let mut rd = ModelArtifact::from_model(&fresh(ModelKind::RdNet));
        rd.rd_feature.map_shape = (5, 5);
        let mut pointless = ModelArtifact::from_model(&fresh(ModelKind::GesIdNet));
        pointless.feature.num_points = 0;
        let system = GesturePrint::from_parts(
            fresh(ModelKind::ProfileCnn),
            vec![fresh(ModelKind::ProfileCnn)],
            IdentificationMode::Parallel,
            2,
            2,
        );
        let system_payload = Artifact::from_bytes(&system.save_artifact())
            .unwrap()
            .payload
            .as_map()
            .unwrap()
            .clone();
        let names = |e: &ArtifactError, what: &str| matches!(e, ArtifactError::Malformed(m) if m.contains(what));
        for format in [ArtifactFormat::Json, ArtifactFormat::Binary] {
            for (bad, what) in [
                (&profile, "(5, 5)"),
                (&rd, "(5, 5)"),
                (&pointless, "feature.num_points"),
            ] {
                let bytes = Artifact::new(kinds::MODEL, bad.encode()).into_bytes_with(format);
                let err = TrainedModel::load_artifact(&bytes).unwrap_err();
                assert!(names(&err, what), "{:?}, {format:?}: {err}", bad.kind);
            }
            for (bad, what) in [(&profile, "(5, 5)"), (&pointless, "feature.num_points")] {
                let mut payload = system_payload.clone();
                payload.insert("gesture_model".into(), bad.encode());
                let bytes =
                    Artifact::new(kinds::SYSTEM, Value::Map(payload)).into_bytes_with(format);
                let err = GesturePrint::load_artifact(&bytes).unwrap_err();
                assert!(
                    names(&err, what),
                    "system, {:?}, {format:?}: {err}",
                    bad.kind
                );
            }
        }
    }

    #[test]
    fn system_artifact_consistency_checks() {
        let samples = toy_samples(2);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system = GesturePrint::train(
            &refs,
            2,
            2,
            &GesturePrintConfig {
                mode: IdentificationMode::Serialized,
                train: quick(ModelKind::PointNet),
                threads: 1,
            },
        );
        let artifact = Artifact::from_bytes(&system.save_artifact()).unwrap();

        // Drop one identifier: count no longer matches serialized mode.
        let mut map = artifact.payload.as_map().unwrap().clone();
        if let Some(Value::Seq(ids)) = map.get_mut("identifiers") {
            ids.pop();
        }
        let bytes = Artifact::new(kinds::SYSTEM, Value::Map(map)).to_bytes();
        assert!(matches!(
            GesturePrint::load_artifact(&bytes),
            Err(ArtifactError::Malformed(m)) if m.contains("identifier")
        ));

        // Declare a different gesture count than the model's head.
        let mut map = artifact.payload.as_map().unwrap().clone();
        map.insert("gestures".into(), Value::Int(5));
        let bytes = Artifact::new(kinds::SYSTEM, Value::Map(map)).to_bytes();
        assert!(GesturePrint::load_artifact(&bytes).is_err());
    }

    #[test]
    fn binary_artifacts_decode_bit_identical_to_json() {
        let samples = toy_samples(3);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick(ModelKind::GesIdNet), None);
        let json_bytes = model.save_artifact();
        let bin_bytes = model.save_artifact_with(ArtifactFormat::Binary);
        assert_eq!(
            Artifact::sniff_format(&json_bytes),
            Some(ArtifactFormat::Json)
        );
        assert_eq!(
            Artifact::sniff_format(&bin_bytes),
            Some(ArtifactFormat::Binary)
        );
        // Same envelope, either byte backend.
        assert_eq!(
            Artifact::from_bytes(&bin_bytes).unwrap(),
            Artifact::from_bytes(&json_bytes).unwrap()
        );
        let from_json = TrainedModel::load_artifact(&json_bytes).unwrap();
        let from_bin = TrainedModel::load_artifact(&bin_bytes).unwrap();
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let probs = model.probabilities_batch(&refs);
        assert_eq!(from_json.probabilities_batch(&refs), probs);
        assert_eq!(from_bin.probabilities_batch(&refs), probs);
    }

    #[test]
    fn binary_model_artifacts_are_at_least_25_percent_smaller() {
        // The size-regression gate: killing the base64 tax on the
        // weight stream must hold ≥25% end to end, not just on paper.
        let samples = toy_samples(2);
        let pairs: Vec<(&LabeledSample, usize)> = samples.iter().map(|s| (s, s.user)).collect();
        let model = train_classifier(&pairs, 2, &quick(ModelKind::GesIdNet), None);
        let json_len = model.save_artifact().len();
        let bin_len = model.save_artifact_with(ArtifactFormat::Binary).len();
        assert!(
            (bin_len as f64) <= (json_len as f64) * 0.75,
            "binary model artifact regressed: {bin_len} vs {json_len} JSON bytes"
        );
    }

    #[test]
    fn binary_system_artifact_roundtrips() {
        let samples = toy_samples(3);
        let refs: Vec<&LabeledSample> = samples.iter().collect();
        let system = GesturePrint::train(
            &refs,
            2,
            2,
            &GesturePrintConfig {
                mode: IdentificationMode::Serialized,
                train: quick(ModelKind::PointNet),
                threads: 2,
            },
        );
        let bytes = system.save_artifact_with(ArtifactFormat::Binary);
        let restored = GesturePrint::load_artifact(&bytes).expect("load binary system");
        for s in &samples {
            assert_eq!(system.infer(s), restored.infer(s));
        }
    }

    #[test]
    fn truncated_binary_artifacts_fail_typed() {
        let artifact = Artifact::new(kinds::REPORT, Value::record([("x", Value::Int(1))]));
        let bytes = artifact.into_bytes_with(ArtifactFormat::Binary);
        for cut in [BINARY_MAGIC.len(), BINARY_MAGIC.len() + 1, bytes.len() - 1] {
            assert!(matches!(
                Artifact::from_bytes(&bytes[..cut]),
                Err(ArtifactError::Malformed(_))
            ));
        }
        // Bare magic-less binary body is not UTF-8 → Malformed, no panic.
        assert!(matches!(
            Artifact::from_bytes(&bytes[BINARY_MAGIC.len()..]),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn envelope_fields_survive() {
        let artifact = Artifact::new(kinds::REPORT, Value::record([("x", Value::Int(1))]));
        let back = Artifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.created_rev, env!("CARGO_PKG_VERSION"));
        assert!(back.expect_kind(kinds::REPORT).is_ok());
    }
}
