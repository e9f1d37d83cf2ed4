//! Baseline classifiers representing the comparison systems' input
//! families (paper §VI-A2).
//!
//! The exact PanArch / Tesla / mGesNet / mSeeNet networks are built for
//! their authors' chirp configurations; what the comparison in Tab. II
//! needs is a representative of each *input format family* trained on the
//! same preprocessed samples:
//!
//! * [`PointNet`] — raw point set, shared MLP + global max pool (the
//!   PointNet core inside PanArch/Tesla),
//! * [`ProfileCnn`] — concentrated position–Doppler profile + small CNN
//!   (the mHomeGes/mTransSee family),
//! * [`LstmNet`] — per-frame summary features + LSTM (the temporal
//!   modelling in Pantomime/Tesla).

use crate::features::{ModelInput, POINT_FEATURES, SEQUENCE_FEATURES};
use crate::mlp::{SharedMlp, SharedMlpTrace};
use crate::PointModel;
use gp_nn::conv::ConvStackTrace;
use gp_nn::lstm::LstmTrace;
use gp_nn::{softmax_cross_entropy, ConvStack, Linear, Lstm, Matrix, MaxPool, Parameterized, Relu};
use rand::Rng;

/// A batch through a per-sample forward: one logits row per input, in
/// input order. No baseline has a fusion tap.
fn stack_logits(
    classes: usize,
    inputs: &[ModelInput],
    logits: impl Fn(&ModelInput) -> Vec<f32>,
) -> (Matrix, Option<Matrix>) {
    if inputs.is_empty() {
        return (Matrix::zeros(0, classes), None);
    }
    let rows: Vec<Vec<f32>> = inputs.iter().map(logits).collect();
    (Matrix::from_rows(&rows), None)
}

/// A mini-batch through a per-sample step, in input order; returns the
/// summed loss.
fn sum_steps(
    inputs: &[&ModelInput],
    labels: &[usize],
    mut step: impl FnMut(&ModelInput, usize) -> f32,
) -> f32 {
    assert_eq!(inputs.len(), labels.len(), "inputs/labels length mismatch");
    inputs.iter().zip(labels).map(|(x, &y)| step(x, y)).sum()
}

/// PointNet-style classifier: shared MLP per point, global max pool, FC
/// head.
#[derive(Debug, Clone)]
pub struct PointNet {
    classes: usize,
    mlp: SharedMlp,
    head_a: Linear,
    head_b: Linear,
}

impl PointNet {
    /// Creates the model.
    pub fn new<R: Rng>(classes: usize, rng: &mut R) -> Self {
        PointNet {
            classes,
            mlp: SharedMlp::new(POINT_FEATURES, 48, 96, rng),
            head_a: Linear::new(96, 48, rng),
            head_b: Linear::new(48, classes, rng),
        }
    }

    fn forward(&self, input: &ModelInput) -> PointNetTrace {
        let mlp = self.mlp.forward(&input.points);
        let (global, arg) = MaxPool.forward(&mlp.out);
        let g_m = Matrix::from_rows(&[global.clone()]);
        let hact = self.head_a.forward_relu(&g_m);
        let logits = self.head_b.forward(&hact).row(0).to_vec();
        PointNetTrace {
            mlp,
            global,
            arg,
            hact,
            logits,
        }
    }

    fn train_one(&mut self, input: &ModelInput, label: usize) -> f32 {
        let t = self.forward(input);
        let (loss, grad) = softmax_cross_entropy(&t.logits, label);
        let g = Matrix::from_rows(&[grad]);
        let g = self.head_b.backward(&t.hact, &g);
        let g = Relu.backward(&t.hact, g);
        let g_m = Matrix::from_rows(&[t.global.clone()]);
        let dglobal = self.head_a.backward(&g_m, &g);
        let g = MaxPool.backward(input.points.rows(), &t.arg, dglobal.row(0));
        let _ = self.mlp.backward(&input.points, &t.mlp, g);
        loss
    }
}

#[derive(Debug, Clone)]
struct PointNetTrace {
    mlp: SharedMlpTrace,
    global: Vec<f32>,
    arg: Vec<usize>,
    hact: Matrix,
    logits: Vec<f32>,
}

impl PointModel for PointNet {
    fn logits_and_embedding_batch(&self, inputs: &[ModelInput]) -> (Matrix, Option<Matrix>) {
        stack_logits(self.classes, inputs, |x| self.forward(x).logits)
    }

    fn train_step_batch(&mut self, inputs: &[&ModelInput], labels: &[usize]) -> f32 {
        sum_steps(inputs, labels, |x, y| self.train_one(x, y))
    }
}

impl Parameterized for PointNet {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.mlp.for_each_param(f);
        self.head_a.for_each_param(f);
        self.head_b.for_each_param(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        self.mlp.visit_params(f);
        self.head_a.visit_params(f);
        self.head_b.visit_params(f);
    }
}

/// Profile CNN: two 3×3 conv + 2×2 pool stages over the Doppler×range
/// histogram, then an FC head.
#[derive(Debug, Clone)]
pub struct ProfileCnn {
    classes: usize,
    conv: ConvStack,
    head_a: Linear,
    head_b: Linear,
}

impl ProfileCnn {
    /// Creates the model for profiles of `shape` (rows, cols). Both
    /// dimensions must be divisible by 4 (two pooling stages).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not divisible by 4.
    pub fn new<R: Rng>(classes: usize, shape: (usize, usize), rng: &mut R) -> Self {
        let conv = ConvStack::new(shape, rng);
        ProfileCnn {
            classes,
            head_a: Linear::new(conv.output_len(), 48, rng),
            head_b: Linear::new(48, classes, rng),
            conv,
        }
    }

    fn forward(&self, input: &ModelInput) -> ProfileTrace {
        let (flat, conv) = self.conv.forward(&input.profile);
        let flat = Matrix::from_rows(&[flat]);
        let hact = self.head_a.forward_relu(&flat);
        let logits = self.head_b.forward(&hact).row(0).to_vec();
        ProfileTrace {
            conv,
            flat,
            hact,
            logits,
        }
    }

    fn train_one(&mut self, input: &ModelInput, label: usize) -> f32 {
        let t = self.forward(input);
        let (loss, grad) = softmax_cross_entropy(&t.logits, label);
        let g = Matrix::from_rows(&[grad]);
        let g = self.head_b.backward(&t.hact, &g);
        let g = Relu.backward(&t.hact, g);
        let dflat = self.head_a.backward(&t.flat, &g);
        let _ = self.conv.backward(&input.profile, &t.conv, dflat.row(0));
        loss
    }
}

#[derive(Debug, Clone)]
struct ProfileTrace {
    conv: ConvStackTrace,
    flat: Matrix,
    hact: Matrix,
    logits: Vec<f32>,
}

impl PointModel for ProfileCnn {
    fn logits_and_embedding_batch(&self, inputs: &[ModelInput]) -> (Matrix, Option<Matrix>) {
        stack_logits(self.classes, inputs, |x| self.forward(x).logits)
    }

    fn train_step_batch(&mut self, inputs: &[&ModelInput], labels: &[usize]) -> f32 {
        sum_steps(inputs, labels, |x, y| self.train_one(x, y))
    }
}

impl Parameterized for ProfileCnn {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.conv.for_each_param(f);
        self.head_a.for_each_param(f);
        self.head_b.for_each_param(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        self.conv.visit_params(f);
        self.head_a.visit_params(f);
        self.head_b.visit_params(f);
    }
}

/// Temporal baseline: per-frame features through an LSTM, classifying
/// from the final hidden state.
#[derive(Debug, Clone)]
pub struct LstmNet {
    classes: usize,
    lstm: Lstm,
    head: Linear,
}

impl LstmNet {
    /// Creates the model.
    pub fn new<R: Rng>(classes: usize, rng: &mut R) -> Self {
        LstmNet {
            classes,
            lstm: Lstm::new(SEQUENCE_FEATURES, 32, rng),
            head: Linear::new(32, classes, rng),
        }
    }

    /// The logits, plus what the backward needs: the final hidden state
    /// (the head's input) and the LSTM's trace.
    fn forward(&self, input: &ModelInput) -> (Vec<f32>, Matrix, LstmTrace) {
        let (h, trace) = self.lstm.forward(&input.sequence);
        let h = Matrix::from_rows(&[h]);
        let logits = self.head.forward(&h).row(0).to_vec();
        (logits, h, trace)
    }

    fn train_one(&mut self, input: &ModelInput, label: usize) -> f32 {
        let (logits, h, trace) = self.forward(input);
        let (loss, grad) = softmax_cross_entropy(&logits, label);
        let dh = self.head.backward(&h, &Matrix::from_rows(&[grad]));
        self.lstm.backward(&trace, dh.row(0));
        loss
    }
}

impl PointModel for LstmNet {
    fn logits_and_embedding_batch(&self, inputs: &[ModelInput]) -> (Matrix, Option<Matrix>) {
        stack_logits(self.classes, inputs, |x| self.forward(x).0)
    }

    fn train_step_batch(&mut self, inputs: &[&ModelInput], labels: &[usize]) -> f32 {
        sum_steps(inputs, labels, |x, y| self.train_one(x, y))
    }
}

impl Parameterized for LstmNet {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.lstm.for_each_param(f);
        self.head.for_each_param(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        self.lstm.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode, FeatureConfig};
    use gp_nn::{argmax, Adam};
    use gp_pointcloud::{Point, PointCloud, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_input(seed: u64, doppler: f64) -> ModelInput {
        let cloud: PointCloud = (0..20)
            .map(|i| {
                let t = i as f64 * 0.4 + seed as f64;
                Point::new(
                    Vec3::new(t.sin() * 0.3, 1.2 + t.cos() * 0.2, 1.0),
                    doppler + (t * 1.3).sin() * 0.2,
                    12.0,
                )
            })
            .collect();
        let frames = vec![cloud.clone(); 6];
        let mut rng = StdRng::seed_from_u64(seed);
        encode(
            &cloud,
            &frames,
            &FeatureConfig {
                num_points: 20,
                ..FeatureConfig::default()
            },
            &mut rng,
        )
    }

    /// Logits of one input: a batch of one.
    fn logits_of(model: &dyn PointModel, input: &ModelInput) -> Vec<f32> {
        let (logits, _) = model.logits_and_embedding_batch(std::slice::from_ref(input));
        logits.row(0).to_vec()
    }

    fn train_to_separate<M: PointModel>(model: &mut M, epochs: usize) -> usize {
        let data: Vec<(ModelInput, usize)> = (0..8)
            .map(|i| {
                let label = i % 2;
                (
                    toy_input(i as u64, if label == 0 { -1.2 } else { 1.2 }),
                    label,
                )
            })
            .collect();
        let mut adam = Adam::new(5e-3);
        for _ in 0..epochs {
            for (x, y) in &data {
                model.train_step_batch(&[x], &[*y]);
                adam.begin_step();
                model.for_each_param(&mut |p, g| adam.update(p, g));
            }
        }
        data.iter()
            .filter(|(x, y)| argmax(&logits_of(&*model, x)) == *y)
            .count()
    }

    #[test]
    fn pointnet_learns_doppler_split() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = PointNet::new(2, &mut rng);
        let correct = train_to_separate(&mut model, 60);
        assert!(correct >= 7, "PointNet: {correct}/8");
    }

    #[test]
    fn profile_cnn_learns_doppler_split() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = ProfileCnn::new(2, (16, 24), &mut rng);
        let correct = train_to_separate(&mut model, 40);
        assert!(correct >= 7, "ProfileCNN: {correct}/8");
    }

    #[test]
    fn lstm_learns_doppler_split() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = LstmNet::new(2, &mut rng);
        let correct = train_to_separate(&mut model, 80);
        assert!(correct >= 7, "LSTM: {correct}/8");
    }

    #[test]
    fn logits_have_class_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = toy_input(5, 0.0);
        assert_eq!(logits_of(&PointNet::new(9, &mut rng), &input).len(), 9);
        assert_eq!(
            logits_of(&ProfileCnn::new(5, (16, 24), &mut rng), &input).len(),
            5
        );
        assert_eq!(logits_of(&LstmNet::new(4, &mut rng), &input).len(), 4);
    }

    #[test]
    fn baselines_have_no_embedding_tap() {
        let mut rng = StdRng::seed_from_u64(4);
        let models: [Box<dyn PointModel>; 3] = [
            Box::new(PointNet::new(3, &mut rng)),
            Box::new(ProfileCnn::new(3, (16, 24), &mut rng)),
            Box::new(LstmNet::new(3, &mut rng)),
        ];
        let inputs = [toy_input(6, 0.0), toy_input(7, 0.2)];
        for (m, model) in models.iter().enumerate() {
            let (logits, embeddings) = model.logits_and_embedding_batch(&inputs);
            assert!(embeddings.is_none(), "model {m}");
            for (i, input) in inputs.iter().enumerate() {
                assert_eq!(logits.row(i), logits_of(&**model, input).as_slice());
            }
            let (empty, embeddings) = model.logits_and_embedding_batch(&[]);
            assert_eq!((empty.rows(), empty.cols()), (0, 3), "model {m}");
            assert!(embeddings.is_none(), "model {m}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn profile_shape_validated() {
        let mut rng = StdRng::seed_from_u64(0);
        ProfileCnn::new(2, (15, 24), &mut rng);
    }
}
