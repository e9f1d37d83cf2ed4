//! `RdNet` — the conv+recurrent classifier for the range-Doppler
//! backend.
//!
//! Two branches over one [`RdInput`]: a two-stage 3×3-conv / 2×2-pool
//! stack on the time-aggregated log-power map, and an LSTM over the
//! per-frame summary sequence. Their 32-wide codes are concatenated and
//! fused through a 48-wide ReLU layer (the embedding tap) before the
//! class head — the same fuse-then-classify shape as `GesIDNet` on the
//! point-cloud side.

use crate::features::{RdInput, RD_SEQUENCE_FEATURES};
use gp_nn::conv::ConvStackTrace;
use gp_nn::{softmax_cross_entropy, ConvStack, Linear, Lstm, Matrix, Parameterized, Relu};
use rand::Rng;

/// Width of each branch code entering the fusion layer.
const BRANCH_WIDTH: usize = 32;
/// Width of the fused embedding.
const FUSED_WIDTH: usize = 48;

/// Conv+recurrent range-Doppler classifier.
#[derive(Debug, Clone)]
pub struct RdNet {
    classes: usize,
    conv: ConvStack,
    map_fc: Linear,
    lstm: Lstm,
    fuse: Linear,
    head: Linear,
}

struct RdTrace {
    conv: ConvStackTrace,
    flat: Matrix,
    map_act: Matrix,
    lstm_trace: gp_nn::lstm::LstmTrace,
    concat: Matrix,
    fuse_act: Matrix,
    logits: Vec<f32>,
}

impl RdNet {
    /// Creates the model for maps of `map_shape` (doppler, range). Both
    /// dimensions must be divisible by 4 (two pooling stages).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not divisible by 4.
    pub fn new<R: Rng>(classes: usize, map_shape: (usize, usize), rng: &mut R) -> Self {
        let conv = ConvStack::new(map_shape, rng);
        RdNet {
            classes,
            map_fc: Linear::new(conv.output_len(), BRANCH_WIDTH, rng),
            conv,
            lstm: Lstm::new(RD_SEQUENCE_FEATURES, BRANCH_WIDTH, rng),
            fuse: Linear::new(2 * BRANCH_WIDTH, FUSED_WIDTH, rng),
            head: Linear::new(FUSED_WIDTH, classes, rng),
        }
    }

    /// Inference: one row of class scores per input, plus the fused
    /// 48-wide embeddings (the identification feature vectors) they were
    /// computed from. Row `i` belongs to input `i`; the inputs run the
    /// per-sample forward in order, so each row is bit-exact with its
    /// input run alone.
    ///
    /// # Panics
    ///
    /// Panics if an input's map does not have the model's map shape.
    pub fn logits_and_embedding_batch(&self, inputs: &[RdInput]) -> (Matrix, Matrix) {
        if inputs.is_empty() {
            return (
                Matrix::zeros(0, self.classes),
                Matrix::zeros(0, FUSED_WIDTH),
            );
        }
        let (logits, embeddings): (Vec<Vec<f32>>, Vec<Vec<f32>>) = inputs
            .iter()
            .map(|input| {
                let t = self.forward(input);
                (t.logits, t.fuse_act.row(0).to_vec())
            })
            .unzip();
        (Matrix::from_rows(&logits), Matrix::from_rows(&embeddings))
    }

    /// Training over a mini-batch: forward + backward for every
    /// `(input, label)` pair in order, accumulating parameter gradients;
    /// returns the summed loss. Pair with an external `Adam` step as for
    /// the point models.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `labels` have different lengths, or an
    /// input's map does not have the model's map shape.
    pub fn train_step_batch(&mut self, inputs: &[&RdInput], labels: &[usize]) -> f32 {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length mismatch");
        inputs
            .iter()
            .zip(labels)
            .map(|(x, &y)| self.train_one(x, y))
            .sum()
    }

    fn forward(&self, input: &RdInput) -> RdTrace {
        let (flat, conv) = self.conv.forward(&input.map);
        let flat = Matrix::from_rows(&[flat]);
        let map_act = self.map_fc.forward_relu(&flat);

        let (lstm_h, lstm_trace) = self.lstm.forward(&input.sequence);

        let mut joined = map_act.row(0).to_vec();
        joined.extend_from_slice(&lstm_h);
        let concat = Matrix::from_rows(&[joined]);
        let fuse_act = self.fuse.forward_relu(&concat);
        let logits = self.head.forward(&fuse_act).row(0).to_vec();

        RdTrace {
            conv,
            flat,
            map_act,
            lstm_trace,
            concat,
            fuse_act,
            logits,
        }
    }

    fn train_one(&mut self, input: &RdInput, label: usize) -> f32 {
        let t = self.forward(input);
        let (loss, grad) = softmax_cross_entropy(&t.logits, label);

        let g = Matrix::from_rows(&[grad]);
        let g = self.head.backward(&t.fuse_act, &g);
        let g = Relu.backward(&t.fuse_act, g);
        let dconcat = self.fuse.backward(&t.concat, &g);

        // Split the joint gradient back into the two branches.
        let row = dconcat.row(0);
        let dmap_act = row[..BRANCH_WIDTH].to_vec();
        let dlstm_h = row[BRANCH_WIDTH..].to_vec();

        // Recurrent branch.
        self.lstm.backward(&t.lstm_trace, &dlstm_h);

        // Conv branch.
        let g = Relu.backward(&t.map_act, Matrix::from_rows(&[dmap_act]));
        let dflat = self.map_fc.backward(&t.flat, &g);
        let _ = self.conv.backward(&input.map, &t.conv, dflat.row(0));
        loss
    }
}

impl Parameterized for RdNet {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.conv.for_each_param(f);
        self.map_fc.for_each_param(f);
        self.lstm.for_each_param(f);
        self.fuse.for_each_param(f);
        self.head.for_each_param(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        self.conv.visit_params(f);
        self.map_fc.visit_params(f);
        self.lstm.visit_params(f);
        self.fuse.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::RdFeatureConfig;
    use gp_nn::{argmax, Adam};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Hand-built input with class-dependent map and sequence content.
    fn toy_input(label: usize, jitter: u64) -> RdInput {
        let cfg = RdFeatureConfig::default();
        let (md, mr) = cfg.map_shape;
        let mut map = vec![0.0f32; md * mr];
        // Class 0: energy high in the map (negative Doppler); class 1:
        // low. Jitter shifts the range column slightly.
        let d: usize = if label == 0 { 3 } else { 12 };
        let r = 8 + (jitter as usize % 3);
        for dd in d.saturating_sub(1)..=(d + 1) {
            for rr in r - 1..=r + 1 {
                map[dd * mr + rr] = 2.0 + (jitter % 5) as f32 * 0.1;
            }
        }
        let sign = if label == 0 { -1.0 } else { 1.0 };
        let sequence = (0..6)
            .map(|i| {
                let mut f = vec![0.2f32; RD_SEQUENCE_FEATURES];
                f[2] = sign * (0.5 + 0.05 * (i + jitter as usize % 2) as f32);
                f
            })
            .collect();
        RdInput {
            map,
            map_shape: cfg.map_shape,
            sequence,
        }
    }

    /// Logits of one input: a batch of one.
    fn logits_of(model: &RdNet, input: &RdInput) -> Vec<f32> {
        let (logits, _) = model.logits_and_embedding_batch(std::slice::from_ref(input));
        logits.row(0).to_vec()
    }

    #[test]
    fn shapes_and_taps() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = RdNet::new(5, (16, 24), &mut rng);
        let inputs = [toy_input(0, 1), toy_input(1, 2)];
        let (logits, embeddings) = model.logits_and_embedding_batch(&inputs);
        assert_eq!((logits.rows(), logits.cols()), (2, 5));
        assert_eq!((embeddings.rows(), embeddings.cols()), (2, FUSED_WIDTH));
        for (i, input) in inputs.iter().enumerate() {
            let (one, embedding) = model.logits_and_embedding_batch(std::slice::from_ref(input));
            assert_eq!(logits.row(i), one.row(0), "row {i}");
            assert_eq!(embeddings.row(i), embedding.row(0), "embedding {i}");
        }
        let (logits, embeddings) = model.logits_and_embedding_batch(&[]);
        assert_eq!((logits.rows(), logits.cols()), (0, 5));
        assert_eq!((embeddings.rows(), embeddings.cols()), (0, FUSED_WIDTH));
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn rejects_bad_map_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        RdNet::new(2, (15, 24), &mut rng);
    }

    #[test]
    fn learns_toy_split() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = RdNet::new(2, (16, 24), &mut rng);
        let data: Vec<(RdInput, usize)> = (0..8)
            .map(|i| (toy_input(i % 2, i as u64), i % 2))
            .collect();
        let mut adam = Adam::new(5e-3);
        for _ in 0..40 {
            for (x, y) in &data {
                model.train_step_batch(&[x], &[*y]);
                adam.begin_step();
                model.for_each_param(&mut |p, g| adam.update(p, g));
            }
        }
        let correct = data
            .iter()
            .filter(|(x, y)| argmax(&logits_of(&model, x)) == *y)
            .count();
        assert!(correct >= 7, "RdNet: {correct}/8");
    }

    #[test]
    fn param_count_is_stable() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = RdNet::new(3, (16, 24), &mut rng);
        let mut n = 0usize;
        model.visit_params(&mut |p| n += p.len());
        // conv1 + conv2 + map_fc + lstm + fuse + head, all non-empty.
        assert!(n > 10_000, "param count {n}");
        let mut again = 0usize;
        model.visit_params(&mut |p| again += p.len());
        assert_eq!(n, again);
    }
}
