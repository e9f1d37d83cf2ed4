//! A single-layer LSTM with full backpropagation through time, used by
//! the temporal (Pantomime/Tesla-style) baseline.

use crate::init::xavier_uniform;
use crate::Parameterized;
use rand::Rng;

/// Standard LSTM: gates `i, f, g, o` with weights over `[x_t, h_{t−1}]`.
#[derive(Debug, Clone)]
pub struct Lstm {
    input: usize,
    hidden: usize,
    // Gate weights: 4·hidden × (input + hidden); rows ordered i,f,g,o.
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

/// Cached activations of one forward pass (needed for BPTT).
#[derive(Debug, Clone, Default)]
pub struct LstmTrace {
    xs: Vec<Vec<f32>>,
    hs: Vec<Vec<f32>>,    // h_0..h_T (h_0 = zeros)
    cs: Vec<Vec<f32>>,    // c_0..c_T
    gates: Vec<Vec<f32>>, // per step: i,f,g,o (post-activation), 4·hidden
}

impl Lstm {
    /// Creates an LSTM layer; forget-gate biases start at 1.
    pub fn new<R: Rng>(input: usize, hidden: usize, rng: &mut R) -> Self {
        let cols = input + hidden;
        let mut b = vec![0.0; 4 * hidden];
        for v in b.iter_mut().take(2 * hidden).skip(hidden) {
            *v = 1.0; // forget gate bias
        }
        Lstm {
            input,
            hidden,
            w: xavier_uniform(cols, hidden, 4 * hidden * cols, rng),
            b,
            gw: vec![0.0; 4 * hidden * cols],
            gb: vec![0.0; 4 * hidden],
        }
    }

    /// Runs the sequence, returning the final hidden state and the trace
    /// for [`Lstm::backward`].
    ///
    /// # Panics
    ///
    /// Panics if any step has the wrong feature count.
    pub fn forward(&self, sequence: &[Vec<f32>]) -> (Vec<f32>, LstmTrace) {
        let mut trace = LstmTrace {
            xs: sequence.to_vec(),
            hs: vec![vec![0.0; self.hidden]],
            cs: vec![vec![0.0; self.hidden]],
            gates: Vec::with_capacity(sequence.len()),
        };
        for x in sequence {
            assert_eq!(x.len(), self.input, "lstm input width mismatch");
            let h_prev = trace.hs.last().expect("non-empty").clone();
            let c_prev = trace.cs.last().expect("non-empty").clone();
            let mut gates = vec![0.0f32; 4 * self.hidden];
            let cols = self.input + self.hidden;
            for (gi, gate) in gates.iter_mut().enumerate() {
                let wrow = &self.w[gi * cols..(gi + 1) * cols];
                let mut acc = self.b[gi];
                for (wv, xv) in wrow[..self.input].iter().zip(x.iter()) {
                    acc += wv * xv;
                }
                for (wv, hv) in wrow[self.input..].iter().zip(h_prev.iter()) {
                    acc += wv * hv;
                }
                *gate = acc;
            }
            let h = self.hidden;
            let mut c = vec![0.0f32; h];
            let mut hn = vec![0.0f32; h];
            for j in 0..h {
                let i_g = sigmoid(gates[j]);
                let f_g = sigmoid(gates[h + j]);
                let g_g = gates[2 * h + j].tanh();
                let o_g = sigmoid(gates[3 * h + j]);
                gates[j] = i_g;
                gates[h + j] = f_g;
                gates[2 * h + j] = g_g;
                gates[3 * h + j] = o_g;
                c[j] = f_g * c_prev[j] + i_g * g_g;
                hn[j] = o_g * c[j].tanh();
            }
            trace.gates.push(gates);
            trace.cs.push(c);
            trace.hs.push(hn);
        }
        (trace.hs.last().expect("non-empty").clone(), trace)
    }

    /// Backpropagates a gradient on the final hidden state through the
    /// whole sequence, accumulating parameter gradients.
    pub fn backward(&mut self, trace: &LstmTrace, grad_h_final: &[f32]) {
        let h = self.hidden;
        let cols = self.input + h;
        let steps = trace.gates.len();
        let mut dh = grad_h_final.to_vec();
        let mut dc = vec![0.0f32; h];
        for t in (0..steps).rev() {
            let gates = &trace.gates[t];
            let c = &trace.cs[t + 1];
            let c_prev = &trace.cs[t];
            let h_prev = &trace.hs[t];
            let x = &trace.xs[t];
            let mut dgates = vec![0.0f32; 4 * h];
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tc = c[j].tanh();
                let dcj = dc[j] + dh[j] * o_g * (1.0 - tc * tc);
                dgates[j] = dcj * g_g * i_g * (1.0 - i_g);
                dgates[h + j] = dcj * c_prev[j] * f_g * (1.0 - f_g);
                dgates[2 * h + j] = dcj * i_g * (1.0 - g_g * g_g);
                dgates[3 * h + j] = dh[j] * tc * o_g * (1.0 - o_g);
                dc[j] = dcj * f_g;
            }
            let mut dh_prev = vec![0.0f32; h];
            for (gi, &g) in dgates.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                self.gb[gi] += g;
                let wrow = &self.w[gi * cols..(gi + 1) * cols];
                let gwrow = &mut self.gw[gi * cols..(gi + 1) * cols];
                for k in 0..self.input {
                    gwrow[k] += g * x[k];
                }
                for k in 0..h {
                    gwrow[self.input + k] += g * h_prev[k];
                    dh_prev[k] += g * wrow[self.input + k];
                }
            }
            dh = dh_prev;
        }
    }
}

impl Parameterized for Lstm {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.w);
        f(&self.b);
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(3, 5, &mut rng);
        let seq = vec![vec![0.1, 0.2, 0.3]; 7];
        let (hf, trace) = lstm.forward(&seq);
        assert_eq!(hf.len(), 5);
        assert_eq!(trace.hs.len(), 8);
        assert_eq!(trace.gates.len(), 7);
    }

    #[test]
    fn hidden_state_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(2, 4, &mut rng);
        let seq: Vec<Vec<f32>> = (0..50).map(|i| vec![(i as f32).sin() * 5.0, 3.0]).collect();
        let (hf, _) = lstm.forward(&seq);
        assert!(
            hf.iter().all(|v| v.abs() <= 1.0),
            "|h| ≤ 1 by construction: {hf:?}"
        );
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let seq = vec![vec![0.5, -0.3], vec![0.2, 0.8], vec![-0.6, 0.1]];
        // Loss = ½‖h_T‖².
        let (hf, trace) = lstm.forward(&seq);
        lstm.zero_grads();
        lstm.backward(&trace, &hf);
        let mut analytic = Vec::new();
        lstm.for_each_param(&mut |_, g| analytic.extend_from_slice(g));

        let loss = |l: &Lstm| -> f32 {
            let (h, _) = l.forward(&seq);
            h.iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let eps = 1e-2f32;
        let mut idx = 0;
        let mut numeric = Vec::new();
        loop {
            let mut touched = false;
            let mut pos = 0;
            lstm.for_each_param(&mut |p, _| {
                if idx >= pos && idx < pos + p.len() {
                    p[idx - pos] += eps;
                    touched = true;
                }
                pos += p.len();
            });
            if !touched {
                break;
            }
            let lp = loss(&lstm);
            let mut pos = 0;
            lstm.for_each_param(&mut |p, _| {
                if idx >= pos && idx < pos + p.len() {
                    p[idx - pos] -= 2.0 * eps;
                }
                pos += p.len();
            });
            let lm = loss(&lstm);
            let mut pos = 0;
            lstm.for_each_param(&mut |p, _| {
                if idx >= pos && idx < pos + p.len() {
                    p[idx - pos] += eps;
                }
                pos += p.len();
            });
            numeric.push((lp - lm) / (2.0 * eps));
            idx += 1;
        }
        // Spot-check a sample of parameters (full sweep is slow in debug).
        for i in (0..analytic.len()).step_by(7) {
            assert!(
                (analytic[i] - numeric[i]).abs() < 3e-2 * (1.0 + numeric[i].abs()),
                "param {i}: analytic {} numeric {}",
                analytic[i],
                numeric[i]
            );
        }
    }

    #[test]
    fn can_learn_sequence_discrimination() {
        // Classify rising vs falling two-step sequences via a linear
        // readout of the final hidden state.
        let mut rng = StdRng::seed_from_u64(3);
        let mut lstm = Lstm::new(1, 6, &mut rng);
        let mut readout = crate::Linear::new(6, 2, &mut rng);
        let mut adam = Adam::new(0.02);
        let data: Vec<(Vec<Vec<f32>>, usize)> = (0..20)
            .map(|i| {
                let a = (i as f32) * 0.05;
                if i % 2 == 0 {
                    (vec![vec![a], vec![a + 0.5]], 0usize) // rising
                } else {
                    (vec![vec![a + 0.5], vec![a]], 1usize) // falling
                }
            })
            .collect();
        for _ in 0..150 {
            for (seq, label) in &data {
                let (h, trace) = lstm.forward(seq);
                let x = crate::Matrix::from_rows(std::slice::from_ref(&h));
                let logits = readout.forward(&x);
                let (_, grad) = crate::softmax_cross_entropy(logits.row(0), *label);
                let gh = readout.backward(&x, &crate::Matrix::from_rows(&[grad]));
                lstm.backward(&trace, gh.row(0));
                adam.begin_step();
                lstm.for_each_param(&mut |p, g| adam.update(p, g));
                readout.for_each_param(&mut |p, g| adam.update(p, g));
            }
        }
        let mut correct = 0;
        for (seq, label) in &data {
            let (h, _) = lstm.forward(seq);
            let logits = readout.forward(&crate::Matrix::from_rows(&[h]));
            if crate::argmax(logits.row(0)) == *label {
                correct += 1;
            }
        }
        assert!(correct >= 18, "LSTM failed to learn: {correct}/20");
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn input_width_checked() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(3, 2, &mut rng);
        lstm.forward(&[vec![1.0, 2.0]]);
    }
}
