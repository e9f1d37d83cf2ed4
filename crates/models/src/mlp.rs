//! The point-wise shared MLP of GesIDNet's set abstractions and of the
//! PointNet baseline.

use gp_nn::{Linear, Matrix, Parameterized, Relu};
use rand::Rng;

/// A two-layer shared MLP (Linear→ReLU→Linear→ReLU) applied point-wise:
/// every row of the input is one point, transformed with the same
/// weights.
#[derive(Debug, Clone)]
pub(crate) struct SharedMlp {
    l1: Linear,
    l2: Linear,
}

/// The intermediates [`SharedMlp::backward`] needs from the forward.
#[derive(Debug, Clone)]
pub(crate) struct SharedMlpTrace {
    pre1: Matrix,
    act1: Matrix,
    pre2: Matrix,
}

impl SharedMlp {
    pub(crate) fn new<R: Rng>(input: usize, hidden: usize, out: usize, rng: &mut R) -> Self {
        SharedMlp {
            l1: Linear::new(input, hidden, rng),
            l2: Linear::new(hidden, out, rng),
        }
    }

    /// The output rows, one per input row, and the trace for the
    /// backward. A caller that does not train drops the trace.
    pub(crate) fn forward(&self, x: &Matrix) -> (Matrix, SharedMlpTrace) {
        let pre1 = self.l1.forward(x);
        let act1 = Relu.forward(&pre1);
        let pre2 = self.l2.forward(&act1);
        let out = Relu.forward(&pre2);
        (out, SharedMlpTrace { pre1, act1, pre2 })
    }

    /// Accumulates parameter gradients and returns the gradient w.r.t.
    /// `x`, the matrix given to [`SharedMlp::forward`].
    pub(crate) fn backward(&mut self, x: &Matrix, t: &SharedMlpTrace, grad_out: &Matrix) -> Matrix {
        let g = Relu.backward(&t.pre2, grad_out);
        let g = self.l2.backward(&t.act1, &g);
        let g = Relu.backward(&t.pre1, &g);
        self.l1.backward(x, &g)
    }
}

impl Parameterized for SharedMlp {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.l1.for_each_param(f);
        self.l2.for_each_param(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
    }
}
