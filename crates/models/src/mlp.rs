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

/// Both layers' activations: [`SharedMlp::backward`] masks each
/// layer's gradient on its own, and `out` is the MLP's output.
#[derive(Debug, Clone)]
pub(crate) struct SharedMlpTrace {
    act1: Matrix,
    pub(crate) out: Matrix,
}

impl SharedMlp {
    pub(crate) fn new<R: Rng>(input: usize, hidden: usize, out: usize, rng: &mut R) -> Self {
        SharedMlp {
            l1: Linear::new(input, hidden, rng),
            l2: Linear::new(hidden, out, rng),
        }
    }

    /// Both layers' activations, one `out` row per input row. A caller
    /// that does not train drops them once it has read `out`.
    pub(crate) fn forward(&self, x: &Matrix) -> SharedMlpTrace {
        let act1 = self.l1.forward_relu(x);
        let out = self.l2.forward_relu(&act1);
        SharedMlpTrace { act1, out }
    }

    /// Accumulates parameter gradients and returns the gradient w.r.t.
    /// `x`, the matrix given to [`SharedMlp::forward`].
    pub(crate) fn backward(&mut self, x: &Matrix, t: &SharedMlpTrace, grad_out: Matrix) -> Matrix {
        let g = Relu.backward(&t.out, grad_out);
        let g = self.l2.backward(&t.act1, &g);
        let g = Relu.backward(&t.act1, g);
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
