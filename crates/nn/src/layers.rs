//! Core layers: [`Linear`], [`Relu`], [`MaxPool`].

use crate::init::he_uniform;
use crate::matrix::Matrix;
use crate::Parameterized;
use rand::Rng;

/// A fully connected layer `y = x·Wᵀ + b`.
///
/// Used both as a classic dense layer (batch rows) and as a *shared MLP*
/// across points: pass a `(points × features)` matrix and every point is
/// transformed with the same weights, exactly PointNet's weight sharing.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,   // out × in
    b: Vec<f32>, // out
    gw: Matrix,  // gradient accumulator
    gb: Vec<f32>,
}

impl Linear {
    /// Creates a layer with He initialisation.
    pub fn new<R: Rng>(input: usize, output: usize, rng: &mut R) -> Self {
        Linear {
            w: Matrix::from_vec(output, input, he_uniform(input, output * input, rng)),
            b: vec![0.0; output],
            gw: Matrix::zeros(output, input),
            gb: vec![0.0; output],
        }
    }

    /// Forward pass: `(n × in) → (n × out)`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_transpose(&self.w);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(self.b.iter()) {
                *v += b;
            }
        }
        y
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient w.r.t. the input. `x` must be the same matrix given to
    /// [`Linear::forward`].
    pub fn backward(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        debug_assert_eq!(grad_out.cols(), self.w.rows());
        debug_assert_eq!(x.rows(), grad_out.rows());
        // gw += grad_outᵀ · x
        let gw = grad_out.transpose_matmul(x);
        self.gw.add_assign(&gw);
        for r in 0..grad_out.rows() {
            for (gb, &g) in self.gb.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
        // grad_in = grad_out · W
        grad_out.matmul(&self.w)
    }
}

impl Parameterized for Linear {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        f(&mut self.b, &mut self.gb);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        f(self.w.as_slice());
        f(&self.b);
    }
}

/// Element-wise rectified linear unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// Forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    /// Backward pass; `x` is the pre-activation input.
    pub fn backward(&self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for (gv, &xv) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
            if xv <= 0.0 {
                *gv = 0.0;
            }
        }
        g
    }
}

/// Column-wise max pooling over the rows of a matrix (PointNet's
/// permutation-invariant aggregation over a point set).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxPool;

impl MaxPool {
    /// Pools `(n × c)` down to a `c`-vector, returning the argmax row per
    /// column for the backward pass. Empty inputs yield zeros.
    pub fn forward(&self, x: &Matrix) -> (Vec<f32>, Vec<usize>) {
        let c = x.cols();
        if x.rows() == 0 {
            return (vec![0.0; c], vec![0; c]);
        }
        let mut out = x.row(0).to_vec();
        let mut arg = vec![0usize; c];
        for r in 1..x.rows() {
            for (j, &v) in x.row(r).iter().enumerate() {
                if v > out[j] {
                    out[j] = v;
                    arg[j] = r;
                }
            }
        }
        (out, arg)
    }

    /// Segmented column-wise max over stacked rows: `lens[k]`
    /// consecutive rows of `x` form segment `k`, and each segment pools
    /// to one output row. Bit-identical to running
    /// [`MaxPool::forward`] on each segment alone (same scan order,
    /// same `>` comparison); empty segments yield zero rows, matching
    /// `forward` on an empty matrix.
    ///
    /// This is the batched-inference kernel: many point groups (or many
    /// samples' rows) pool in one pass instead of one small call per
    /// group.
    ///
    /// # Panics
    ///
    /// Panics if `lens` does not sum to `x.rows()`.
    pub fn forward_segments(&self, x: &Matrix, lens: &[usize]) -> Matrix {
        let total: usize = lens.iter().sum();
        assert_eq!(total, x.rows(), "segment lengths must cover all rows");
        let mut out = Matrix::zeros(lens.len(), x.cols());
        let mut base = 0;
        for (k, &len) in lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let dst = out.row_mut(k);
            dst.copy_from_slice(x.row(base));
            for r in base + 1..base + len {
                // A select and an unconditional store, so the loop
                // vectorizes. The strict `>` keeps the first maximum
                // (and 0.0 over a later -0.0), and a NaN never replaces
                // or is replaced.
                for (d, &v) in dst.iter_mut().zip(x.row(r)) {
                    *d = if v > *d { v } else { *d };
                }
            }
            base += len;
        }
        out
    }

    /// Like [`MaxPool::forward_segments`], but also returns each
    /// segment's per-column argmax (row index *local to the segment*)
    /// so training can route gradients back through the pooled max —
    /// the batched sibling of [`MaxPool::forward`]'s `(out, arg)` pair.
    /// Empty segments yield zero rows and empty argmax vectors.
    ///
    /// # Panics
    ///
    /// Panics if `lens` does not sum to `x.rows()`.
    pub fn forward_segments_trace(&self, x: &Matrix, lens: &[usize]) -> (Matrix, Vec<Vec<usize>>) {
        let total: usize = lens.iter().sum();
        assert_eq!(total, x.rows(), "segment lengths must cover all rows");
        let mut out = Matrix::zeros(lens.len(), x.cols());
        let mut args = Vec::with_capacity(lens.len());
        let mut base = 0;
        for (k, &len) in lens.iter().enumerate() {
            if len == 0 {
                args.push(Vec::new());
                continue;
            }
            let dst = out.row_mut(k);
            dst.copy_from_slice(x.row(base));
            let mut arg = vec![0usize; x.cols()];
            for r in 1..len {
                // Selects, as in `forward_segments`.
                for ((d, a), &v) in dst.iter_mut().zip(&mut arg).zip(x.row(base + r)) {
                    let take = v > *d;
                    *d = if take { v } else { *d };
                    *a = if take { r } else { *a };
                }
            }
            args.push(arg);
            base += len;
        }
        (out, args)
    }

    /// Scatters per-segment pooled gradients back to the argmax rows of
    /// the stacked input: row `k` of `grad_out` is segment `k`'s pooled
    /// gradient, `args[k]` the segment-local argmax from
    /// [`MaxPool::forward_segments_trace`]. Returns the gradient w.r.t.
    /// the stacked `(Σ lens × c)` input.
    ///
    /// # Panics
    ///
    /// Panics if `lens`, `args`, and `grad_out` disagree on the number
    /// of segments.
    pub fn backward_segments(
        &self,
        lens: &[usize],
        args: &[Vec<usize>],
        grad_out: &Matrix,
    ) -> Matrix {
        assert_eq!(lens.len(), args.len(), "segment count mismatch");
        assert_eq!(lens.len(), grad_out.rows(), "segment count mismatch");
        let total: usize = lens.iter().sum();
        let mut g = Matrix::zeros(total, grad_out.cols());
        let mut base = 0;
        for (k, &len) in lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            for (j, (&r, &gv)) in args[k].iter().zip(grad_out.row(k)).enumerate() {
                g.row_mut(base + r)[j] += gv;
            }
            base += len;
        }
        g
    }

    /// Scatters the pooled gradient back to the argmax rows.
    pub fn backward(&self, rows: usize, arg: &[usize], grad_out: &[f32]) -> Matrix {
        let mut g = Matrix::zeros(rows, grad_out.len());
        if rows == 0 {
            return g;
        }
        for (j, (&r, &gv)) in arg.iter().zip(grad_out.iter()).enumerate() {
            g.set(r, j, gv);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_difference_check(
        layer: &mut Linear,
        x: &Matrix,
        target_grad: impl Fn(&Matrix) -> (f32, Matrix),
    ) {
        // Analytic gradients.
        let (_, grad_out) = target_grad(&layer.forward(x));
        layer.zero_grads();
        layer.backward(x, &grad_out);
        let mut analytic: Vec<f32> = Vec::new();
        layer.for_each_param(&mut |_, g| analytic.extend_from_slice(g));

        // Numeric gradients.
        let mut numeric = Vec::new();
        let eps = 1e-3f32;
        let mut idx = 0;
        loop {
            let mut touched = false;
            let mut flat_pos = 0;
            layer.for_each_param(&mut |p, _| {
                if idx >= flat_pos && idx < flat_pos + p.len() {
                    p[idx - flat_pos] += eps;
                    touched = true;
                }
                flat_pos += p.len();
            });
            if !touched {
                break;
            }
            let (loss_plus, _) = target_grad(&layer.forward(x));
            let mut flat_pos = 0;
            layer.for_each_param(&mut |p, _| {
                if idx >= flat_pos && idx < flat_pos + p.len() {
                    p[idx - flat_pos] -= 2.0 * eps;
                }
                flat_pos += p.len();
            });
            let (loss_minus, _) = target_grad(&layer.forward(x));
            let mut flat_pos = 0;
            layer.for_each_param(&mut |p, _| {
                if idx >= flat_pos && idx < flat_pos + p.len() {
                    p[idx - flat_pos] += eps;
                }
                flat_pos += p.len();
            });
            numeric.push((loss_plus - loss_minus) / (2.0 * eps));
            idx += 1;
        }

        assert_eq!(analytic.len(), numeric.len());
        for (i, (a, n)) in analytic.iter().zip(numeric.iter()).enumerate() {
            assert!(
                (a - n).abs() < 2e-2 * (1.0 + n.abs()),
                "param {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(5, 3, &mut rng);
        let x = Matrix::zeros(7, 5);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (7, 3));
    }

    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.8, 0.1], vec![1.0, 0.5, -0.4, 0.2]]);
        // Loss = sum of squares of outputs / 2 → grad = outputs.
        finite_difference_check(&mut l, &x, |y| {
            let loss: f32 = y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0;
            (loss, y.clone())
        });
    }

    #[test]
    fn linear_input_gradient() {
        // For y = x·Wᵀ, dL/dx = dL/dy · W; check numerically on one entry.
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[vec![0.4, -0.7, 0.2]]);
        let y = l.forward(&x);
        let grad_out = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let gin = l.backward(&x, &grad_out);
        let eps = 1e-3;
        for j in 0..3 {
            let mut xp = x.clone();
            xp.set(0, j, xp.at(0, j) + eps);
            let yp = l.forward(&xp);
            let numeric: f32 =
                (yp.as_slice().iter().sum::<f32>() - y.as_slice().iter().sum::<f32>()) / eps;
            assert!((gin.at(0, j) - numeric).abs() < 1e-2, "col {j}");
        }
    }

    #[test]
    fn relu_clamps_and_masks() {
        let x = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]);
        let y = Relu.forward(&x);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
        let g = Relu.backward(&x, &Matrix::from_rows(&[vec![5.0, 5.0, 5.0]]));
        assert_eq!(g.row(0), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_forward_backward() {
        let x = Matrix::from_rows(&[vec![1.0, 9.0], vec![5.0, 2.0], vec![3.0, 4.0]]);
        let (out, arg) = MaxPool.forward(&x);
        assert_eq!(out, vec![5.0, 9.0]);
        assert_eq!(arg, vec![1, 0]);
        let g = MaxPool.backward(3, &arg, &[1.0, 2.0]);
        assert_eq!(g.at(1, 0), 1.0);
        assert_eq!(g.at(0, 1), 2.0);
        assert_eq!(g.at(2, 0), 0.0);
    }

    #[test]
    fn forward_segments_matches_per_segment_forward() {
        let x = Matrix::from_rows(&[
            vec![1.0, 9.0],
            vec![5.0, 2.0],
            vec![3.0, 4.0],
            vec![-1.0, -2.0],
            vec![7.0, 0.5],
        ]);
        let lens = [3usize, 0, 2];
        let pooled = MaxPool.forward_segments(&x, &lens);
        assert_eq!(pooled.rows(), 3);
        assert_eq!(pooled.row(0), &[5.0, 9.0]);
        assert_eq!(pooled.row(1), &[0.0, 0.0], "empty segment pools to zeros");
        assert_eq!(pooled.row(2), &[7.0, 0.5]);
        // Bit-exact vs the per-segment scalar kernel.
        let (seg0, _) = MaxPool.forward(&Matrix::from_rows(&[
            x.row(0).to_vec(),
            x.row(1).to_vec(),
            x.row(2).to_vec(),
        ]));
        assert_eq!(pooled.row(0), seg0.as_slice());
    }

    #[test]
    #[should_panic(expected = "segment lengths must cover all rows")]
    fn forward_segments_checks_coverage() {
        MaxPool.forward_segments(&Matrix::zeros(3, 2), &[2]);
    }

    #[test]
    fn forward_segments_trace_matches_forward_segments() {
        let x = Matrix::from_rows(&[
            vec![1.0, 9.0],
            vec![5.0, 2.0],
            vec![3.0, 4.0],
            vec![-1.0, -2.0],
            vec![7.0, 0.5],
        ]);
        let lens = [3usize, 0, 2];
        let pooled = MaxPool.forward_segments(&x, &lens);
        let (traced, args) = MaxPool.forward_segments_trace(&x, &lens);
        assert_eq!(pooled, traced);
        // Per-segment argmax matches the single-segment kernel's.
        let (_, arg0) = MaxPool.forward(&Matrix::from_rows(&[
            x.row(0).to_vec(),
            x.row(1).to_vec(),
            x.row(2).to_vec(),
        ]));
        assert_eq!(args[0], arg0);
        assert!(args[1].is_empty(), "empty segment has no argmax");
        assert_eq!(args[2], vec![1, 1]);
    }

    #[test]
    fn backward_segments_matches_per_segment_backward() {
        let x = Matrix::from_rows(&[
            vec![1.0, 9.0],
            vec![5.0, 2.0],
            vec![3.0, 4.0],
            vec![-1.0, -2.0],
            vec![7.0, 0.5],
        ]);
        let lens = [3usize, 0, 2];
        let (_, args) = MaxPool.forward_segments_trace(&x, &lens);
        let grad_out = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = MaxPool.backward_segments(&lens, &args, &grad_out);
        assert_eq!((g.rows(), g.cols()), (5, 2));
        // Segment 0: same scatter as the scalar backward.
        let g0 = MaxPool.backward(3, &args[0], grad_out.row(0));
        for r in 0..3 {
            assert_eq!(g.row(r), g0.row(r), "segment 0 row {r}");
        }
        // Segment 1 is empty: its gradient row block is absent entirely.
        // Segment 2 rows follow immediately.
        let g2 = MaxPool.backward(2, &args[2], grad_out.row(2));
        assert_eq!(g.row(3), g2.row(0));
        assert_eq!(g.row(4), g2.row(1));
    }

    #[test]
    fn maxpool_empty_input() {
        let x = Matrix::zeros(0, 4);
        let (out, arg) = MaxPool.forward(&x);
        assert_eq!(out, vec![0.0; 4]);
        assert_eq!(arg, vec![0; 4]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(10, 4, &mut rng);
        assert_eq!(l.param_count(), 44);
    }
}
