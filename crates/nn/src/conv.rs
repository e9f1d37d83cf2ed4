//! A small 2-D convolution layer, and the conv → ReLU → pool stack the
//! profile-CNN baseline (mGesNet/mSeeNet operate on concentrated
//! position–Doppler profiles) and the range-Doppler model share.

use crate::init::he_uniform;
use crate::Parameterized;
use rand::Rng;

/// A 3×3 same-padding convolution over `(channels, height, width)`
/// feature maps stored as flat `Vec<f32>` in channel-major order.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    // weights: out × in × 3 × 3
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

impl Conv2d {
    /// Creates a 3×3 convolution.
    pub fn new<R: Rng>(in_channels: usize, out_channels: usize, rng: &mut R) -> Self {
        let n = out_channels * in_channels * 9;
        Conv2d {
            in_channels,
            out_channels,
            w: he_uniform(in_channels * 9, n, rng),
            b: vec![0.0; out_channels],
            gw: vec![0.0; n],
            gb: vec![0.0; out_channels],
        }
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_channels + i) * 3 + ky) * 3 + kx
    }

    /// Forward: input `(in_channels · h · w)` → output
    /// `(out_channels · h · w)` with zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the input length is not `in_channels · h · w`.
    pub fn forward(&self, x: &[f32], h: usize, w: usize) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.in_channels * h * w,
            "conv input shape mismatch"
        );
        let mut y = vec![0.0f32; self.out_channels * h * w];
        for o in 0..self.out_channels {
            for yy in 0..h {
                for xx in 0..w {
                    let mut acc = self.b[o];
                    for i in 0..self.in_channels {
                        for ky in 0..3usize {
                            let sy = yy as isize + ky as isize - 1;
                            if sy < 0 || sy >= h as isize {
                                continue;
                            }
                            for kx in 0..3usize {
                                let sx = xx as isize + kx as isize - 1;
                                if sx < 0 || sx >= w as isize {
                                    continue;
                                }
                                acc += self.w[self.widx(o, i, ky, kx)]
                                    * x[(i * h + sy as usize) * w + sx as usize];
                            }
                        }
                    }
                    y[(o * h + yy) * w + xx] = acc;
                }
            }
        }
        y
    }

    /// Backward: accumulates parameter gradients, returns input gradient.
    pub fn backward(&mut self, x: &[f32], grad_out: &[f32], h: usize, w: usize) -> Vec<f32> {
        assert_eq!(grad_out.len(), self.out_channels * h * w);
        let mut gx = vec![0.0f32; self.in_channels * h * w];
        for o in 0..self.out_channels {
            for yy in 0..h {
                for xx in 0..w {
                    let g = grad_out[(o * h + yy) * w + xx];
                    if g == 0.0 {
                        continue;
                    }
                    self.gb[o] += g;
                    for i in 0..self.in_channels {
                        for ky in 0..3usize {
                            let sy = yy as isize + ky as isize - 1;
                            if sy < 0 || sy >= h as isize {
                                continue;
                            }
                            for kx in 0..3usize {
                                let sx = xx as isize + kx as isize - 1;
                                if sx < 0 || sx >= w as isize {
                                    continue;
                                }
                                let xi = (i * h + sy as usize) * w + sx as usize;
                                let wi = self.widx(o, i, ky, kx);
                                self.gw[wi] += g * x[xi];
                                gx[xi] += g * self.w[wi];
                            }
                        }
                    }
                }
            }
        }
        gx
    }
}

impl Parameterized for Conv2d {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.w, &mut self.gw);
        f(&mut self.b, &mut self.gb);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.w);
        f(&self.b);
    }
}

/// Two 3×3 conv → ReLU → 2×2 max-pool stages (1 → 6 → 12 channels)
/// over a one-channel `(h, w)` map: the conv branch of the profile CNN
/// and of the range-Doppler model.
#[derive(Debug, Clone)]
pub struct ConvStack {
    shape: (usize, usize),
    conv1: Conv2d,
    conv2: Conv2d,
}

/// The intermediates [`ConvStack::backward`] needs from the forward.
#[derive(Debug, Clone)]
pub struct ConvStackTrace {
    c1: Vec<f32>,
    p1: Vec<f32>,
    arg1: Vec<usize>,
    c2: Vec<f32>,
    arg2: Vec<usize>,
}

impl ConvStack {
    /// Creates the stack for maps of `shape` (rows, cols).
    ///
    /// # Panics
    ///
    /// Panics if a side of `shape` is not divisible by 4 (two pooling
    /// stages).
    pub fn new<R: Rng>(shape: (usize, usize), rng: &mut R) -> Self {
        assert!(
            shape.0.is_multiple_of(4) && shape.1.is_multiple_of(4),
            "conv input shape {shape:?} must be divisible by 4"
        );
        ConvStack {
            shape,
            conv1: Conv2d::new(1, 6, rng),
            conv2: Conv2d::new(6, 12, rng),
        }
    }

    /// Length of the flattened output map: `12 · (h/4) · (w/4)`.
    pub fn output_len(&self) -> usize {
        self.conv2.out_channels * (self.shape.0 / 4) * (self.shape.1 / 4)
    }

    /// Forward over a flat `(h · w)` map: the flattened pooled output
    /// and the trace for [`ConvStack::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `h · w` values.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, ConvStackTrace) {
        let (h, w) = self.shape;
        let c1 = self.conv1.forward(x, h, w);
        let a1: Vec<f32> = c1.iter().map(|v| v.max(0.0)).collect();
        let (p1, arg1) = maxpool2x2(&a1, self.conv1.out_channels, h, w);
        let (h2, w2) = (h / 2, w / 2);
        let c2 = self.conv2.forward(&p1, h2, w2);
        let a2: Vec<f32> = c2.iter().map(|v| v.max(0.0)).collect();
        let (p2, arg2) = maxpool2x2(&a2, self.conv2.out_channels, h2, w2);
        (
            p2,
            ConvStackTrace {
                c1,
                p1,
                arg1,
                c2,
                arg2,
            },
        )
    }

    /// Backward: accumulates parameter gradients and returns the
    /// gradient w.r.t. `x`, the map given to [`ConvStack::forward`].
    pub fn backward(&mut self, x: &[f32], t: &ConvStackTrace, grad_out: &[f32]) -> Vec<f32> {
        let (h, w) = self.shape;
        let (h2, w2) = (h / 2, w / 2);
        let da2 = maxpool2x2_backward(grad_out, &t.arg2, t.c2.len());
        let dc2: Vec<f32> = da2
            .iter()
            .zip(t.c2.iter())
            .map(|(g, &c)| if c > 0.0 { *g } else { 0.0 })
            .collect();
        let dp1 = self.conv2.backward(&t.p1, &dc2, h2, w2);
        let da1 = maxpool2x2_backward(&dp1, &t.arg1, t.c1.len());
        let dc1: Vec<f32> = da1
            .iter()
            .zip(t.c1.iter())
            .map(|(g, &c)| if c > 0.0 { *g } else { 0.0 })
            .collect();
        self.conv1.backward(x, &dc1, h, w)
    }
}

crate::impl_parameterized!(ConvStack { conv1, conv2 });

/// 2×2 max pooling (stride 2) over `(channels, h, w)` maps. Returns the
/// pooled map and argmax indices for the backward pass.
fn maxpool2x2(x: &[f32], channels: usize, h: usize, w: usize) -> (Vec<f32>, Vec<usize>) {
    let oh = h / 2;
    let ow = w / 2;
    let mut y = vec![f32::NEG_INFINITY; channels * oh * ow];
    let mut arg = vec![0usize; channels * oh * ow];
    for c in 0..channels {
        for yy in 0..oh {
            for xx in 0..ow {
                let oi = (c * oh + yy) * ow + xx;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let xi = (c * h + yy * 2 + dy) * w + xx * 2 + dx;
                        if x[xi] > y[oi] {
                            y[oi] = x[xi];
                            arg[oi] = xi;
                        }
                    }
                }
            }
        }
    }
    (y, arg)
}

/// Backward of [`maxpool2x2`].
fn maxpool2x2_backward(grad_out: &[f32], arg: &[usize], input_len: usize) -> Vec<f32> {
    let mut gx = vec![0.0f32; input_len];
    for (&a, &g) in arg.iter().zip(grad_out.iter()) {
        gx[a] += g;
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, &mut rng);
        // Set the kernel to a centred delta.
        conv.for_each_param(&mut |p, _| {
            if p.len() == 9 {
                p.copy_from_slice(&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
            } else if p.len() == 1 {
                p[0] = 0.0;
            }
        });
        let x: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let y = conv.forward(&x, 4, 4);
        assert_eq!(y, x);
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 3, &mut rng);
        let x: Vec<f32> = (0..2 * 4 * 4).map(|v| (v as f32 * 0.37).sin()).collect();
        let y = conv.forward(&x, 4, 4);
        // Loss = ½‖y‖² → grad_out = y.
        conv.zero_grads();
        let gx = conv.backward(&x, &y, 4, 4);

        // Finite-difference check of a few input gradients.
        let eps = 1e-2f32;
        let loss = |y: &[f32]| y.iter().map(|v| v * v).sum::<f32>() / 2.0;
        for &i in &[0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp[i] += eps;
            let lp = loss(&conv.forward(&xp, 4, 4));
            let mut xm = x.clone();
            xm[i] -= eps;
            let lm = loss(&conv.forward(&xm, 4, 4));
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gx[i] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "input {i}: analytic {} numeric {numeric}",
                gx[i]
            );
        }
    }

    #[test]
    fn conv_stack_gradient_check() {
        // Both conv → ReLU → 2×2-pool stages against central differences
        // of a fixed linear read-out `Σ rᵢ·outᵢ`, on every weight and bias
        // and on every input value. A linear read-out keeps the gradient
        // nonzero on pooled windows the ReLU zeroed, so the ReLU masks
        // are checked too.
        let mut rng = StdRng::seed_from_u64(2);
        let mut stack = ConvStack::new((8, 8), &mut rng);
        let x: Vec<f32> = (0..64).map(|v| (v as f32 * 0.61).sin()).collect();
        let r: Vec<f32> = (0..stack.output_len())
            .map(|i| (i as f32 * 0.83).cos())
            .collect();
        let loss = |stack: &ConvStack, x: &[f32]| {
            let (y, _) = stack.forward(x);
            y.iter().zip(&r).map(|(y, r)| y * r).sum::<f32>()
        };
        let (y, trace) = stack.forward(&x);
        assert!(y.contains(&0.0), "no pooled window is cut by the ReLU");
        stack.zero_grads();
        let gx = stack.backward(&x, &trace, &r);
        let mut analytic = Vec::new();
        stack.for_each_param(&mut |_, g| analytic.extend_from_slice(g));

        let eps = 1e-3f32;
        let close = |a: f32, n: f32| (a - n).abs() < 2e-2 * (1.0 + n.abs());
        for (idx, &a) in analytic.iter().enumerate() {
            let nudge = |stack: &mut ConvStack, delta: f32| {
                let mut pos = 0;
                stack.for_each_param(&mut |p, _| {
                    if (pos..pos + p.len()).contains(&idx) {
                        p[idx - pos] += delta;
                    }
                    pos += p.len();
                });
            };
            nudge(&mut stack, eps);
            let lp = loss(&stack, &x);
            nudge(&mut stack, -2.0 * eps);
            let lm = loss(&stack, &x);
            nudge(&mut stack, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                close(a, numeric),
                "param {idx}: analytic {a} numeric {numeric}"
            );
        }
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (loss(&stack, &xp) - loss(&stack, &xm)) / (2.0 * eps);
            assert!(
                close(gx[i], numeric),
                "input {i}: analytic {} numeric {numeric}",
                gx[i]
            );
        }
    }

    #[test]
    fn maxpool_and_backward() {
        let x = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 9.0, 0.0, 0.0,
        ];
        let (y, arg) = maxpool2x2(&x, 1, 4, 4);
        assert_eq!(y, vec![4.0, 8.0, 9.0, 1.0]);
        let gx = maxpool2x2_backward(&[1.0, 1.0, 1.0, 1.0], &arg, 16);
        assert_eq!(gx.iter().sum::<f32>(), 4.0);
        assert_eq!(gx[5], 1.0); // where 4.0 lived
        assert_eq!(gx[13], 1.0); // where 9.0 lived
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn conv_checks_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, &mut rng);
        conv.forward(&[0.0; 10], 4, 4);
    }
}
