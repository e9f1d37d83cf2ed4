//! A minimal pure-Rust neural-network substrate.
//!
//! The offline environment has no deep-learning ecosystem, so GesIDNet
//! and the baselines are built on this crate: dense matrices, layers with
//! explicit forward/backward (no autograd graph — models own their
//! intermediates), cross-entropy losses, and the Adam optimizer.
//!
//! Design notes:
//!
//! * **Stateless forward** — layers do not cache activations; `forward`
//!   is `&self` and `backward` takes the original input back. This lets
//!   one shared MLP be applied to many point groups (PointNet++-style
//!   weight sharing) without aliasing issues.
//! * **Gradient accumulation** — `backward` adds into the layer's `grad`
//!   buffers; the optimizer consumes and zeroes them via
//!   [`Parameterized::for_each_param`].
//! * **One parameter list per model** — only the leaves ([`Linear`],
//!   [`Conv2d`], [`Lstm`]) implement [`Parameterized`] by hand. Every
//!   composite names its parameterized fields once, in
//!   [`impl_parameterized!`], which derives both the optimizer's walk
//!   and the read-only export walk from that list. The list order is
//!   the layout of the model's weight stream ([`serialize`]).
//! * **Determinism** — all initialisation is seeded, and the matmul
//!   kernels ([`kernels`]) accumulate every output element in a fixed
//!   ascending-k order, so results are bit-stable run to run and across
//!   the scalar and AVX2 micro-kernels (picked at runtime).
//!
//! # Example
//!
//! ```
//! use gp_nn::{Linear, Adam, softmax_cross_entropy, Matrix, Parameterized};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut layer = Linear::new(4, 3, &mut rng);
//! let mut adam = Adam::new(1e-2);
//! let x = Matrix::from_rows(&[vec![0.2, -0.1, 0.5, 1.0]]);
//! for _ in 0..200 {
//!     let logits = layer.forward(&x);
//!     let (loss, grad) = softmax_cross_entropy(logits.row(0), 2);
//!     let _ = loss;
//!     let grad_m = Matrix::from_rows(&[grad]);
//!     layer.backward(&x, &grad_m);
//!     adam.begin_step();
//!     layer.for_each_param(&mut |p, g| adam.update(p, g));
//! }
//! let logits = layer.forward(&x);
//! let pred = gp_nn::argmax(logits.row(0));
//! assert_eq!(pred, 2);
//! ```

pub mod conv;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod optim;
pub mod serialize;

pub use conv::{Conv2d, ConvStack};
pub use layers::{Linear, MaxPool, Relu};
pub use loss::{argmax, softmax, softmax_cross_entropy, softmax_rows};
pub use lstm::Lstm;
pub use matrix::Matrix;
pub use optim::Adam;

/// Types exposing trainable parameters to an optimizer.
///
/// Implementations must visit parameters in a stable order; optimizers
/// key their per-parameter state on visit order.
pub trait Parameterized {
    /// Calls `f(param, grad)` for every parameter tensor.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Calls `f(param)` for every parameter tensor, read-only and in
    /// the same order as [`Parameterized::for_each_param`] — the export
    /// side of serialization, which must not require `&mut` access to a
    /// trained model.
    fn visit_params(&self, f: &mut dyn FnMut(&[f32]));

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Zeroes all gradient buffers.
    fn zero_grads(&mut self) {
        self.for_each_param(&mut |_, g| g.iter_mut().for_each(|v| *v = 0.0));
    }
}

/// A list of layers, visited in list order.
impl<T: Parameterized> Parameterized for Vec<T> {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in self {
            layer.for_each_param(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in self {
            layer.visit_params(f);
        }
    }
}

/// Implements [`Parameterized`] for a composite from one list of its
/// fields, each of them [`Parameterized`]: `for_each_param` and
/// `visit_params` both walk the fields in list order, so the list is
/// the model's weight-stream layout and the two walks cannot disagree.
///
/// ```
/// use gp_nn::{Linear, Parameterized};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// struct TwoLayer {
///     hidden: Linear,
///     heads: Vec<Linear>,
/// }
/// gp_nn::impl_parameterized!(TwoLayer { hidden, heads });
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let net = TwoLayer {
///     hidden: Linear::new(4, 3, &mut rng),
///     heads: vec![Linear::new(3, 2, &mut rng), Linear::new(3, 1, &mut rng)],
/// };
/// let mut lens = Vec::new();
/// net.visit_params(&mut |p| lens.push(p.len()));
/// assert_eq!(lens, [12, 3, 6, 2, 3, 1]);
/// ```
#[macro_export]
macro_rules! impl_parameterized {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Parameterized for $ty {
            fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
                $($crate::Parameterized::for_each_param(&mut self.$field, f);)+
            }

            fn visit_params(&self, f: &mut dyn FnMut(&[f32])) {
                $($crate::Parameterized::visit_params(&self.$field, f);)+
            }
        }
    };
}
