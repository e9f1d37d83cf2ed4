//! Property tests pinning the fused Linear→ReLU epilogue and the ReLU
//! mask to the two-pass forms they replaced, bit for bit:
//!
//! * `Linear::forward_relu` and `kernels::bias_relu` against a bias add
//!   followed by the branchy clamp `if v < 0.0 { v = 0.0 }`,
//! * `Relu::backward` masking on the activation against the mask
//!   `if pre <= 0.0 { g = 0.0 }` on the pre-activation,
//!
//! on values drawn from NaN (both signs), ±0.0, ±∞, subnormals and a
//! few finite values, with widths that do not fill a vector register.
//!
//! One exception: Rust leaves the sign and payload of a NaN that an
//! addition produces unspecified, and in release builds the compiler
//! may swap an add's operands (x86 returns the first NaN operand), so
//! `NaN + -NaN` can differ in sign between two compilations of the same
//! sum. Epilogue outputs therefore compare NaN as NaN and every other
//! value bit for bit. The mask does no arithmetic and compares bit for
//! bit throughout.

use gp_nn::kernels::bias_relu;
use gp_nn::{Linear, Matrix, Parameterized, Relu};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Values the clamp and the mask treat specially: NaN fails every
/// comparison, -0.0 is neither below nor above 0.0, and a subnormal
/// sum must not be flushed.
const PALETTE: [f32; 14] = [
    f32::NAN,
    -f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE / 4.0,
    -f32::MIN_POSITIVE / 4.0,
    1e-45,
    -1e-45,
    1.0,
    -1.0,
    0.375,
    -2.5,
];

/// A `rows × cols` matrix of palette values picked by a xorshift stream.
fn palette_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, palette_vec(rows * cols, seed))
}

fn palette_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            PALETTE[(state % PALETTE.len() as u64) as usize]
        })
        .collect()
}

/// The clamp the unfused forward ran: a conditional store per element.
fn branchy_clamp(mut y: Matrix) -> Matrix {
    for v in y.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    y
}

/// The two-pass forward the fused epilogue replaced: `y` with `bias`
/// added to every row, then the branchy clamp.
fn two_pass_oracle(mut y: Matrix, bias: &[f32]) -> Matrix {
    for r in 0..y.rows() {
        for (v, b) in y.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
    branchy_clamp(y)
}

/// The mask on the pre-activation that the activation mask replaced.
fn pre_activation_mask(pre: &Matrix, mut grad: Matrix) -> Matrix {
    for (g, &p) in grad.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
    grad
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one pattern: the comparison for
/// sums, whose NaN sign and payload are unspecified.
fn sum_bits(m: &Matrix) -> Vec<u32> {
    let nan = f32::NAN.to_bits();
    m.as_slice()
        .iter()
        .map(|v| if v.is_nan() { nan } else { v.to_bits() })
        .collect()
}

/// A `Linear` whose weights and biases are palette values.
fn palette_linear(input: usize, output: usize, seed: u64) -> Linear {
    let mut layer = Linear::new(input, output, &mut StdRng::seed_from_u64(seed));
    let mut salt = seed;
    layer.for_each_param(&mut |p, _| {
        salt = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        p.copy_from_slice(&palette_vec(p.len(), salt));
    });
    layer
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused forward equals `forward` then the branchy clamp, bit
    /// for bit, on the small and the blocked GEMM paths alike.
    #[test]
    fn forward_relu_matches_forward_then_branchy_clamp(
        rows in 1usize..12,
        input in 1usize..40,
        output in 1usize..40,
        seed in any::<u64>(),
    ) {
        let layer = palette_linear(input, output, seed);
        let x = palette_matrix(rows, input, seed ^ 0xA5A5);
        let fused = layer.forward_relu(&x);
        prop_assert_eq!((fused.rows(), fused.cols()), (rows, output));
        prop_assert_eq!(sum_bits(&fused), sum_bits(&branchy_clamp(layer.forward(&x))));
    }

    /// The epilogue alone, on sums no GEMM produces: a product is
    /// never -0.0, but `bias_relu` must keep a -0.0 sum as the clamp
    /// does.
    #[test]
    fn bias_relu_matches_bias_add_then_branchy_clamp(
        rows in 0usize..12,
        cols in 0usize..40,
        seed in any::<u64>(),
    ) {
        let y = palette_matrix(rows, cols, seed);
        let bias = palette_vec(cols, seed ^ 0x5A5A);
        let mut fused = y.clone();
        bias_relu(&mut fused, &bias);
        prop_assert_eq!(sum_bits(&fused), sum_bits(&two_pass_oracle(y, &bias)));
    }

    /// Masking on the activation zeroes exactly the entries the mask on
    /// the pre-activation zeroes, and leaves the rest's bits alone.
    #[test]
    fn activation_mask_matches_pre_activation_mask(
        rows in 0usize..12,
        cols in 0usize..40,
        seed in any::<u64>(),
    ) {
        let pre = palette_matrix(rows, cols, seed);
        let grad = palette_matrix(rows, cols, seed ^ 0x3C3C);
        let act = branchy_clamp(pre.clone());
        let want = pre_activation_mask(&pre, grad.clone());
        prop_assert_eq!(bits(&Relu.backward(&act, grad)), bits(&want));
    }
}

/// Every palette pre-activation and every palette `(sum, bias)` pair,
/// one by one, so no special value is left to chance.
#[test]
fn every_special_value_pair() {
    for &v in &PALETTE {
        for &b in &PALETTE {
            let mut fused = Matrix::from_vec(1, 1, vec![v]);
            bias_relu(&mut fused, &[b]);
            let want = two_pass_oracle(Matrix::from_vec(1, 1, vec![v]), &[b]);
            assert_eq!(sum_bits(&fused), sum_bits(&want), "v = {v:?}, b = {b:?}");
        }
        let pre = Matrix::from_vec(1, 1, vec![v]);
        let act = branchy_clamp(pre.clone());
        let grad = Matrix::from_vec(1, 1, vec![3.0]);
        assert_eq!(
            bits(&Relu.backward(&act, grad.clone())),
            bits(&pre_activation_mask(&pre, grad)),
            "pre = {v:?}"
        );
    }
}

#[test]
#[should_panic(expected = "bias width mismatch")]
fn bias_relu_checks_width() {
    bias_relu(&mut Matrix::zeros(2, 3), &[0.0; 2]);
}
