//! Property tests for the blocked GEMM kernels against the retained
//! naive oracles, plus the determinism contract:
//!
//! * every `Matrix` product matches its naive oracle within a tight
//!   relative epsilon across ragged shapes (1×1 up through sizes that
//!   are not multiples of the `MR`/`NR` tiles and cross the `KC` cache
//!   tile),
//! * `a·bᵀ` is bit-identical to `a·(bᵀ)` from an explicit transpose on
//!   blocked shapes (the transposed pack builds the same panels),
//! * two runs of the blocked kernel are bit-identical,
//! * on `x86_64`, the runtime-detected backend is bit-identical to the
//!   pinned scalar backend (not merely close), and it is AVX2 exactly
//!   when the CPU has AVX2.

use gp_nn::kernels::{self, Backend, KC, MR, NR};
use gp_nn::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix with signed values spanning a few
/// orders of magnitude, plus exact zeros so the oracle's sparsity
/// branch is exercised.
fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let z = next();
            if z % 11 == 0 {
                0.0
            } else {
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                ((unit - 0.5) * 4.0) as f32 * if z % 3 == 0 { 0.01 } else { 1.0 }
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Relative-epsilon comparison: `|a - b| ≤ tol · (1 + max(|a|, |b|))`.
fn assert_close(a: &Matrix, b: &Matrix, tol: f32, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}: element {i}: {x} vs {y}"
        );
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three products agree with their naive oracles across ragged
    /// shapes, from 1×1 up through non-multiple-of-tile sizes.
    #[test]
    fn products_match_naive_oracle(
        m in 1usize..=2 * MR * NR + 3,
        n in 1usize..=2 * MR * NR + 3,
        k in 1usize..=40,
        seed in 0u64..1000,
    ) {
        let a = filled(m, k, seed);
        let b = filled(k, n, seed ^ 0xB0B);
        prop_assert_eq!(a.matmul(&b).rows(), m);
        assert_close(&a.matmul(&b), &kernels::naive_matmul(&a, &b), 1e-5, "matmul");

        let bt = filled(n, k, seed ^ 0xB0B);
        assert_close(
            &a.matmul_transpose(&bt),
            &kernels::naive_matmul_transpose(&a, &bt),
            1e-5,
            "matmul_transpose",
        );

        let a_tall = filled(k, m, seed ^ 0xA11);
        assert_close(
            &a_tall.transpose_matmul(&b),
            &kernels::naive_transpose_matmul(&a_tall, &b),
            1e-5,
            "transpose_matmul",
        );
    }

    /// Shapes whose shared dimension crosses the `KC` cache tile still
    /// match the oracle (the per-element sum is split across k blocks).
    #[test]
    fn k_tiling_matches_oracle(
        m in 1usize..=9,
        n in 1usize..=17,
        k_extra in 0usize..=70,
        seed in 0u64..200,
    ) {
        let k = KC - 5 + k_extra; // straddles the KC boundary
        let a = filled(m, k, seed);
        let b = filled(k, n, seed ^ 0xFEED);
        assert_close(&a.matmul(&b), &kernels::naive_matmul(&a, &b), 1e-4, "matmul(k>KC)");
        let bt = filled(n, k, seed ^ 0xFEED);
        assert_close(
            &a.matmul_transpose(&bt),
            &kernels::naive_matmul_transpose(&a, &bt),
            1e-4,
            "matmul_transpose(k>KC)",
        );
    }

    /// `a·bᵀ` packs `b`'s rows straight into transposed panels; the
    /// panels must be exactly those of `a·(bᵀ)` built from an explicit
    /// transpose, so the two products agree bit for bit. The shapes all
    /// take the blocked path, with a ragged last panel (`n % NR != 0`)
    /// and a shared dimension that crosses the `KC` tile.
    #[test]
    fn transposed_pack_matches_explicit_transpose(
        m in MR..=2 * MR + 1,
        panels in 1usize..=3,
        ragged in 1usize..NR,
        k_extra in 0usize..=70,
        seed in 0u64..200,
    ) {
        let n = panels * NR + ragged;
        let k = KC - 5 + k_extra;
        let a = filled(m, k, seed);
        let bt = filled(n, k, seed ^ 0x7AC4);
        prop_assert_eq!(
            bits(&a.matmul_transpose(&bt)),
            bits(&a.matmul(&bt.transposed())),
            "{}x{}·({}x{})ᵀ", m, k, n, k
        );
    }

    /// Two runs of the blocked kernel are bit-identical, and the result
    /// does not depend on whether the small-shape fast path or the full
    /// blocked engine computed it (same per-element accumulation order).
    #[test]
    fn blocked_kernel_is_bit_deterministic(
        m in 1usize..=33,
        n in 1usize..=33,
        k in 1usize..=33,
        seed in 0u64..1000,
    ) {
        let a = filled(m, k, seed);
        let b = filled(k, n, seed ^ 0xD1CE);
        let first = a.matmul(&b);
        prop_assert_eq!(bits(&first), bits(&a.matmul(&b)), "run-to-run");
        // Pinning the scalar backend bypasses the size dispatch: the
        // answer must not change by a single bit.
        let forced = kernels::gemm_with_backend(&a, false, &b, false, Backend::Scalar);
        prop_assert_eq!(bits(&first), bits(&forced), "dispatch-independence");

        let bt = filled(n, k, seed ^ 0xD1CE);
        let nt = a.matmul_transpose(&bt);
        let nt_forced = kernels::gemm_with_backend(&a, false, &bt, true, Backend::Scalar);
        prop_assert_eq!(bits(&nt), bits(&nt_forced), "matmul_transpose dispatch");

        let a_tall = filled(k, m, seed ^ 0x7A11);
        let tn = a_tall.transpose_matmul(&b);
        let tn_forced = kernels::gemm_with_backend(&a_tall, true, &b, false, Backend::Scalar);
        prop_assert_eq!(bits(&tn), bits(&tn_forced), "transpose_matmul dispatch");
    }
}

/// The one dispatch rule: on `x86_64`, the AVX2 kernel runs exactly
/// when the CPU has AVX2, and the scalar kernel otherwise.
#[cfg(target_arch = "x86_64")]
#[test]
fn active_backend_is_avx2_exactly_when_detected() {
    let expected = if std::arch::is_x86_feature_detected!("avx2") {
        Backend::Avx2
    } else {
        Backend::Scalar
    };
    assert_eq!(kernels::active_backend(), expected);
}

/// On `x86_64`, the backend `active_backend` detects must be
/// bit-identical to the scalar micro-kernel — the contract that makes
/// the runtime dispatch a pure speed choice.
#[cfg(target_arch = "x86_64")]
#[test]
fn simd_backends_bit_identical_to_scalar() {
    let backend = kernels::active_backend();
    for (m, n, k) in [
        (1, 1, 1),
        (3, 5, 7),
        (MR, NR, 16),
        (MR + 1, NR + 3, 31),
        (2 * MR + 3, 3 * NR + 5, KC + 17),
        (64, 96, 67),
    ] {
        for seed in 0..4u64 {
            let a = filled(m, k, seed);
            let b = filled(k, n, seed ^ 0x51D);
            let bt = filled(n, k, seed ^ 0x51D);
            let a_tall = filled(k, m, seed ^ 0x717);
            for (at, bx, bt_flag, label) in [
                (&a, &b, (false, false), "matmul"),
                (&a, &bt, (false, true), "matmul_transpose"),
                (&a_tall, &b, (true, false), "transpose_matmul"),
            ] {
                let scalar =
                    kernels::gemm_with_backend(at, bt_flag.0, bx, bt_flag.1, Backend::Scalar);
                let simd = kernels::gemm_with_backend(at, bt_flag.0, bx, bt_flag.1, backend);
                assert_eq!(
                    bits(&scalar),
                    bits(&simd),
                    "{label} {m}x{k}·{k}x{n}: {backend:?} diverged from Scalar"
                );
            }
        }
    }
}

/// Two runs of the SIMD-dispatched kernel are bit-identical.
#[cfg(target_arch = "x86_64")]
#[test]
fn simd_kernel_is_run_to_run_deterministic() {
    let backend = kernels::active_backend();
    let a = filled(37, KC + 9, 99);
    let b = filled(KC + 9, 29, 7);
    let first = kernels::gemm_with_backend(&a, false, &b, false, backend);
    let second = kernels::gemm_with_backend(&a, false, &b, false, backend);
    assert_eq!(bits(&first), bits(&second));
}
