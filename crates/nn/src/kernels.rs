//! Blocked f32 GEMM kernels: the FLOP floor under every model.
//!
//! All three `Matrix` products (`A·B`, `A·Bᵀ`, `Aᵀ·B`) funnel into one
//! packed, register-blocked, cache-tiled engine:
//!
//! * **Packing** — `B` is repacked into `NR`-wide column panels laid out
//!   k-major, and `A` into `MR`-tall row panels, so the micro-kernel
//!   streams both operands contiguously regardless of the requested
//!   transpose orientation (the orientation is absorbed at pack time).
//! * **Register blocking** — the micro-kernel computes an `MR × NR`
//!   block of `C` in local accumulators, broadcasting one `A` value
//!   against `NR` packed `B` values per lane-step.
//! * **Cache tiling** — the shared dimension is processed in `KC`-sized
//!   blocks, so one packed `B` block (≤ `KC·NR` floats per panel) stays
//!   resident while every row block of `A` streams past it.
//!
//! # Determinism contract
//!
//! Every output element is produced by a **single accumulator summing in
//! ascending-k order** (per `KC` block, with blocks themselves combined
//! in ascending order). No pairwise trees, no FMA contraction — the
//! SIMD paths use explicit multiply-then-add so rounding matches the
//! scalar path lane for lane. Consequences:
//!
//! * results are bit-identical run to run,
//! * the scalar, SSE2, and AVX2 micro-kernels are bit-identical to each
//!   other (verified by `tests/kernel_properties.rs` on every `x86_64`
//!   test run), so which backend [`active_backend`] picks never changes
//!   a logit,
//! * each output row is a function of its input rows alone, preserving
//!   the batch-size-independence that GesIDNet's batched-inference
//!   bit-exactness guarantee rests on.
//!
//! # Backends
//!
//! On `x86_64` every build compiles the SSE2 and AVX2 micro-kernels, and
//! [`active_backend`] picks the widest one the CPU supports at runtime.
//! Other targets run the portable scalar micro-kernel, which also stays
//! the oracle the SIMD kernels are pinned against through
//! [`gemm_with_backend`].
//!
//! The pre-existing naive triple loops are retained below as
//! [`naive_matmul`]/[`naive_matmul_transpose`]/[`naive_transpose_matmul`]
//! — the property-test oracle and the honest baseline for
//! `benches/matmul.rs`. They are not called on any production path.

use crate::matrix::Matrix;

/// Micro-kernel height: rows of `C` computed per register block.
pub const MR: usize = 4;
/// Micro-kernel width: columns of `C` computed per register block.
pub const NR: usize = 8;
/// Cache tile over the shared dimension.
pub const KC: usize = 256;

/// Below this many multiply-adds the blocked engine's packing overhead
/// outweighs its locality win, so a straight-line loop (with the same
/// per-element accumulation order — see the module docs) runs instead.
const SMALL_FLOPS: usize = 8 * 1024;

/// Which micro-kernel executes the inner loop.
///
/// Production products run on [`active_backend`]'s choice; the variants
/// are public so tests can pin a backend through [`gemm_with_backend`]
/// and assert cross-backend bit-equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar micro-kernel (always available; the oracle).
    Scalar,
    /// SSE2 (baseline on `x86_64`).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// AVX2, runtime-detected on `x86_64`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The backend `Matrix`'s products dispatch to on this machine: the
/// widest SIMD micro-kernel the CPU supports on `x86_64`, the scalar one
/// elsewhere. (All backends are bit-identical; this only selects speed.)
pub fn active_backend() -> Backend {
    // std caches the CPUID probe, so this is one atomic load per call.
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Backend::Scalar
    }
}

/// `a · b` through the blocked engine (production path of
/// [`Matrix::matmul`]). Shapes must already be validated by the caller.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    gemm(a, false, b, false, active_backend())
}

/// `a · bᵀ` through the blocked engine ([`Matrix::matmul_transpose`]).
pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    gemm(a, false, b, true, active_backend())
}

/// `aᵀ · b` through the blocked engine ([`Matrix::transpose_matmul`]).
pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    gemm(a, true, b, false, active_backend())
}

/// The blocked engine with a pinned [`Backend`], bypassing the
/// small-shape fast path so the micro-kernel under test actually runs.
/// Test/bench entry point; production code uses the `Matrix` methods.
///
/// # Panics
///
/// Panics if `backend` is `Backend::Avx2` on a CPU without AVX2.
pub fn gemm_with_backend(
    a: &Matrix,
    a_trans: bool,
    b: &Matrix,
    b_trans: bool,
    backend: Backend,
) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    assert!(
        backend != Backend::Avx2 || std::arch::is_x86_feature_detected!("avx2"),
        "Backend::Avx2 pinned on a CPU without AVX2"
    );
    let (m, n, k) = gemm_dims(a, a_trans, b, b_trans);
    let mut c = Matrix::zeros(m, n);
    gemm_blocked(a, a_trans, b, b_trans, m, n, k, backend, &mut c);
    c
}

fn gemm_dims(a: &Matrix, a_trans: bool, b: &Matrix, b_trans: bool) -> (usize, usize, usize) {
    let (m, ka) = if a_trans {
        (a.cols(), a.rows())
    } else {
        (a.rows(), a.cols())
    };
    let (kb, n) = if b_trans {
        (b.cols(), b.rows())
    } else {
        (b.rows(), b.cols())
    };
    debug_assert_eq!(ka, kb, "gemm shared-dimension mismatch");
    (m, n, ka)
}

fn gemm(a: &Matrix, a_trans: bool, b: &Matrix, b_trans: bool, backend: Backend) -> Matrix {
    let (m, n, k) = gemm_dims(a, a_trans, b, b_trans);
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    // Small shapes: packing costs more than it saves, and the simple
    // loops below share the blocked engine's exact accumulation order
    // (ascending k, single accumulator per element, k ≤ KC here), so
    // dispatching by size never changes a single bit of the result.
    if m * n * k <= SMALL_FLOPS && k <= KC {
        gemm_small(a, a_trans, b, b_trans, m, k, &mut c);
        return c;
    }
    gemm_blocked(a, a_trans, b, b_trans, m, n, k, backend, &mut c);
    c
}

/// Straight-line kernels for tiny operands. One loop nest per
/// orientation, chosen so the innermost loop walks contiguous memory;
/// all keep the single-accumulator ascending-k order.
fn gemm_small(
    a: &Matrix,
    a_trans: bool,
    b: &Matrix,
    b_trans: bool,
    m: usize,
    k: usize,
    c: &mut Matrix,
) {
    match (a_trans, b_trans) {
        (false, false) => {
            // ikj: C rows accumulate scaled B rows.
            for i in 0..m {
                let a_row = a.row(i);
                for (kk, &av) in a_row.iter().enumerate() {
                    let b_row = b.row(kk);
                    let c_row = c.row_mut(i);
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }
        (false, true) => {
            // Row-by-row dot products over contiguous rows of both.
            for i in 0..m {
                let a_row = a.row(i);
                let c_row = c.row_mut(i);
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = b.row(j);
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a_row[kk] * b_row[kk];
                    }
                    *cv = acc;
                }
            }
        }
        (true, false) => {
            // r-outer: each shared row of A and B rank-1-updates C.
            for r in 0..k {
                let a_row = a.row(r);
                let b_row = b.row(r);
                for (i, &av) in a_row.iter().enumerate() {
                    let c_row = c.row_mut(i);
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += av * bv;
                    }
                }
            }
        }
        (true, true) => {
            // Not used by any Matrix product; provided for completeness.
            for i in 0..m {
                let c_row = c.row_mut(i);
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = b.row(j);
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.at(kk, i) * b_row[kk];
                    }
                    *cv = acc;
                }
            }
        }
    }
}

/// The packed, tiled engine. `c` must be zeroed `m × n`.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: &Matrix,
    a_trans: bool,
    b: &Matrix,
    b_trans: bool,
    m: usize,
    n: usize,
    k: usize,
    backend: Backend,
    c: &mut Matrix,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let panels = n.div_ceil(NR);
    let mut bpack = vec![0.0f32; panels * NR * k.min(KC)];
    let mut apack = [0.0f32; MR * KC];
    let mut k0 = 0;
    while k0 < k {
        let klen = KC.min(k - k0);
        pack_b(b, b_trans, k0, klen, n, &mut bpack);
        let mut i0 = 0;
        while i0 < m {
            let mlen = MR.min(m - i0);
            pack_a(a, a_trans, k0, klen, i0, mlen, &mut apack);
            for p in 0..panels {
                let j0 = p * NR;
                let nlen = NR.min(n - j0);
                let panel = &bpack[p * NR * klen..(p + 1) * NR * klen];
                let mut acc = [[0.0f32; NR]; MR];
                run_microkernel(&apack[..klen * MR], panel, klen, &mut acc, backend);
                for (ii, acc_row) in acc.iter().enumerate().take(mlen) {
                    let row = &mut c.row_mut(i0 + ii)[j0..j0 + nlen];
                    for (cv, &av) in row.iter_mut().zip(acc_row.iter()) {
                        *cv += av;
                    }
                }
            }
            i0 += MR;
        }
        k0 += KC;
    }
}

/// Packs `B`'s logical block `[k0..k0+klen) × [0..n)` into `NR`-wide
/// panels, k-major within each panel: `bpack[(p·klen + k)·NR + jj] =
/// B(k0+k, p·NR+jj)` (transposed read when `b_trans`). Ragged tail
/// columns are zero-filled; their lanes are discarded at writeback.
fn pack_b(b: &Matrix, b_trans: bool, k0: usize, klen: usize, n: usize, bpack: &mut [f32]) {
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let j0 = p * NR;
        let nlen = NR.min(n - j0);
        let dst = &mut bpack[p * NR * klen..(p + 1) * NR * klen];
        if b_trans {
            // B(k, j) = b[j][k]: gather NR rows of b, one column at a time.
            for (kk, slot) in dst.chunks_exact_mut(NR).enumerate() {
                for (jj, v) in slot.iter_mut().enumerate() {
                    *v = if jj < nlen {
                        b.at(j0 + jj, k0 + kk)
                    } else {
                        0.0
                    };
                }
            }
        } else {
            // Contiguous copy out of each row of b.
            for (kk, slot) in dst.chunks_exact_mut(NR).enumerate() {
                let src = &b.row(k0 + kk)[j0..j0 + nlen];
                slot[..nlen].copy_from_slice(src);
                slot[nlen..].fill(0.0);
            }
        }
    }
}

/// Packs `A`'s logical block `[i0..i0+mlen) × [k0..k0+klen)` k-major:
/// `apack[k·MR + ii] = A(i0+ii, k0+k)` (transposed read when `a_trans`).
/// Ragged tail rows are zero-filled and discarded at writeback.
fn pack_a(
    a: &Matrix,
    a_trans: bool,
    k0: usize,
    klen: usize,
    i0: usize,
    mlen: usize,
    apack: &mut [f32; MR * KC],
) {
    if a_trans {
        if mlen == MR {
            for kk in 0..klen {
                let src = &a.row(k0 + kk)[i0..i0 + MR];
                apack[kk * MR..kk * MR + MR].copy_from_slice(src);
            }
        } else {
            for kk in 0..klen {
                let src = a.row(k0 + kk);
                let slot = &mut apack[kk * MR..kk * MR + MR];
                for (ii, v) in slot.iter_mut().enumerate() {
                    *v = if ii < mlen { src[i0 + ii] } else { 0.0 };
                }
            }
        }
    } else if mlen == MR {
        // Branch-free interleave of the four full rows (the common case:
        // every block but the last ragged one).
        let r0 = &a.row(i0)[k0..k0 + klen];
        let r1 = &a.row(i0 + 1)[k0..k0 + klen];
        let r2 = &a.row(i0 + 2)[k0..k0 + klen];
        let r3 = &a.row(i0 + 3)[k0..k0 + klen];
        for (kk, slot) in apack[..klen * MR].chunks_exact_mut(MR).enumerate() {
            slot[0] = r0[kk];
            slot[1] = r1[kk];
            slot[2] = r2[kk];
            slot[3] = r3[kk];
        }
    } else {
        for kk in 0..klen {
            let slot = &mut apack[kk * MR..kk * MR + MR];
            for (ii, v) in slot.iter_mut().enumerate() {
                *v = if ii < mlen {
                    a.row(i0 + ii)[k0 + kk]
                } else {
                    0.0
                };
            }
        }
    }
}

fn run_microkernel(
    apack: &[f32],
    bpanel: &[f32],
    klen: usize,
    acc: &mut [[f32; NR]; MR],
    backend: Backend,
) {
    match backend {
        Backend::Scalar => microkernel_scalar(apack, bpanel, klen, acc),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => microkernel_sse2(apack, bpanel, klen, acc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 reaches here only from `active_backend`'s runtime
        // detection or through `gemm_with_backend`, which checks the CPU.
        Backend::Avx2 => unsafe { microkernel_avx2(apack, bpanel, klen, acc) },
    }
}

/// Portable micro-kernel: `MR` broadcast lanes against `NR` packed `B`
/// values per k step. The accumulators live in a function-local array —
/// written back exactly once after the k loop — so LLVM can promote all
/// `MR·NR` of them to vector registers instead of round-tripping through
/// the caller's stack slot every k step. Independent accumulators per
/// output element let the autovectorizer work the `jj` loop without
/// reassociating any sum.
fn microkernel_scalar(apack: &[f32], bpanel: &[f32], klen: usize, acc: &mut [[f32; NR]; MR]) {
    let mut local = *acc;
    for kk in 0..klen {
        let bs: &[f32; NR] = bpanel[kk * NR..kk * NR + NR].try_into().unwrap();
        let avs: &[f32; MR] = apack[kk * MR..kk * MR + MR].try_into().unwrap();
        for (acc_row, &av) in local.iter_mut().zip(avs.iter()) {
            for (accv, &bv) in acc_row.iter_mut().zip(bs.iter()) {
                *accv += av * bv;
            }
        }
    }
    *acc = local;
}

/// SSE2 micro-kernel: the `NR` lane runs as two 128-bit halves.
/// Multiply-then-add (no FMA) keeps rounding identical to the scalar
/// kernel lane for lane.
#[cfg(target_arch = "x86_64")]
fn microkernel_sse2(apack: &[f32], bpanel: &[f32], klen: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is part of the x86_64 baseline; all pointer reads are
    // within the packed slices (`klen·NR` / `klen·MR` long).
    unsafe {
        let mut lanes = [[_mm_setzero_ps(); 2]; MR];
        for kk in 0..klen {
            let b0 = _mm_loadu_ps(bpanel.as_ptr().add(kk * NR));
            let b1 = _mm_loadu_ps(bpanel.as_ptr().add(kk * NR + 4));
            for (ii, lane) in lanes.iter_mut().enumerate() {
                let av = _mm_set1_ps(*apack.get_unchecked(kk * MR + ii));
                lane[0] = _mm_add_ps(lane[0], _mm_mul_ps(av, b0));
                lane[1] = _mm_add_ps(lane[1], _mm_mul_ps(av, b1));
            }
        }
        for (acc_row, lane) in acc.iter_mut().zip(lanes.iter()) {
            _mm_storeu_ps(acc_row.as_mut_ptr(), lane[0]);
            _mm_storeu_ps(acc_row.as_mut_ptr().add(4), lane[1]);
        }
    }
}

/// AVX2 micro-kernel: one 256-bit accumulator per `C` row. As with
/// SSE2, explicit mul+add — not `fmadd` — so all backends round alike.
///
/// # Safety
///
/// The CPU must support AVX2 (callers go through [`active_backend`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn microkernel_avx2(apack: &[f32], bpanel: &[f32], klen: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let mut lanes = [_mm256_setzero_ps(); MR];
    for kk in 0..klen {
        let b = _mm256_loadu_ps(bpanel.as_ptr().add(kk * NR));
        for (ii, lane) in lanes.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*apack.get_unchecked(kk * MR + ii));
            *lane = _mm256_add_ps(*lane, _mm256_mul_ps(av, b));
        }
    }
    for (acc_row, lane) in acc.iter_mut().zip(lanes.iter()) {
        _mm256_storeu_ps(acc_row.as_mut_ptr(), *lane);
    }
}

// ---------------------------------------------------------------------
// Naive oracles — the original triple loops, retained for property
// tests and as the honest baseline in `benches/matmul.rs`.
// ---------------------------------------------------------------------

/// The original naive `a · b` (ikj loop), kept verbatim as the test
/// oracle — including the per-element sparsity branch the production
/// kernels dropped (on dense operands it cost a branch per multiply for
/// nothing; see `benches/matmul.rs`).
pub fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let o_row = out.row_mut(i);
            for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The original naive `a · bᵀ` (row-dot loop), writing through row
/// slices rather than per-element bounds-checked `set` calls.
pub fn naive_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose dimension mismatch");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let o_row = out.row_mut(i);
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for k in 0..a_row.len() {
                acc += a_row[k] * b_row[k];
            }
            *o = acc;
        }
    }
    out
}

/// The original naive `aᵀ · b` (rank-1 update loop), kept verbatim as
/// the test oracle — sparsity branch included, as shipped.
pub fn naive_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "transpose_matmul dimension mismatch");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for r in 0..a.rows() {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o_row = out.row_mut(i);
            for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}
