//! Blocked GEMM kernels vs the retained naive oracles.
//!
//! The kernel layer (`gp_nn::kernels`) replaced the naive triple loops
//! behind every `Matrix` product; this bench makes the claimed FLOP
//! uplift measurable at GesIDNet-representative shapes and keeps the
//! comparison honest: results are parity-gated against the oracle
//! before anything is timed, and the headline speedups are asserted so
//! a regression to naive-level throughput fails the bench instead of
//! silently shifting the baseline.
//!
//! Also exports `results/BENCH_matmul.json` — a telemetry snapshot with
//! one per-iteration latency histogram per (kernel, shape) — through
//! the same artifact envelope as the serving benches.

use criterion::{criterion_group, Criterion};
use gp_nn::kernels;
use gp_nn::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// GesIDNet-representative product shapes `(m, k, n, tag)`:
///
/// * `256×64 · 64×128` — stacked SA1 group rows through a shared-MLP
///   layer at batch 8 (the ISSUE's reference shape).
/// * `192×96 · 96×192` — low/high projection over stacked centroid rows.
/// * `24×35 · 35×24` — one sample's SA1 groups, the small-path regime.
const SHAPES: [(usize, usize, usize, &str); 3] = [
    (256, 64, 128, "256x64.64x128"),
    (192, 96, 192, "192x96.96x192"),
    (24, 35, 24, "24x35.35x24"),
];

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_close(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
            "{what}: {x} vs {y}"
        );
    }
}

/// Per-call seconds over `iters` timed runs (after warmup), sorted.
fn time_runs(iters: usize, mut f: impl FnMut() -> Matrix) -> Vec<f64> {
    for _ in 0..3 {
        black_box(f());
    }
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times
}

fn bench_matmul(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let iters = if smoke { 5 } else { 40 };
    let backend = kernels::active_backend();
    let simd_active = backend != kernels::Backend::Scalar;

    let registry = gp_telemetry::Registry::new();
    registry.set_attr("backend", gp_codec::Value::Str(format!("{backend:?}")));
    let mut group = c.benchmark_group("matmul");
    let mut report: Vec<String> = Vec::new();

    for (m, k, n, tag) in SHAPES {
        let a = filled(m, k, 1);
        let b = filled(k, n, 2);
        let bt = filled(n, k, 3);
        let a_tall = filled(k, m, 4);

        // Parity gate: timing a kernel that diverges from the oracle
        // would be meaningless.
        assert_close(&a.matmul(&b), &kernels::naive_matmul(&a, &b), tag);
        assert_close(
            &a.matmul_transpose(&bt),
            &kernels::naive_matmul_transpose(&a, &bt),
            tag,
        );
        assert_close(
            &a_tall.transpose_matmul(&b),
            &kernels::naive_transpose_matmul(&a_tall, &b),
            tag,
        );

        // Criterion benches (these feed the CI regression gate).
        group.bench_function(format!("blocked_{tag}"), |bch| bch.iter(|| a.matmul(&b)));
        group.bench_function(format!("naive_{tag}"), |bch| {
            bch.iter(|| kernels::naive_matmul(&a, &b))
        });
        group.bench_function(format!("blocked_transpose_{tag}"), |bch| {
            bch.iter(|| a.matmul_transpose(&bt))
        });

        // Manual timings for the speedup report + telemetry export. The
        // ratio uses the *minimum* per-call time: for a CPU-bound kernel
        // the min is the run least disturbed by scheduler/frequency
        // noise (this box shows ±20% sample spread), while medians of
        // interleaved runs wander enough to flake a 2x gate.
        let variants: [(&str, Box<dyn FnMut() -> Matrix>); 6] = [
            ("blocked", Box::new(|| a.matmul(&b))),
            ("naive", Box::new(|| kernels::naive_matmul(&a, &b))),
            ("blocked_nt", Box::new(|| a.matmul_transpose(&bt))),
            (
                "naive_nt",
                Box::new(|| kernels::naive_matmul_transpose(&a, &bt)),
            ),
            ("blocked_tn", Box::new(|| a_tall.transpose_matmul(&b))),
            (
                "naive_tn",
                Box::new(|| kernels::naive_transpose_matmul(&a_tall, &b)),
            ),
        ];
        let mut mins = std::collections::BTreeMap::new();
        for (name, mut f) in variants {
            let times = time_runs(iters, &mut f);
            let hist = registry.histogram(&format!("matmul.{name}.{tag}"));
            for t in &times {
                hist.record((t * 1e6) as u64);
            }
            mins.insert(name, times[0]);
        }
        let s = mins["naive"] / mins["blocked"];
        let s_nt = mins["naive_nt"] / mins["blocked_nt"];
        let s_tn = mins["naive_tn"] / mins["blocked_tn"];
        report.push(format!(
            "{tag}: matmul {s:.2}x, matmul_transpose {s_nt:.2}x, transpose_matmul {s_tn:.2}x \
             (blocked {:.1}us vs naive {:.1}us)",
            mins["blocked"] * 1e6,
            mins["naive"] * 1e6,
        ));
        registry.set_attr(
            &format!("speedup.{tag}"),
            gp_codec::Value::Str(format!("{s:.2}/{s_nt:.2}/{s_tn:.2}")),
        );

        // The acceptance floor, asserted only at the large stacked
        // shapes where the kernel's cache behaviour dominates — the
        // small per-sample shape runs the low-overhead fast path and is
        // reported, not gated. The ≥2× matmul floor needs the AVX2
        // micro-kernel: the naive ikj loop autovectorizes to near the
        // SSE2 mul+add peak, which no scalar-codegen kernel can double.
        // Where the scalar micro-kernel runs (off `x86_64`, or on a CPU
        // without AVX2) the blocked engine must merely not lose to
        // naive (0.9 leaves room for timer noise);
        // matmul_transpose's naive row-dot reduction does not vectorize,
        // so its 2× floor holds on every backend. Smoke mode (`--test`)
        // skips the assertions: 5 iterations on a shared CI box is not a
        // measurement.
        if !smoke && m * n >= 128 * 128 {
            let floor = if simd_active { 2.0 } else { 0.9 };
            assert!(
                s >= floor,
                "blocked matmul must be >={floor}x naive at {tag} ({backend:?}): got {s:.2}x"
            );
            assert!(
                s_nt >= 2.0,
                "blocked matmul_transpose must be >=2x naive at {tag}: got {s_nt:.2}x"
            );
        }
    }
    group.finish();

    println!("kernel speedups (min of {iters}):");
    for line in &report {
        println!("  {line}");
    }

    let mut snapshot = registry.snapshot();
    snapshot
        .attrs
        .insert("bench".into(), gp_codec::Value::Str("matmul".into()));
    gp_bench::write_result(
        "BENCH_matmul.json",
        &gp_bench::telemetry_artifact(&snapshot),
    );
}

criterion_group!(benches, bench_matmul);

fn main() {
    benches();
}
