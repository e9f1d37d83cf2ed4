//! Property tests pinning the segmented max-pool kernels to a naive
//! branchy oracle, bit for bit: `MaxPool::forward_segments` and
//! `MaxPool::forward_segments_trace` on rows drawn from NaN (both
//! signs), ±0.0, ±∞ and a few repeated finite values, with empty
//! segments and widths that do not fill a vector register.

use gp_nn::{Matrix, MaxPool};
use proptest::prelude::*;

/// Values whose order `>` treats specially: NaN never wins or loses a
/// comparison, `0.0 > -0.0` is false, and repeats tie.
const PALETTE: [f32; 10] = [
    f32::NAN,
    -f32::NAN,
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.5,
    2.5,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// A `rows × cols` matrix of palette values picked by a xorshift stream.
fn palette_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            PALETTE[(state % PALETTE.len() as u64) as usize]
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Per segment, the first row, then each later row replacing a column's
/// value only where `v > best` (so the first maximum wins); empty
/// segments pool to zeros with no argmax.
fn branchy_oracle(x: &Matrix, lens: &[usize]) -> (Vec<Vec<f32>>, Vec<Vec<usize>>) {
    let mut pooled = Vec::new();
    let mut args = Vec::new();
    let mut base = 0;
    for &len in lens {
        if len == 0 {
            pooled.push(vec![0.0; x.cols()]);
            args.push(Vec::new());
            continue;
        }
        let mut best = x.row(base).to_vec();
        let mut arg = vec![0usize; x.cols()];
        for r in 1..len {
            for j in 0..x.cols() {
                let v = x.at(base + r, j);
                if v > best[j] {
                    best[j] = v;
                    arg[j] = r;
                }
            }
        }
        pooled.push(best);
        args.push(arg);
        base += len;
    }
    (pooled, args)
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn segmented_pools_match_branchy_oracle(
        lens in prop::collection::vec(0usize..9, 0..8),
        cols in 1usize..40,
        seed in any::<u64>(),
    ) {
        let rows: usize = lens.iter().sum();
        let x = palette_matrix(rows, cols, seed);
        let (want, want_args) = branchy_oracle(&x, &lens);
        let pooled = MaxPool.forward_segments(&x, &lens);
        let (traced, args) = MaxPool.forward_segments_trace(&x, &lens);
        prop_assert_eq!(pooled.rows(), lens.len());
        prop_assert_eq!(traced.rows(), lens.len());
        for (k, want_row) in want.iter().enumerate() {
            prop_assert_eq!(bits(pooled.row(k)), bits(want_row), "segment {}", k);
            prop_assert_eq!(bits(traced.row(k)), bits(want_row), "traced segment {}", k);
        }
        prop_assert_eq!(args, want_args);
    }
}

#[test]
fn first_maximum_wins_and_nan_never_replaces() {
    // Column 0: a repeated maximum keeps the first; column 1: -0.0 does
    // not replace 0.0; column 2: a leading NaN stays; column 3: a later
    // NaN is skipped.
    let x = Matrix::from_rows(&[
        vec![1.0, 0.0, f32::NAN, 1.0],
        vec![3.0, -0.0, 5.0, f32::NAN],
        vec![3.0, -0.0, 7.0, 2.0],
    ]);
    let (pooled, args) = MaxPool.forward_segments_trace(&x, &[3]);
    assert_eq!(pooled.at(0, 0), 3.0);
    assert_eq!(args[0][0], 1);
    assert_eq!(pooled.at(0, 1).to_bits(), 0.0f32.to_bits());
    assert_eq!(args[0][1], 0);
    assert!(pooled.at(0, 2).is_nan());
    assert_eq!(args[0][2], 0);
    assert_eq!(pooled.at(0, 3), 2.0);
    assert_eq!(args[0][3], 2);
    assert_eq!(
        bits(MaxPool.forward_segments(&x, &[3]).row(0)),
        bits(pooled.row(0))
    );
}
