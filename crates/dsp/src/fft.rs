//! Iterative radix-2 decimation-in-time fast Fourier transform.
//!
//! The FMCW signal chain uses three FFT passes (range, Doppler, angle), all
//! over power-of-two lengths, so a classic in-place radix-2 butterfly with a
//! precomputed twiddle table covers every need of the simulator.

use crate::complex::Complex;
use std::f64::consts::PI;

/// Returns `true` if `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Returns the smallest power of two `>= n` (minimum 1).
///
/// ```
/// assert_eq!(gp_dsp::fft::next_power_of_two(5), 8);
/// assert_eq!(gp_dsp::fft::next_power_of_two(8), 8);
/// ```
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (includes the `1/N` normalisation).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = *z / n;
    }
}

/// Out-of-place forward FFT; the input is zero-padded to the next power of
/// two if necessary.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let n = next_power_of_two(input.len());
    let mut buf = Vec::with_capacity(n);
    buf.extend_from_slice(input);
    buf.resize(n, Complex::ZERO);
    fft_in_place(&mut buf);
    buf
}

/// Swaps the two halves of a spectrum so that the zero-frequency bin is
/// centred, matching the usual Doppler-map layout where negative velocities
/// occupy the left half.
///
/// # Panics
///
/// Panics if the length is odd.
pub fn fft_shift<T: Copy>(data: &mut [T]) {
    let n = data.len();
    assert!(
        n.is_multiple_of(2),
        "fft_shift requires an even length, got {n}"
    );
    let half = n / 2;
    for i in 0..half {
        data.swap(i, i + half);
    }
}

/// Maps a centred (post-[`fft_shift`]) bin index back to a signed frequency
/// index in `[-n/2, n/2)`.
#[inline]
pub fn shifted_bin_to_signed(bin: usize, n: usize) -> isize {
    bin as isize - (n / 2) as isize
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, eps: f64) {
        assert!(
            (a - b).norm() < eps,
            "expected {b} within {eps}, got {a} (delta {})",
            (a - b).norm()
        );
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft_in_place(&mut data);
        for z in &data {
            assert_close(*z, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn constant_concentrates_in_dc() {
        let mut data = vec![Complex::ONE; 16];
        fft_in_place(&mut data);
        assert_close(data[0], Complex::new(16.0, 0.0), 1e-12);
        for z in &data[1..] {
            assert!(z.norm() < 1e-10);
        }
    }

    #[test]
    fn tone_lands_in_expected_bin() {
        let n = 128;
        let k = 17;
        let tone: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * PI * k as f64 * i as f64 / n as f64))
            .collect();
        let spec = fft(&tone);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .unwrap()
            .0;
        assert_eq!(peak, k);
        assert!((spec[k].norm() - n as f64).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let n = 64;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut buf = signal.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(signal.iter()) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn zero_pads_non_power_of_two() {
        let spec = fft(&[Complex::ONE; 5]);
        assert_eq!(spec.len(), 8);
    }

    #[test]
    fn shift_centers_dc() {
        let mut bins: Vec<usize> = (0..8).collect();
        fft_shift(&mut bins);
        assert_eq!(bins, vec![4, 5, 6, 7, 0, 1, 2, 3]);
        assert_eq!(shifted_bin_to_signed(4, 8), 0);
        assert_eq!(shifted_bin_to_signed(0, 8), -4);
        assert_eq!(shifted_bin_to_signed(7, 8), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn in_place_rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 6];
        fft_in_place(&mut data);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for i in 0..n {
            assert_close(fsum[i], fa[i] + fb[i], 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 64;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let time_energy: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let spec = fft(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }
}
