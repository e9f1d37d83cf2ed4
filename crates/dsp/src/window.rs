//! Window (taper) functions applied before FFTs to control spectral leakage.

use std::f64::consts::PI;

/// The window family to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Rectangular (no taper).
    Rectangular,
    /// Hann window: `0.5 − 0.5·cos(2πn/(N−1))`.
    Hann,
    /// Hamming window: `0.54 − 0.46·cos(2πn/(N−1))`.
    Hamming,
    /// Blackman window (three-term).
    Blackman,
}

impl WindowKind {
    /// Generates the window coefficients for length `n`.
    ///
    /// For `n == 1` every window degenerates to `[1.0]`.
    ///
    /// ```
    /// use gp_dsp::window::WindowKind;
    /// let w = WindowKind::Hann.coefficients(8);
    /// assert_eq!(w.len(), 8);
    /// assert!(w[0] < 1e-12); // Hann starts at zero
    /// ```
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let denom = (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * PI * i as f64 / denom;
                match self {
                    WindowKind::Rectangular => 1.0,
                    WindowKind::Hann => 0.5 - 0.5 * x.cos(),
                    WindowKind::Hamming => 0.54 - 0.46 * x.cos(),
                    WindowKind::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                }
            })
            .collect()
    }
}

/// Multiplies `data` element-wise by the window `w`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn apply_window(data: &mut [crate::Complex], w: &[f64]) {
    assert_eq!(data.len(), w.len(), "window length mismatch");
    for (z, &c) in data.iter_mut().zip(w.iter()) {
        *z = z.scale(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_bounds() {
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ] {
            let w = kind.coefficients(33);
            assert_eq!(w.len(), 33);
            for &c in &w {
                assert!(
                    (-1e-12..=1.0 + 1e-12).contains(&c),
                    "{kind:?} out of range: {c}"
                );
            }
        }
    }

    #[test]
    fn symmetry() {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            let w = kind.coefficients(64);
            for i in 0..32 {
                assert!(
                    (w[i] - w[63 - i]).abs() < 1e-12,
                    "{kind:?} not symmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn hann_peak_is_one() {
        let w = WindowKind::Hann.coefficients(65);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(WindowKind::Hann.coefficients(0).is_empty());
        assert_eq!(WindowKind::Hann.coefficients(1), vec![1.0]);
    }

    #[test]
    fn apply_scales_signal() {
        let mut data = vec![crate::Complex::ONE; 4];
        apply_window(&mut data, &[0.0, 0.5, 1.0, 2.0]);
        assert_eq!(data[0], crate::Complex::ZERO);
        assert_eq!(data[3], crate::Complex::new(2.0, 0.0));
    }
}
