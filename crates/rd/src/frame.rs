//! Range-Doppler power frames.

/// One processed radar frame: a Doppler × range power map.
///
/// Rows are Doppler bins after `fft_shift` (zero velocity on the centre
/// row, negative velocities above it), columns are range bins. Power is
/// linear (`|X|²`).
#[derive(Debug, Clone, PartialEq)]
pub struct RdFrame {
    /// Capture time of the frame (s).
    pub timestamp: f64,
    /// Doppler rows.
    pub doppler_bins: usize,
    /// Range columns.
    pub range_bins: usize,
    /// Row-major `doppler_bins × range_bins` linear power.
    pub power: Vec<f64>,
}

impl RdFrame {
    /// An all-zero `doppler_bins × range_bins` frame.
    pub fn zeros(doppler_bins: usize, range_bins: usize, timestamp: f64) -> Self {
        RdFrame {
            timestamp,
            doppler_bins,
            range_bins,
            power: vec![0.0; doppler_bins * range_bins],
        }
    }

    /// Map shape `(doppler_bins, range_bins)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.doppler_bins, self.range_bins)
    }

    /// Power of cell `(doppler_row, range_col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn at(&self, doppler_row: usize, range_col: usize) -> f64 {
        assert!(doppler_row < self.doppler_bins && range_col < self.range_bins);
        self.power[doppler_row * self.range_bins + range_col]
    }

    /// The `(doppler_row, range_col)` of the strongest cell.
    pub fn peak(&self) -> (usize, usize) {
        let mut best = 0usize;
        for (i, &p) in self.power.iter().enumerate() {
            if p > self.power[best] {
                best = i;
            }
        }
        (best / self.range_bins, best % self.range_bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_peak() {
        let mut f = RdFrame::zeros(16, 64, 0.3);
        assert_eq!(f.shape(), (16, 64));
        assert!(f.power.iter().all(|&p| p == 0.0));
        f.power[5 * 64 + 30] = 2.0;
        assert_eq!(f.peak(), (5, 30));
        assert_eq!(f.at(5, 30), 2.0);
    }
}
