//! Cell-averaging constant false-alarm rate (CA-CFAR) detection.
//!
//! CFAR is the detection step the TI radar firmware runs on the
//! range–Doppler map: a cell is declared a target when its power exceeds the
//! local noise estimate (the mean of surrounding *training* cells, skipping
//! nearby *guard* cells) by a threshold factor. GesturePrint relies on this
//! step to turn dense maps into sparse point clouds, and the
//! range-dependent miss behaviour of CFAR is what makes distant gestures
//! sparser (paper Fig. 11).

/// Configuration for a CA-CFAR detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfarConfig {
    /// Number of guard cells on each side of the cell under test.
    pub guard_cells: usize,
    /// Number of training cells on each side (beyond the guard cells).
    pub training_cells: usize,
    /// Multiplicative threshold over the noise estimate (linear power).
    pub threshold_factor: f64,
}

impl Default for CfarConfig {
    fn default() -> Self {
        CfarConfig {
            guard_cells: 2,
            training_cells: 8,
            threshold_factor: 6.0,
        }
    }
}

/// A detection produced by a CFAR pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfarDetection {
    /// Index of the detected cell, `(row, col)`.
    pub index: (usize, usize),
    /// Power of the detected cell.
    pub power: f64,
    /// Estimated local noise floor.
    pub noise: f64,
}

impl CfarDetection {
    /// Detection signal-to-noise ratio (linear).
    pub fn snr(&self) -> f64 {
        if self.noise > 0.0 {
            self.power / self.noise
        } else {
            f64::INFINITY
        }
    }
}

/// Runs 2-D CA-CFAR over a power map laid out row-major as
/// `rows × cols` (e.g. Doppler × range), using a square training annulus.
///
/// # Panics
///
/// Panics if `power.len() != rows * cols`.
pub fn cfar_2d(power: &[f64], rows: usize, cols: usize, config: &CfarConfig) -> Vec<CfarDetection> {
    assert_eq!(power.len(), rows * cols, "power map shape mismatch");
    let mut out = Vec::new();
    if rows == 0 || cols == 0 {
        return out;
    }
    let g = config.guard_cells as isize;
    let t = config.training_cells as isize;
    let win = g + t;
    for r in 0..rows as isize {
        for c in 0..cols as isize {
            let mut sum = 0.0;
            let mut count = 0usize;
            for dr in -win..=win {
                for dc in -win..=win {
                    if dr.abs() <= g && dc.abs() <= g {
                        continue; // guard region (includes CUT)
                    }
                    let rr = r + dr;
                    let cc = c + dc;
                    if rr < 0 || cc < 0 || rr >= rows as isize || cc >= cols as isize {
                        continue;
                    }
                    sum += power[rr as usize * cols + cc as usize];
                    count += 1;
                }
            }
            if count == 0 {
                continue;
            }
            let noise = sum / count as f64;
            let p = power[r as usize * cols + c as usize];
            if p > noise * config.threshold_factor {
                out.push(CfarDetection {
                    index: (r as usize, c as usize),
                    power: p,
                    noise,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_noise_yields_nothing() {
        let power = vec![3.3; 16 * 32];
        assert!(cfar_2d(&power, 16, 32, &CfarConfig::default()).is_empty());
    }

    #[test]
    fn weak_peak_below_threshold_is_missed() {
        let mut power = vec![1.0; 16 * 32];
        power[5 * 32 + 20] = 3.0; // below 6x noise
        assert!(cfar_2d(&power, 16, 32, &CfarConfig::default()).is_empty());
    }

    #[test]
    fn detects_peak_2d() {
        let rows = 16;
        let cols = 32;
        let mut power = vec![1.0; rows * cols];
        power[5 * cols + 20] = 200.0;
        let det = cfar_2d(&power, rows, cols, &CfarConfig::default());
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].index, (5, 20));
        assert!(det[0].snr() > 50.0);
    }

    #[test]
    fn two_separated_peaks_2d() {
        let rows = 32;
        let cols = 32;
        let mut power = vec![1.0; rows * cols];
        power[4 * cols + 4] = 150.0;
        power[28 * cols + 28] = 150.0;
        let det = cfar_2d(&power, rows, cols, &CfarConfig::default());
        let idx: Vec<(usize, usize)> = det.iter().map(|d| d.index).collect();
        assert!(idx.contains(&(4, 4)) && idx.contains(&(28, 28)), "{idx:?}");
    }

    #[test]
    fn empty_input_ok() {
        assert!(cfar_2d(&[], 0, 0, &CfarConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        cfar_2d(&[1.0; 10], 3, 4, &CfarConfig::default());
    }

    #[test]
    fn higher_threshold_detects_fewer() {
        let cols = 32;
        let mut power = vec![1.0; 16 * cols];
        power[3 * cols + 10] = 8.0;
        power[11 * cols + 24] = 30.0;
        let loose = CfarConfig {
            threshold_factor: 4.0,
            ..CfarConfig::default()
        };
        let strict = CfarConfig {
            threshold_factor: 20.0,
            ..CfarConfig::default()
        };
        let count = |c: &CfarConfig| cfar_2d(&power, 16, cols, c).len();
        assert!(count(&loose) >= count(&strict));
    }
}
