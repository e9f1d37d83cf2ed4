//! Radar waveform and antenna configuration.
//!
//! Defaults reproduce the paper's IWR6843AOPEVM settings (§V): 60–64 GHz
//! RF band, 3 TX × 4 RX antennas, 10 fps, 0.04 m range resolution, 8.2 m
//! maximum range, ±2.7 m/s maximum radial velocity, 0.34 m/s velocity
//! resolution, mounted at 1.25 m height.

/// Speed of light (m/s).
pub const SPEED_OF_LIGHT: f64 = 2.997_924_58e8;

/// FMCW radar configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RadarConfig {
    /// Carrier (chirp start) frequency (Hz).
    pub carrier_hz: f64,
    /// Chirp sweep bandwidth (Hz); sets range resolution `c / 2B`.
    pub bandwidth_hz: f64,
    /// Fast-time samples per chirp (range FFT length; power of two).
    pub samples_per_chirp: usize,
    /// Chirps per frame (Doppler FFT length; power of two).
    pub chirps_per_frame: usize,
    /// Chirp repetition interval (s); sets the maximum unambiguous
    /// velocity `λ / 4·T_c`.
    pub chirp_interval_s: f64,
    /// Virtual antenna columns (azimuth, λ/2 spacing).
    pub azimuth_antennas: usize,
    /// Virtual antenna rows (elevation, λ/2 spacing).
    pub elevation_antennas: usize,
    /// Frame rate (frames per second).
    pub frame_rate_hz: f64,
    /// Maximum usable range (m); detections beyond this are discarded.
    pub max_range_m: f64,
    /// Mounting height of the sensor above the floor (m).
    pub mount_height_m: f64,
    /// Amplitude calibration constant: received amplitude is
    /// `k·√RCS / r²`.
    pub amplitude_k: f64,
    /// Thermal noise standard deviation per IF sample (complex, per
    /// component).
    pub noise_sigma: f64,
    /// CFAR threshold factor over the local noise estimate.
    pub cfar_threshold: f64,
}

impl Default for RadarConfig {
    fn default() -> Self {
        RadarConfig {
            carrier_hz: 60.25e9,
            bandwidth_hz: 3.747e9, // c / (2 · 0.04 m)
            samples_per_chirp: 256,
            chirps_per_frame: 16,
            chirp_interval_s: 4.6e-4,
            azimuth_antennas: 4,
            elevation_antennas: 3,
            frame_rate_hz: 10.0,
            max_range_m: 8.2,
            mount_height_m: 1.25,
            amplitude_k: 10.5,
            noise_sigma: 1.0,
            cfar_threshold: 8.0,
        }
    }
}

impl RadarConfig {
    /// A reduced configuration for fast unit tests: 64 range bins, 8
    /// chirps, 2×2 antennas. Keeps the same resolutions scaled down.
    pub fn test_small() -> Self {
        RadarConfig {
            samples_per_chirp: 64,
            chirps_per_frame: 8,
            azimuth_antennas: 2,
            elevation_antennas: 2,
            max_range_m: 0.04 * 60.0,
            ..RadarConfig::default()
        }
    }

    /// The single-antenna range-Doppler tap: 64 range bins × 16 Doppler
    /// bins at the default 0.04 m / ±2.7 m/s resolution and 10 fps, out
    /// to 64 × 0.04 m, with low thermal noise. Its power map is the
    /// input of the range-Doppler backend (`gp-rd`).
    pub fn range_doppler() -> Self {
        RadarConfig {
            samples_per_chirp: 64,
            azimuth_antennas: 1,
            elevation_antennas: 1,
            max_range_m: 0.04 * 64.0,
            noise_sigma: 0.05,
            ..RadarConfig::default()
        }
    }

    /// Carrier wavelength λ (m).
    pub fn wavelength(&self) -> f64 {
        SPEED_OF_LIGHT / self.carrier_hz
    }

    /// Range resolution `c / 2B` (m); 0.04 m for the paper's settings.
    pub fn range_resolution(&self) -> f64 {
        SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)
    }

    /// Maximum unambiguous radial velocity `λ / 4·T_c` (m/s); ±2.7 for
    /// the paper's settings.
    pub fn max_velocity(&self) -> f64 {
        self.wavelength() / (4.0 * self.chirp_interval_s)
    }

    /// Velocity resolution `λ / (2·N_c·T_c)` (m/s); 0.34 for the paper's
    /// settings.
    pub fn velocity_resolution(&self) -> f64 {
        self.wavelength() / (2.0 * self.chirps_per_frame as f64 * self.chirp_interval_s)
    }

    /// Total virtual antennas (azimuth × elevation); 12 for 3 TX × 4 RX.
    pub fn virtual_antennas(&self) -> usize {
        self.azimuth_antennas * self.elevation_antennas
    }

    /// Number of usable range bins (`max_range / range_resolution`,
    /// capped by the FFT length).
    pub fn usable_range_bins(&self) -> usize {
        ((self.max_range_m / self.range_resolution()) as usize).min(self.samples_per_chirp)
    }

    /// Frame interval (s).
    pub fn frame_interval(&self) -> f64 {
        1.0 / self.frame_rate_hz
    }

    /// Expected single-scatterer cell SNR (linear) after coherent range +
    /// Doppler integration, for a reflector of cross-section `rcs` at
    /// range `r`. Shared by both backends so their detection statistics
    /// agree.
    ///
    /// Derivation: amplitude `A = k·√rcs / r²`; Hann windows contribute a
    /// coherent gain ≈ 0.5 per FFT; coherent gains are `N_s·0.5` and
    /// `N_c·0.5`; noise power grows as `N_s·N_c`, giving
    /// `SNR = A²·N_s·N_c / (16·σ²)`.
    pub fn cell_snr(&self, rcs: f64, r: f64) -> f64 {
        if r < 1e-6 {
            return f64::INFINITY;
        }
        let a2 = self.amplitude_k * self.amplitude_k * rcs / r.powi(4);
        a2 * (self.samples_per_chirp as f64) * (self.chirps_per_frame as f64)
            / (16.0 * self.noise_sigma * self.noise_sigma)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.samples_per_chirp.is_power_of_two() {
            return Err(format!(
                "samples_per_chirp must be a power of two, got {}",
                self.samples_per_chirp
            ));
        }
        if !self.chirps_per_frame.is_power_of_two() {
            return Err(format!(
                "chirps_per_frame must be a power of two, got {}",
                self.chirps_per_frame
            ));
        }
        if self.azimuth_antennas == 0 || self.elevation_antennas == 0 {
            return Err("antenna counts must be non-zero".into());
        }
        if self.frame_rate_hz <= 0.0 {
            return Err("frame rate must be positive".into());
        }
        let frame_active = self.chirps_per_frame as f64 * self.chirp_interval_s;
        if frame_active > self.frame_interval() {
            return Err(format!(
                "chirp burst ({frame_active}s) exceeds the frame interval ({}s)",
                self.frame_interval()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = RadarConfig::default();
        assert!(
            (c.range_resolution() - 0.04).abs() < 1e-3,
            "{}",
            c.range_resolution()
        );
        assert!((c.max_velocity() - 2.7).abs() < 0.1, "{}", c.max_velocity());
        assert!(
            (c.velocity_resolution() - 0.34).abs() < 0.02,
            "{}",
            c.velocity_resolution()
        );
        assert_eq!(c.virtual_antennas(), 12);
        assert!((c.max_range_m - 8.2).abs() < 1e-9);
        assert!((c.mount_height_m - 1.25).abs() < 1e-9);
        assert_eq!(c.frame_rate_hz, 10.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn snr_falls_with_fourth_power_of_range() {
        let c = RadarConfig::default();
        let near = c.cell_snr(0.12, 1.2);
        let far = c.cell_snr(0.12, 2.4);
        assert!((near / far - 16.0).abs() < 1e-6);
    }

    #[test]
    fn snr_scales_linearly_with_rcs() {
        let c = RadarConfig::default();
        assert!((c.cell_snr(0.2, 2.0) / c.cell_snr(0.1, 2.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hand_detectable_at_near_range_marginal_at_far() {
        // Calibration target: hands (rcs 0.12) comfortably above the CFAR
        // threshold at 1.2–3.6 m, marginal beyond 4 m (paper Fig. 11).
        let c = RadarConfig::default();
        assert!(c.cell_snr(0.12, 1.2) > 10.0 * c.cfar_threshold);
        assert!(c.cell_snr(0.12, 3.6) > c.cfar_threshold);
        assert!(c.cell_snr(0.12, 4.8) < c.cfar_threshold);
        // Torso stays visible at the far end.
        assert!(c.cell_snr(1.0, 4.8) > c.cfar_threshold);
    }

    #[test]
    fn usable_bins_capped() {
        let c = RadarConfig::default();
        // 8.2 m / 0.04 m ≈ 205 bins (float rounding gives 204).
        assert!((204..=205).contains(&c.usable_range_bins()));
        let small = RadarConfig {
            max_range_m: 100.0,
            ..RadarConfig::default()
        };
        assert_eq!(small.usable_range_bins(), small.samples_per_chirp);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = RadarConfig {
            samples_per_chirp: 100,
            ..RadarConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = RadarConfig {
            chirps_per_frame: 12,
            ..RadarConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = RadarConfig {
            chirp_interval_s: 1.0,
            ..RadarConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = RadarConfig {
            azimuth_antennas: 0,
            ..RadarConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn test_small_is_valid() {
        assert!(RadarConfig::test_small().validate().is_ok());
    }
}
