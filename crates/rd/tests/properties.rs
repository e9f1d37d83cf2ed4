//! Property tests for the range-Doppler path: the DSP identity the
//! radar chain's map tap relies on, and the determinism guarantee of
//! feature extraction.
//!
//! * **Parseval** — the windowed FFT the chain runs over every chirp
//!   and range bin conserves energy: `Σ|x_w[n]|² = (1/N)Σ|X[k]|²` for
//!   every window kind in the catalogue.
//! * **Thread-count bit-equality** — `extract_all` returns bit-identical
//!   `RdInput`s for 1 and N extraction threads, in input order. The
//!   serving engine's determinism tests build on this.

use gp_dsp::fft::fft_in_place;
use gp_dsp::window::{apply_window, WindowKind};
use gp_dsp::Complex;
use gp_rd::{extract_all, RdFeatureConfig, RdFrame, RdLabeledSample};
use proptest::prelude::*;

/// A bounded complex sample: large enough to exercise the dynamic
/// range, small enough that N=64 sums stay well inside f64.
fn complex_sample() -> impl Strategy<Value = Complex> {
    (-1e3..1e3f64, -1e3..1e3f64).prop_map(|(re, im)| Complex::new(re, im))
}

/// A short burst of small frames for feature extraction.
fn frame_burst() -> impl Strategy<Value = Vec<RdFrame>> {
    prop::collection::vec(prop::collection::vec(0.0..1e4f64, 8 * 16), 4..12).prop_map(|maps| {
        maps.into_iter()
            .enumerate()
            .map(|(i, power)| {
                let mut frame = RdFrame::zeros(8, 16, i as f64 * 0.1);
                frame.power = power;
                frame
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn windowed_fft_conserves_energy(
        samples in prop::collection::vec(complex_sample(), 64),
        window_index in 0usize..4,
    ) {
        let window = [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ][window_index];
        let n = samples.len();
        let mut data = samples;
        // The per-chirp path of gp-radar's chain: window, then in-place
        // FFT.
        apply_window(&mut data, &window.coefficients(n));
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        fft_in_place(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        // Relative tolerance: both sums are O(n · amplitude²).
        let scale = time_energy.max(1.0);
        prop_assert!(
            (time_energy - freq_energy).abs() <= 1e-9 * scale,
            "Parseval violated for {window:?}: time {time_energy} vs freq {freq_energy}"
        );
    }

    #[test]
    fn extract_all_is_bit_identical_across_thread_counts(
        bursts in prop::collection::vec(frame_burst(), 1..5),
    ) {
        let samples: Vec<RdLabeledSample> = bursts
            .iter()
            .enumerate()
            .map(|(i, frames)| {
                RdLabeledSample::from_segment(frames, 0, frames.len(), i % 3, i % 2)
            })
            .collect();
        let refs: Vec<&RdLabeledSample> = samples.iter().collect();
        let config = RdFeatureConfig::default();
        let single = extract_all(&refs, &config, 1);
        prop_assert_eq!(single.len(), refs.len());
        for threads in [2usize, 4, 7] {
            let multi = extract_all(&refs, &config, threads);
            // RdInput is f32 data compared exactly: bit-identical, in
            // input order.
            prop_assert_eq!(&single, &multi, "extract_all diverged at {} threads", threads);
        }
    }
}
