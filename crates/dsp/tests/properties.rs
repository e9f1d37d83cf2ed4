//! Property-based tests for the DSP primitives.

use gp_dsp::fft::{fft, fft_in_place, ifft_in_place, next_power_of_two};
use gp_dsp::window::WindowKind;
use gp_dsp::Complex;
use proptest::prelude::*;

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

proptest! {
    #[test]
    fn fft_roundtrip_is_identity(signal in complex_vec(64)) {
        let mut buf = signal.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(signal.iter()) {
            prop_assert!((*a - *b).norm() < 1e-6);
        }
    }

    #[test]
    fn fft_preserves_energy(signal in complex_vec(128)) {
        let time: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let spec = fft(&signal);
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        prop_assert!((time - freq).abs() <= 1e-6 * time.max(1.0));
    }

    #[test]
    fn fft_is_linear(a in complex_vec(32), b in complex_vec(32), k in -10.0f64..10.0) {
        let combo: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(k)).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fc = fft(&combo);
        for i in 0..32 {
            let expect = fa[i] + fb[i].scale(k);
            prop_assert!((fc[i] - expect).norm() < 1e-5);
        }
    }

    #[test]
    fn next_power_of_two_properties(n in 1usize..100_000) {
        let p = next_power_of_two(n);
        prop_assert!(p >= n);
        prop_assert!(p.is_power_of_two());
        prop_assert!(p / 2 < n);
    }

    #[test]
    fn windows_bounded_and_symmetric(n in 2usize..256) {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            let w = kind.coefficients(n);
            prop_assert_eq!(w.len(), n);
            for i in 0..n {
                prop_assert!(w[i] <= 1.0 + 1e-12 && w[i] >= -1e-9);
                prop_assert!((w[i] - w[n - 1 - i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn cfar_detections_exceed_noise(seed_peaks in prop::collection::vec(5usize..120, 0..4)) {
        // An 8 × 16 map; each peak lands at cell `p` row-major.
        let mut power = vec![1.0f64; 128];
        for &p in &seed_peaks {
            power[p] = 500.0;
        }
        let config = gp_dsp::CfarConfig::default();
        for det in gp_dsp::cfar::cfar_2d(&power, 8, 16, &config) {
            prop_assert!(det.power > det.noise * config.threshold_factor);
        }
    }
}
