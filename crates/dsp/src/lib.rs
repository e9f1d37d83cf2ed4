//! Signal-processing primitives for the GesturePrint FMCW radar simulator.
//!
//! This crate provides the numerical building blocks that the radar signal
//! chain in `gp-radar` is assembled from:
//!
//! * [`Complex`] — a minimal complex-number type (`f64` parts),
//! * [`fft`] — an iterative radix-2 decimation-in-time FFT with inverse and
//!   shift helpers,
//! * [`window`] — Hann / Hamming / Blackman tapers,
//! * [`cfar`] — a two-dimensional cell-averaging constant false-alarm
//!   rate detector.
//!
//! The implementations favour clarity and determinism over raw speed; all
//! routines are allocation-explicit and free of global state so they can be
//! benchmarked in isolation (see the `gp-bench` crate).
//!
//! # Example
//!
//! ```
//! use gp_dsp::{fft, Complex};
//!
//! // A pure tone ends up in a single FFT bin.
//! let n = 64;
//! let tone: Vec<Complex> = (0..n)
//!     .map(|i| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * 5.0 * i as f64 / n as f64))
//!     .collect();
//! let spectrum = fft::fft(&tone);
//! let peak = spectrum
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak, 5);
//! ```

#![forbid(unsafe_code)]

pub mod cfar;
pub mod complex;
pub mod fft;
pub mod window;

pub use cfar::{CfarConfig, CfarDetection};
pub use complex::Complex;
