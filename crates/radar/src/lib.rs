//! FMCW mmWave radar simulator.
//!
//! Reproduces the sensing front-end of the paper's hardware (TI
//! IWR6843AOPEVM): frequency-modulated continuous-wave chirps reflect off
//! moving scatterers; the firmware runs Range FFT → static clutter removal
//! → Doppler FFT → CA-CFAR → angle estimation and emits a sparse point
//! cloud per frame (paper §III, §V).
//!
//! Two backends share one calibration:
//!
//! * [`Backend::SignalChain`] — synthesises complex IF samples for every
//!   (antenna, chirp, fast-time sample) and runs the full processing
//!   chain. This is the reference implementation.
//! * [`Backend::Geometric`] — maps scatterers directly to detections with
//!   the same SNR budget, quantisation and false-alarm statistics, at a
//!   fraction of the cost. Used for large dataset sweeps; agreement with
//!   the signal chain is covered by tests.
//!
//! # Example
//!
//! ```
//! use gp_radar::{RadarConfig, RadarSimulator, Backend};
//! use gp_kinematics::{Performance, UserProfile};
//! use gp_kinematics::gestures::{GestureSet, GestureId};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let profile = UserProfile::generate(0, 42);
//! let mut rng = StdRng::seed_from_u64(1);
//! let perf = Performance::new(&profile, GestureSet::Asl15, GestureId(12), 1.2, &mut rng);
//! let mut sim = RadarSimulator::new(RadarConfig::default(), Backend::Geometric, 7);
//! let frames = sim.capture_performance(&perf);
//! assert!(!frames.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod environment;
pub mod frame;
pub mod processing;
pub mod scene;
pub mod signal;
pub mod simulator;

pub use config::RadarConfig;
pub use environment::Environment;
pub use frame::Frame;
pub use scene::Scene;
pub use simulator::{Backend, RadarSimulator};
