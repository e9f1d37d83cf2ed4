//! The range-Doppler tap of the radar's FMCW chain ([`rd_frame`],
//! [`rd_frames`]): geometry, cell placement, clutter removal and
//! determinism of the frames the RD backend trains and serves on.

use gp_kinematics::gestures::{GestureId, GestureSet};
use gp_kinematics::{Performance, Scatterer, UserProfile};
use gp_pointcloud::Vec3;
use gp_radar::RadarConfig;
use gp_rd::{motion_energy, RdFrame};
use gp_testkit::{rd_frame, rd_frames};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The tap without thermal noise, so the peaks are exact.
fn quiet_frame(scatterers: &[Scatterer], seed: u64) -> RdFrame {
    let config = RadarConfig {
        noise_sigma: 0.0,
        ..RadarConfig::range_doppler()
    };
    rd_frame(scatterers, &config, 0.0, &mut StdRng::seed_from_u64(seed))
}

fn single_mover(r: f64, v: f64) -> Vec<Scatterer> {
    vec![Scatterer {
        position: Vec3::new(0.0, r, 1.25),
        velocity: Vec3::new(0.0, v, 0.0),
        rcs: 1.0,
    }]
}

fn summed_power(frame: &RdFrame) -> f64 {
    frame.power.iter().sum()
}

fn push_performance() -> Performance {
    let profile = UserProfile::generate(0, 42);
    let mut rng = StdRng::seed_from_u64(4);
    Performance::new(&profile, GestureSet::Asl15, GestureId(12), 1.2, &mut rng)
}

#[test]
fn tap_keeps_the_rd_geometry() {
    let config = RadarConfig::range_doppler();
    assert!(config.validate().is_ok());
    assert!((config.range_resolution() - 0.04).abs() < 1e-3);
    assert!((config.max_velocity() - 2.70).abs() < 0.01);
    assert_eq!(config.frame_rate_hz, 10.0);
    let frame = rd_frame(
        &single_mover(1.2, 1.0),
        &config,
        0.3,
        &mut StdRng::seed_from_u64(1),
    );
    assert_eq!(frame.shape(), (16, 64));
    assert_eq!(frame.power.len(), 16 * 64);
    assert_eq!(frame.timestamp, 0.3);
}

#[test]
fn moving_target_lands_in_predicted_cell() {
    let config = RadarConfig::range_doppler();
    let (r, v) = (1.2, 1.0);
    let frame = quiet_frame(&single_mover(r, v), 9);
    let (pd, pr) = frame.peak();
    let want_r = (r / config.range_resolution()).round() as usize;
    let want_d = (config.chirps_per_frame / 2) as f64 + v / config.velocity_resolution();
    assert!(
        (pr as f64 - want_r as f64).abs() <= 1.0,
        "range bin {pr} vs predicted {want_r}"
    );
    assert!(
        (pd as f64 - want_d).abs() <= 1.0,
        "doppler row {pd} vs predicted {want_d:.1}"
    );
}

#[test]
fn clutter_removal_suppresses_static_target() {
    let still = quiet_frame(&single_mover(1.2, 0.0), 9);
    let moving = quiet_frame(&single_mover(1.2, 1.0), 9);
    assert!(
        summed_power(&still) < 1e-3 * summed_power(&moving),
        "static residue {} vs moving {}",
        summed_power(&still),
        summed_power(&moving)
    );
}

#[test]
fn negative_velocity_lands_below_centre() {
    let frame = quiet_frame(&single_mover(1.0, -1.3), 3);
    let (pd, _) = frame.peak();
    assert!(
        pd < RadarConfig::range_doppler().chirps_per_frame / 2,
        "row {pd} not negative-velocity"
    );
}

#[test]
fn rendering_is_deterministic() {
    let perf = push_performance();
    let a = rd_frames(&perf, 7);
    let b = rd_frames(&perf, 7);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.power, y.power);
    }
}

#[test]
fn gesture_raises_motion_energy() {
    let perf = push_performance();
    let frames = rd_frames(&perf, 7);
    let (gs, ge) = perf.gesture_interval();
    let (fs, fe) = ((gs * 10.0) as usize, (ge * 10.0) as usize);
    // Off-DC log power is the activity statistic segmentation uses;
    // raw linear power is dominated by near-zero-Doppler residue.
    let me = |f: &RdFrame| motion_energy(f, 1);
    let idle = frames[1..6].iter().map(me).fold(0.0f64, f64::max);
    let active = frames[fs..fe].iter().map(me).fold(0.0f64, f64::max);
    assert!(
        active > 2.0 * idle,
        "gesture peak {active} vs idle peak {idle}"
    );
}
