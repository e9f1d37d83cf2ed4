//! Per-user biometric profiles.
//!
//! Each simulated participant is a deterministic function of `(user_id,
//! seed)`. The parameter ranges follow the paper's cohort (§VI-A: ages
//! 20–27, heights 1.55–1.80 m, weights 40–85 kg) and standard
//! anthropometric ratios (Drillis & Contini segment proportions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which hand the user favours for single-arm gestures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Handedness {
    /// Right-handed (about 90 % of users).
    Right,
    /// Left-handed.
    Left,
}

/// Biometric and behavioural parameters of one simulated user.
///
/// All lengths are metres and all times seconds. The *behavioural*
/// parameters (speed, range of motion, timing skew, tremor, swivel, bias)
/// are what makes the same gesture look different across users in radar
/// point clouds — they are the signal GesturePrint's user identification
/// learns.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Stable user identifier (also the class label for identification).
    pub user_id: usize,
    /// Standing height (m), 1.55–1.80 in the paper's cohort.
    pub height: f64,
    /// Shoulder height above ground (≈ 0.818 × height).
    pub shoulder_height: f64,
    /// Shoulder half-width (m).
    pub shoulder_half_width: f64,
    /// Upper-arm (shoulder→elbow) length (m), ≈ 0.186 × height.
    pub upper_arm: f64,
    /// Forearm (elbow→wrist) length (m), ≈ 0.146 × height.
    pub forearm: f64,
    /// Hand length (wrist→fingertip) (m), ≈ 0.108 × height.
    pub hand: f64,
    /// Multiplier on gesture execution speed (1.0 = nominal).
    pub speed_factor: f64,
    /// Multiplier on motion amplitude (range of motion).
    pub rom_scale: f64,
    /// Additional anisotropic lateral (x) amplitude scaling — some users
    /// sweep wider, some keep gestures narrow (paper Fig. 2 observation).
    pub lateral_rom: f64,
    /// Habitual lateral offset of gesture centre (m).
    pub lateral_bias: f64,
    /// Habitual vertical offset of gesture centre (m).
    pub vertical_bias: f64,
    /// Exponent warping normalised gesture time (ease-in/ease-out habit);
    /// 1.0 = uniform pacing.
    pub timing_gamma: f64,
    /// Physiological tremor amplitude (m).
    pub tremor_amplitude: f64,
    /// Tremor frequency (Hz), typically 8–12.
    pub tremor_frequency: f64,
    /// Elbow swivel angle around the shoulder–wrist axis (rad); determines
    /// whether the elbow hangs low or flares out.
    pub elbow_swivel: f64,
    /// Dominant hand.
    pub handedness: Handedness,
    /// Small idle sway amplitude of the torso (m).
    pub sway_amplitude: f64,
    /// Habitual distance of the gesture plane from the body: positive
    /// values mean the user gestures closer to the radar (m).
    pub depth_bias: f64,
    /// Relative reflectivity of the user's arm/hand (hand size, sleeve
    /// material); scales scatterer RCS.
    pub rcs_scale: f64,
}

impl UserProfile {
    /// Generates the profile of user `user_id` under the experiment master
    /// `seed`. The same `(user_id, seed)` pair always yields the same
    /// profile, and different users get independent parameter draws.
    pub fn generate(user_id: usize, seed: u64) -> Self {
        // Mix the user id into the stream so ids are decorrelated even for
        // adjacent seeds.
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(user_id as u64 ^ 0xD1B5_4A32_D192_ED03),
        );
        let height = rng.gen_range(1.55..1.80);
        Self::from_rng(user_id, height, &mut rng)
    }

    /// Generates a user with an explicit height; used by the preliminary
    /// study (paper §III) which pairs two users of near-identical body
    /// shape (≈1.60 m) to show behavioural — not anatomical — differences
    /// drive identifiability.
    pub fn generate_with_height(user_id: usize, seed: u64, height: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(user_id as u64 ^ 0xD1B5_4A32_D192_ED03),
        );
        let _ = rng.gen_range(0.0..1.0); // keep stream aligned with generate()
        Self::from_rng(user_id, height, &mut rng)
    }

    fn from_rng(user_id: usize, height: f64, rng: &mut StdRng) -> Self {
        UserProfile {
            user_id,
            height,
            shoulder_height: 0.818 * height + rng.gen_range(-0.01..0.01),
            shoulder_half_width: 0.129 * height + rng.gen_range(-0.01..0.01),
            upper_arm: 0.186 * height * rng.gen_range(0.96..1.04),
            forearm: 0.146 * height * rng.gen_range(0.96..1.04),
            hand: 0.108 * height * rng.gen_range(0.95..1.05),
            speed_factor: rng.gen_range(0.80..1.18),
            rom_scale: rng.gen_range(0.82..1.18),
            lateral_rom: rng.gen_range(0.85..1.15),
            lateral_bias: rng.gen_range(-0.06..0.06),
            vertical_bias: rng.gen_range(-0.05..0.05),
            timing_gamma: rng.gen_range(0.72..1.38),
            tremor_amplitude: rng.gen_range(0.001..0.005),
            tremor_frequency: rng.gen_range(8.0..12.0),
            elbow_swivel: rng.gen_range(-0.5..0.7),
            handedness: if rng.gen_bool(0.1) {
                Handedness::Left
            } else {
                Handedness::Right
            },
            sway_amplitude: rng.gen_range(0.002..0.008),
            depth_bias: rng.gen_range(-0.09..0.09),
            rcs_scale: rng.gen_range(0.75..1.30),
        }
    }

    /// Full arm reach: shoulder to fingertip with the arm extended.
    pub fn reach(&self) -> f64 {
        self.upper_arm + self.forearm + self.hand
    }

    /// Applies the user's habitual time-warp to a normalised phase
    /// `t ∈ [0, 1]`.
    pub fn warp_phase(&self, t: f64) -> f64 {
        t.clamp(0.0, 1.0).powf(self.timing_gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = UserProfile::generate(5, 99);
        let b = UserProfile::generate(5, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_users_differ() {
        let a = UserProfile::generate(0, 42);
        let b = UserProfile::generate(1, 42);
        assert_ne!(a, b);
        assert!((a.speed_factor - b.speed_factor).abs() > 1e-6);
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = UserProfile::generate(0, 1);
        let b = UserProfile::generate(0, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn heights_in_cohort_range() {
        for id in 0..50 {
            let p = UserProfile::generate(id, 7);
            assert!((1.55..1.80).contains(&p.height), "height {}", p.height);
            assert!(p.shoulder_height < p.height);
            assert!(p.reach() > 0.3 && p.reach() < 0.9);
        }
    }

    #[test]
    fn explicit_height_respected() {
        let p = UserProfile::generate_with_height(0, 3, 1.60);
        assert_eq!(p.height, 1.60);
        let q = UserProfile::generate_with_height(1, 3, 1.60);
        assert_eq!(q.height, 1.60);
        // Same height, but behaviour differs — the §III twin-user setup.
        assert!((p.speed_factor - q.speed_factor).abs() > 1e-6);
    }

    #[test]
    fn warp_phase_is_monotone_and_bounded() {
        let p = UserProfile::generate(2, 11);
        let mut prev = 0.0;
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            let w = p.warp_phase(t);
            assert!((0.0..=1.0).contains(&w));
            assert!(w >= prev - 1e-12);
            prev = w;
        }
        assert_eq!(p.warp_phase(0.0), 0.0);
        assert!((p.warp_phase(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mostly_right_handed() {
        let right = (0..100)
            .filter(|&id| UserProfile::generate(id, 13).handedness == Handedness::Right)
            .count();
        assert!(right >= 80, "expected ~90% right-handed, got {right}/100");
    }
}
