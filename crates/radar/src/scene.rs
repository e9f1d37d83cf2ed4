//! Scene composition: who and what is in front of the radar.
//!
//! A [`Scene`] merges the scatterers of a primary gesture performance with
//! optional interference sources — someone walking past, someone else
//! performing gestures nearby (paper Fig. 15), and the environment's
//! swaying reflectors.

use crate::environment::{Environment, SwayingReflector};
use gp_kinematics::{Performance, Scatterer};
use gp_pointcloud::Vec3;

/// A person walking along a straight line at constant speed, with gait
/// bobbing and arm swing — the paper's "someone else walks past behind
/// the user" case.
#[derive(Debug, Clone, PartialEq)]
pub struct Walker {
    /// Starting torso position (m).
    pub start: Vec3,
    /// Walking velocity (m/s).
    pub velocity: Vec3,
    /// Body height (m).
    pub height: f64,
    /// Time the walker enters the scene (s).
    pub enter_time: f64,
}

impl Walker {
    /// Scatterers of the walker at time `t` (8 points: torso ×3, head,
    /// legs ×2, swinging arms ×2). Returns an empty vector before
    /// `enter_time`.
    pub fn scatterers_at(&self, t: f64) -> Vec<Scatterer> {
        if t < self.enter_time {
            return Vec::new();
        }
        let dt = t - self.enter_time;
        let base = self.start + self.velocity * dt;
        let gait_hz = 1.8;
        let phase = std::f64::consts::TAU * gait_hz * dt;
        let bob = 0.02 * (2.0 * phase).sin();
        let swing = 0.25 * phase.sin();
        let dir = self.velocity.normalized();
        // Arm swing velocity (longitudinal) adds micro-Doppler.
        let swing_v = dir * (0.25 * std::f64::consts::TAU * gait_hz * phase.cos());

        let mut out = Vec::with_capacity(8);
        let torso_z = 0.62 * self.height + bob;
        for dz in [-0.15, 0.0, 0.15] {
            out.push(Scatterer {
                position: Vec3::new(base.x, base.y, torso_z + dz),
                velocity: self.velocity,
                rcs: 1.0,
            });
        }
        out.push(Scatterer {
            position: Vec3::new(base.x, base.y, 0.93 * self.height + bob),
            velocity: self.velocity,
            rcs: 0.45,
        });
        // Legs (counter-phase).
        for (sign, z) in [(1.0, 0.25), (-1.0, 0.25)] {
            out.push(Scatterer {
                position: base
                    + dir * (sign * swing * 0.6)
                    + Vec3::new(0.0, 0.0, z * self.height - base.z),
                velocity: self.velocity + swing_v * (sign * 0.6),
                rcs: 0.35,
            });
        }
        // Arms.
        for sign in [1.0, -1.0] {
            out.push(Scatterer {
                position: base
                    + dir * (sign * swing)
                    + Vec3::new(0.0, 0.0, 0.45 * self.height - base.z),
                velocity: self.velocity + swing_v * sign,
                rcs: 0.25,
            });
        }
        out
    }
}

/// Anything that contributes scatterers over time.
#[derive(Debug, Clone)]
pub enum SceneEntity {
    /// A gesture performance (primary or interfering).
    Performer(Box<Performance>),
    /// A person walking through the scene.
    Walker(Walker),
    /// A nearly-static environment reflector.
    Reflector(SwayingReflector),
}

impl SceneEntity {
    fn scatterers_at(&self, t: f64) -> Vec<Scatterer> {
        match self {
            SceneEntity::Performer(p) => p.scatterers_at(t.min(p.total_duration())),
            SceneEntity::Walker(w) => w.scatterers_at(t),
            SceneEntity::Reflector(r) => vec![r.scatterer_at(t)],
        }
    }
}

/// A composed capture scene.
#[derive(Debug, Clone)]
pub struct Scene {
    entities: Vec<SceneEntity>,
    duration: f64,
}

impl Scene {
    /// Creates a scene around a primary performance, adding the
    /// environment's reflectors.
    pub fn for_performance(perf: Performance, environment: Environment, seed: u64) -> Self {
        let duration = perf.total_duration();
        let mut entities = vec![SceneEntity::Performer(Box::new(perf))];
        entities.extend(
            environment
                .reflectors(seed)
                .into_iter()
                .map(SceneEntity::Reflector),
        );
        Scene { entities, duration }
    }

    /// Adds an entity.
    pub fn push(&mut self, entity: SceneEntity) -> &mut Self {
        if let SceneEntity::Performer(p) = &entity {
            self.duration = self.duration.max(p.total_duration());
        }
        self.entities.push(entity);
        self
    }

    /// Scene duration (s).
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// All scatterers visible at time `t`.
    pub fn scatterers_at(&self, t: f64) -> Vec<Scatterer> {
        let mut out = Vec::new();
        for e in &self.entities {
            out.extend(e.scatterers_at(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_kinematics::gestures::{GestureId, GestureSet};
    use gp_kinematics::performance::PerformanceConfig;
    use gp_kinematics::UserProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn perf() -> Performance {
        let profile = UserProfile::generate(0, 42);
        let mut rng = StdRng::seed_from_u64(1);
        Performance::new(&profile, GestureSet::Asl15, GestureId(0), 1.2, &mut rng)
    }

    #[test]
    fn walker_absent_before_entry() {
        let w = Walker {
            start: Vec3::new(-2.0, 2.5, 0.0),
            velocity: Vec3::new(1.2, 0.0, 0.0),
            height: 1.7,
            enter_time: 1.0,
        };
        assert!(w.scatterers_at(0.5).is_empty());
        assert_eq!(w.scatterers_at(1.5).len(), 8);
    }

    #[test]
    fn walker_advances() {
        let w = Walker {
            start: Vec3::new(-2.0, 2.5, 0.0),
            velocity: Vec3::new(1.0, 0.0, 0.0),
            height: 1.7,
            enter_time: 0.0,
        };
        let a = w.scatterers_at(0.0)[0].position;
        let b = w.scatterers_at(2.0)[0].position;
        assert!((b.x - a.x - 2.0).abs() < 1e-9);
    }

    #[test]
    fn walker_has_torso_doppler() {
        let w = Walker {
            start: Vec3::new(0.0, 4.0, 0.0),
            velocity: Vec3::new(0.0, -1.3, 0.0), // approaching the radar
            height: 1.7,
            enter_time: 0.0,
        };
        let s = w.scatterers_at(1.0);
        // Torso and head (first four scatterers) carry the body velocity;
        // limbs swing and may momentarily cancel it.
        assert!(s.iter().take(4).all(|sc| sc.velocity.y < -1.0));
    }

    #[test]
    fn scene_merges_entities() {
        let scene = Scene::for_performance(perf(), Environment::Office, 3);
        let n_perf_only = perf().scatterers_at(0.5).len();
        let n_scene = scene.scatterers_at(0.5).len();
        assert_eq!(
            n_scene,
            n_perf_only + Environment::Office.reflector_count(),
            "scene must add the office reflectors"
        );
    }

    #[test]
    fn scene_duration_tracks_longest_performer() {
        let primary = perf();
        let d = primary.total_duration();
        let mut scene = Scene::for_performance(primary, Environment::OpenSpace, 3);
        assert!((scene.duration() - d).abs() < 1e-12);
        // A longer interfering performer extends the scene...
        let profile = UserProfile::generate(1, 42);
        let config = PerformanceConfig {
            post_idle: 4.0,
            ..PerformanceConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let longer =
            Performance::with_config(&profile, GestureSet::Asl15, GestureId(1), config, &mut rng);
        let d_longer = longer.total_duration();
        assert!(d_longer > d);
        scene.push(SceneEntity::Performer(Box::new(longer)));
        assert!((scene.duration() - d_longer).abs() < 1e-12);
        // ...and a shorter one leaves it alone.
        scene.push(SceneEntity::Performer(Box::new(perf())));
        assert!((scene.duration() - d_longer).abs() < 1e-12);
    }

    #[test]
    fn performance_clamps_after_end() {
        let scene = Scene::for_performance(perf(), Environment::OpenSpace, 3);
        let late = scene.scatterers_at(scene.duration() + 5.0);
        assert!(
            !late.is_empty(),
            "performer should hold rest pose after the end"
        );
    }
}
