//! Dataset specifications and the paper's preset configurations.

use gp_codec::{Decode, DecodeError, Encode, Value};
use gp_kinematics::gestures::GestureSet;
use gp_radar::Environment;

/// How large to build a dataset.
///
/// `Paper` reproduces the published cohort sizes; `Small` is a reduced
/// configuration for CPU-budget runs (experiment binaries default to it
/// and report which scale was used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced cohort for quick runs.
    Small,
    /// Published cohort sizes.
    Paper,
    /// Explicit user/repetition counts.
    Custom {
        /// Number of users.
        users: usize,
        /// Repetitions per (user, gesture, distance, speed) combination.
        reps: usize,
    },
}

impl Scale {
    /// Resolves `(users, reps)` against a preset's paper-scale values and
    /// small-scale values.
    pub fn resolve(self, paper: (usize, usize), small: (usize, usize)) -> (usize, usize) {
        match self {
            Scale::Paper => paper,
            Scale::Small => small,
            Scale::Custom { users, reps } => (users, reps),
        }
    }
}

impl Encode for Scale {
    fn encode(&self) -> Value {
        match self {
            Scale::Small => Value::Str("small".into()),
            Scale::Paper => Value::Str("paper".into()),
            Scale::Custom { users, reps } => {
                Value::record([("users", users.encode()), ("reps", reps.encode())])
            }
        }
    }
}

impl Decode for Scale {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        match value {
            Value::Str(s) if s == "small" => Ok(Scale::Small),
            Value::Str(s) if s == "paper" => Ok(Scale::Paper),
            Value::Str(s) => Err(DecodeError::new(format!("unknown scale '{s}'"))),
            map => Ok(Scale::Custom {
                users: map.get("users")?,
                reps: map.get("reps")?,
            }),
        }
    }
}

/// A full dataset specification.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name (used in reports).
    pub name: String,
    /// Gesture vocabulary.
    pub set: GestureSet,
    /// Capture environment.
    pub environment: Environment,
    /// Number of users.
    pub users: usize,
    /// Repetitions per (user, gesture, distance, speed).
    pub reps: usize,
    /// Anchor distances from the radar (m).
    pub distances: Vec<f64>,
    /// Articulation-speed multipliers (1.0 = natural).
    pub speed_scales: Vec<f64>,
    /// Seed stream for user profiles; keep equal across environments so
    /// the *same people* appear in both rooms (as in the paper).
    pub user_seed: u64,
}

impl DatasetSpec {
    /// Total number of samples the builder will attempt.
    pub fn sample_count(&self) -> usize {
        self.users
            * self.set.gesture_count()
            * self.reps
            * self.distances.len()
            * self.speed_scales.len()
    }
}

impl Encode for DatasetSpec {
    fn encode(&self) -> Value {
        Value::record([
            ("name", self.name.encode()),
            ("set", self.set.encode()),
            ("environment", self.environment.encode()),
            ("users", self.users.encode()),
            ("reps", self.reps.encode()),
            ("distances", self.distances.encode()),
            ("speed_scales", self.speed_scales.encode()),
            ("user_seed", self.user_seed.encode()),
        ])
    }
}

impl Decode for DatasetSpec {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        Ok(DatasetSpec {
            name: value.get("name")?,
            set: value.get("set")?,
            environment: value.get("environment")?,
            users: value.get("users")?,
            reps: value.get("reps")?,
            distances: value.get("distances")?,
            speed_scales: value.get("speed_scales")?,
            user_seed: value.get("user_seed")?,
        })
    }
}

/// Preset specifications for the paper's datasets.
pub mod presets {
    use super::*;

    /// Self-collected GesturePrint dataset: 15 ASL gestures, 17 users,
    /// 12–25 reps, office or meeting room, 1.2 m.
    pub fn gestureprint(environment: Environment, scale: Scale) -> DatasetSpec {
        let (users, reps) = scale.resolve((17, 18), (5, 6));
        DatasetSpec {
            name: format!("GesturePrint-{}", environment.name().replace(' ', "")),
            set: GestureSet::Asl15,
            environment,
            users,
            reps,
            distances: vec![1.2],
            speed_scales: vec![1.0],
            user_seed: 42,
        }
    }

    /// Pantomime dataset: 21 gestures; 26 users in the office subset,
    /// 14 in the open-space subset; closest anchor 1 m.
    pub fn pantomime(environment: Environment, scale: Scale) -> DatasetSpec {
        let paper_users = if environment == Environment::OpenSpace {
            14
        } else {
            26
        };
        let (users, reps) = scale.resolve((paper_users, 10), (5, 5));
        DatasetSpec {
            name: format!("Pantomime-{}", environment.name().replace(' ', "")),
            set: GestureSet::Pantomime21,
            environment,
            users,
            reps,
            distances: vec![1.0],
            speed_scales: vec![1.0],
            // Different participants in office vs open space (paper
            // §VI-B1), so give each environment its own user stream.
            user_seed: 0x9A27 ^ environment as u64,
        }
    }

    /// Pantomime articulation-speed subset (paper §VI-B3): the same
    /// gestures performed slow / normal / fast.
    pub fn pantomime_speeds(scale: Scale) -> DatasetSpec {
        let (users, reps) = scale.resolve((12, 8), (4, 4));
        DatasetSpec {
            name: "Pantomime-Speeds".into(),
            set: GestureSet::Pantomime21,
            environment: Environment::Office,
            users,
            reps,
            distances: vec![1.0],
            speed_scales: vec![0.7, 1.0, 1.4],
            user_seed: 0x9A27 ^ Environment::Office as u64,
        }
    }

    /// mHomeGes dataset: 10 arm gestures, up to 14 users, anchors from
    /// 1.2 m to 3.0 m every 0.15 m.
    pub fn mhomeges(scale: Scale, distances: &[f64]) -> DatasetSpec {
        let (users, reps) = scale.resolve((14, 12), (5, 6));
        DatasetSpec {
            name: "mHomeGes".into(),
            set: GestureSet::MHomeGes10,
            environment: Environment::Home,
            users,
            reps,
            distances: distances.to_vec(),
            speed_scales: vec![1.0],
            user_seed: 0x71AB,
        }
    }

    /// mTransSee dataset: 5 arm motions, 32 users, anchors from 1.2 m to
    /// 4.8 m every 0.3 m.
    pub fn mtranssee(scale: Scale, distances: &[f64]) -> DatasetSpec {
        let (users, reps) = scale.resolve((32, 10), (6, 6));
        DatasetSpec {
            name: "mTransSee".into(),
            set: GestureSet::MTransSee5,
            environment: Environment::Home,
            users,
            reps,
            distances: distances.to_vec(),
            speed_scales: vec![1.0],
            user_seed: 0x3E55,
        }
    }

    /// The mTransSee anchor grid (1.2–4.8 m step 0.3, 13 anchors).
    pub fn mtranssee_distances() -> Vec<f64> {
        (0..13).map(|i| 1.2 + 0.3 * i as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table1() {
        let gp = presets::gestureprint(Environment::Office, Scale::Paper);
        assert_eq!(gp.users, 17);
        assert_eq!(gp.set.gesture_count(), 15);
        let pan = presets::pantomime(Environment::Office, Scale::Paper);
        assert_eq!(pan.users, 26);
        let pan_open = presets::pantomime(Environment::OpenSpace, Scale::Paper);
        assert_eq!(pan_open.users, 14);
        let mt = presets::mtranssee(Scale::Paper, &[1.2]);
        assert_eq!(mt.users, 32);
        let mh = presets::mhomeges(Scale::Paper, &[1.2]);
        assert!(mh.users >= 8 && mh.users <= 14);
    }

    #[test]
    fn same_users_across_gestureprint_environments() {
        let office = presets::gestureprint(Environment::Office, Scale::Paper);
        let meeting = presets::gestureprint(Environment::MeetingRoom, Scale::Paper);
        assert_eq!(
            office.user_seed, meeting.user_seed,
            "same participants in both rooms"
        );
    }

    #[test]
    fn different_users_across_pantomime_environments() {
        let office = presets::pantomime(Environment::Office, Scale::Paper);
        let open = presets::pantomime(Environment::OpenSpace, Scale::Paper);
        assert_ne!(
            office.user_seed, open.user_seed,
            "different participants per room"
        );
    }

    #[test]
    fn distance_grids() {
        let mt = presets::mtranssee_distances();
        assert_eq!(mt.len(), 13);
        assert!((mt[0] - 1.2).abs() < 1e-9 && (mt[12] - 4.8).abs() < 1e-9);
    }

    #[test]
    fn sample_count_multiplies() {
        let spec = presets::mtranssee(Scale::Custom { users: 3, reps: 4 }, &[1.2, 1.5]);
        assert_eq!(spec.sample_count(), 3 * 5 * 4 * 2);
    }

    #[test]
    fn scale_resolution() {
        assert_eq!(Scale::Paper.resolve((17, 18), (6, 8)), (17, 18));
        assert_eq!(Scale::Small.resolve((17, 18), (6, 8)), (6, 8));
        assert_eq!(
            Scale::Custom { users: 2, reps: 3 }.resolve((17, 18), (6, 8)),
            (2, 3)
        );
    }
}
