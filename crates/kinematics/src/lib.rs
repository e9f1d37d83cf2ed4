//! Human arm kinematics and gesture-trajectory synthesis.
//!
//! GesturePrint's identifiability signal is *behavioural biometrics
//! embedded in gesture motion*: arm geometry, motion speed, range of
//! motion, and unconscious habits (paper §III). This crate synthesises that
//! signal from first principles so the radar simulator in `gp-radar` can
//! reproduce the paper's experiments without human participants:
//!
//! * [`UserProfile`] — per-user biometric parameters (limb lengths drawn
//!   from height, preferred speed, range-of-motion scaling, tremor, timing
//!   skew, elbow swivel, rest posture) generated deterministically from a
//!   user id and seed,
//! * [`gestures`] — trajectory generators for the four gesture vocabularies
//!   used in the paper's evaluation: the 15-sign ASL set (self-collected
//!   dataset), Pantomime-style 21, mHomeGes-style 10, and mTransSee-style 5,
//! * [`skeleton`] — shoulder–elbow–wrist kinematic chain with a two-link
//!   inverse-kinematics solve for the elbow,
//! * [`scatter`] — converts body poses into radar scatterers (position,
//!   velocity, radar cross-section),
//! * [`performance`] — a timed performance: rest → gesture → rest, with
//!   per-repetition variation, yielding scatterer snapshots at any time.
//!
//! # Example
//!
//! ```
//! use gp_kinematics::gestures::{GestureSet, GestureId};
//! use gp_kinematics::{Performance, UserProfile};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let profile = UserProfile::generate(3, 42);
//! let mut rng = StdRng::seed_from_u64(7);
//! let perf = Performance::new(
//!     &profile,
//!     GestureSet::Asl15,
//!     GestureId(12), // 'push'
//!     1.2,           // distance from the radar (m)
//!     &mut rng,
//! );
//! let scatterers = perf.scatterers_at(perf.total_duration() * 0.5);
//! assert!(!scatterers.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod gestures;
pub mod path;
pub mod performance;
pub mod profile;
pub mod scatter;
pub mod skeleton;

pub use performance::Performance;
pub use profile::UserProfile;
pub use scatter::Scatterer;
pub use skeleton::{ArmPose, BodyPose};
