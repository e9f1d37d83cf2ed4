//! Point-cloud data structures and algorithms for mmWave sensing.
//!
//! The TI radar firmware (and our simulator in `gp-radar`) emits sparse
//! point clouds: a handful of `(x, y, z, doppler, snr)` detections per
//! frame. This crate defines those types and the geometric algorithms the
//! GesturePrint pipeline runs on them:
//!
//! * [`Vec3`], [`Point`], [`PointCloud`] — core data types,
//! * [`metrics`] — Hausdorff distance, Chamfer distance and Jensen–Shannon
//!   divergence between clouds (paper §III, Fig. 3),
//! * [`dbscan`] — density-based clustering used by the noise-canceling
//!   module (paper §IV-B),
//! * [`sampling`] — farthest-point sampling and fixed-size resampling used
//!   by GesIDNet's set-abstraction input stage,
//! * [`neighbors`] — brute-force k-NN and ball queries used for grouping.
//!
//! # Example
//!
//! ```
//! use gp_pointcloud::{Point, PointCloud, Vec3};
//!
//! let cloud: PointCloud = (0..10)
//!     .map(|i| Point::at(Vec3::new(i as f64 * 0.1, 1.2, 0.0)))
//!     .collect();
//! assert_eq!(cloud.len(), 10);
//! let c = cloud.centroid().unwrap();
//! assert!((c.x - 0.45).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod dbscan;
pub mod metrics;
pub mod neighbors;
pub mod point;
pub mod sampling;

pub use dbscan::{ClusterLabel, Clustering, DbscanConfig};
pub use point::{Point, PointCloud, Vec3};
