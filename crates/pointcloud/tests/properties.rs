//! Property-based tests for point-cloud algorithms.

use gp_pointcloud::dbscan::{dbscan, DbscanConfig};
use gp_pointcloud::metrics::{chamfer, hausdorff, jsd, JsdConfig};
use gp_pointcloud::neighbors::{ball_query, ball_query_padded, knn_indices, MultiBallQuery};
use gp_pointcloud::sampling::{farthest_point_indices, resample_to};
use gp_pointcloud::{ClusterLabel, PointCloud, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn vec3_strategy() -> impl Strategy<Value = Vec3> {
    (-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn cloud_strategy(min: usize, max: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec(vec3_strategy(), min..max).prop_map(PointCloud::from_positions)
}

/// A point on a 0.25 m grid of 7³ cells. Grid coordinates, their
/// differences and squares are exact in binary, so squared distances
/// tie exactly and can equal a grid radius² exactly; 200 draws from 343
/// cells also repeat points.
fn grid_point() -> impl Strategy<Value = Vec3> {
    (-3i32..=3, -3i32..=3, -3i32..=3)
        .prop_map(|(x, y, z)| Vec3::new(x as f64, y as f64, z as f64) * 0.25)
}

/// A `(radius, max_points)` grouping scale: radii on the 0.125 m grid
/// (0 included, and boundaries the grid points hit exactly) or off it.
fn scale_strategy() -> impl Strategy<Value = (f64, usize)> {
    (0u32..=16, any::<bool>(), 0usize..16).prop_map(|(k, on_grid, m)| {
        let step = if on_grid { 0.125 } else { 0.1 };
        (k as f64 * step, m)
    })
}

/// Dense blobs plus far outliers, in shuffled order: whichever cluster
/// an expansion grows, the other blobs and the outliers are still
/// unqueued at every pop, so its scans of the unqueued points never run
/// out of candidates to reject.
fn blobs_and_outliers() -> impl Strategy<Value = PointCloud> {
    (
        prop::collection::vec((vec3_strategy(), 3usize..30, 0.05f64..0.6), 2..5),
        prop::collection::vec(vec3_strategy(), 1..8),
        any::<u64>(),
    )
        .prop_map(|(blobs, outliers, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut positions = Vec::new();
            for (center, count, spread) in blobs {
                for _ in 0..count {
                    let mut offset = || rng.gen_range(-spread..spread);
                    positions.push(center + Vec3::new(offset(), offset(), offset()));
                }
            }
            // Outliers sit 20–60 m out, beyond any blob's reach.
            positions.extend(
                outliers
                    .iter()
                    .map(|&o| o * 4.0 + Vec3::new(40.0, 40.0, 0.0)),
            );
            positions.shuffle(&mut rng);
            PointCloud::from_positions(positions)
        })
}

/// DBSCAN as written before its expansion queued each neighbour at most
/// once: every core point's full neighbour list is queued, duplicates
/// and already-claimed points included, and skipped when popped. Kept
/// as the oracle for [`dbscan`]'s labels.
fn dbscan_oracle(cloud: &PointCloud, config: &DbscanConfig) -> Vec<ClusterLabel> {
    let n = cloud.len();
    let eps_sqr = config.eps * config.eps;
    let mut labels = vec![None::<ClusterLabel>; n];
    let mut cluster_count = 0usize;
    let neighbors = |i: usize| -> Vec<usize> {
        let pi = cloud[i].position;
        (0..n)
            .filter(|&j| pi.distance_sqr(cloud[j].position) <= eps_sqr)
            .collect()
    };
    for i in 0..n {
        if labels[i].is_some() {
            continue;
        }
        let nbrs = neighbors(i);
        if nbrs.len() < config.min_points {
            labels[i] = Some(ClusterLabel::Noise);
            continue;
        }
        let id = cluster_count;
        cluster_count += 1;
        labels[i] = Some(ClusterLabel::Cluster(id));
        let mut queue: Vec<usize> = nbrs;
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            match labels[j] {
                Some(ClusterLabel::Noise) => labels[j] = Some(ClusterLabel::Cluster(id)),
                Some(ClusterLabel::Cluster(_)) => continue,
                None => {
                    labels[j] = Some(ClusterLabel::Cluster(id));
                    let jn = neighbors(j);
                    if jn.len() >= config.min_points {
                        queue.extend(jn);
                    }
                }
            }
        }
    }
    labels
        .into_iter()
        .map(|l| l.expect("all labelled"))
        .collect()
}

proptest! {
    #[test]
    fn hausdorff_is_a_metric_like(a in cloud_strategy(1, 30), b in cloud_strategy(1, 30)) {
        let hab = hausdorff(&a, &b);
        let hba = hausdorff(&b, &a);
        prop_assert!((hab - hba).abs() < 1e-12, "symmetry");
        prop_assert!(hab >= 0.0, "non-negativity");
        prop_assert!(hausdorff(&a, &a) == 0.0, "identity");
    }

    #[test]
    fn hausdorff_triangle_inequality(
        a in cloud_strategy(1, 15),
        b in cloud_strategy(1, 15),
        c in cloud_strategy(1, 15),
    ) {
        // Hausdorff distance satisfies the triangle inequality on compact sets.
        let ab = hausdorff(&a, &b);
        let bc = hausdorff(&b, &c);
        let ac = hausdorff(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn chamfer_symmetric_nonnegative(a in cloud_strategy(1, 25), b in cloud_strategy(1, 25)) {
        let cab = chamfer(&a, &b);
        prop_assert!((cab - chamfer(&b, &a)).abs() < 1e-12);
        prop_assert!(cab >= 0.0);
        prop_assert!(chamfer(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn chamfer_bounded_by_hausdorff(a in cloud_strategy(1, 25), b in cloud_strategy(1, 25)) {
        // The average closest-point distance cannot exceed the worst case.
        prop_assert!(chamfer(&a, &b) <= hausdorff(&a, &b) + 1e-9);
    }

    #[test]
    fn jsd_in_unit_interval(a in cloud_strategy(1, 25), b in cloud_strategy(1, 25)) {
        let v = jsd(&a, &b, &JsdConfig::default());
        prop_assert!((0.0..=1.0).contains(&v));
        let self_v = jsd(&a, &a, &JsdConfig::default());
        prop_assert!(self_v < 1e-9);
    }

    #[test]
    fn translation_invariance_of_self_distance(
        cloud in cloud_strategy(2, 20),
        shift in vec3_strategy(),
    ) {
        let mut moved = cloud.clone();
        moved.translate(shift);
        // Distances between a cloud and its translate equal the shift norm
        // only for Hausdorff of singleton sets in general, but hausdorff
        // must be bounded above by the shift magnitude.
        prop_assert!(hausdorff(&cloud, &moved) <= shift.norm() + 1e-9);
    }

    #[test]
    fn fps_indices_unique_and_in_range(cloud in cloud_strategy(1, 60), k in 0usize..70) {
        let idx = farthest_point_indices(&cloud, k);
        prop_assert_eq!(idx.len(), k.min(cloud.len()));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), idx.len());
        prop_assert!(idx.iter().all(|&i| i < cloud.len()));
    }

    #[test]
    fn resample_always_hits_target(cloud in cloud_strategy(0, 40), n in 0usize..80, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = resample_to(&cloud, n, &mut rng);
        prop_assert_eq!(out.len(), n);
    }

    #[test]
    fn dbscan_labels_complete_and_consistent(cloud in cloud_strategy(0, 50)) {
        let c = dbscan(&cloud, &DbscanConfig { eps: 0.8, min_points: 3 });
        prop_assert_eq!(c.labels().len(), cloud.len());
        // Every cluster id must be < cluster_count.
        for l in c.labels() {
            if let ClusterLabel::Cluster(id) = l {
                prop_assert!(*id < c.cluster_count());
            }
        }
        // Sizes sum to n - noise.
        let size_sum: usize = c.cluster_sizes().iter().sum();
        prop_assert_eq!(size_sum + c.noise_count(), cloud.len());
        // Every non-empty cluster meets the density requirement indirectly:
        // at least one member (the seed core point) had >= min_points
        // neighbours, so clusters must have at least min_points members.
        for size in c.cluster_sizes() {
            prop_assert!(size >= 3);
        }
    }

    #[test]
    fn knn_sorted_by_distance(cloud in cloud_strategy(1, 40), q in vec3_strategy(), k in 1usize..20) {
        let idx = knn_indices(&cloud, q, k);
        let dists: Vec<f64> = idx.iter().map(|&i| cloud[i].position.distance(q)).collect();
        for w in dists.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn ball_query_within_radius(cloud in cloud_strategy(1, 40), q in vec3_strategy(), r in 0.1f64..3.0) {
        for i in ball_query(&cloud, q, r, 100) {
            prop_assert!(cloud[i].position.distance(q) <= r + 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn multi_ball_query_matches_padded_oracle(
        positions in prop::collection::vec(grid_point(), 0..200),
        scales in prop::collection::vec(scale_strategy(), 1..4),
        off_cloud in prop::collection::vec(grid_point(), 1..4),
    ) {
        // Every cloud point is an on-cloud center; each off-cloud center
        // sits half a grid step off the lattice on x, or is a lattice
        // point that may or may not be in the cloud.
        let cloud = PointCloud::from_positions(positions.iter().copied());
        let centers: Vec<Vec3> = positions
            .iter()
            .copied()
            .chain(off_cloud.iter().map(|&c| c + Vec3::new(0.125, 0.0, 0.0)))
            .chain(off_cloud.iter().copied())
            .collect();
        let mut query = MultiBallQuery::new(scales.iter().copied());
        for (c, &center) in centers.iter().enumerate() {
            let groups = query.query(&positions, center);
            prop_assert_eq!(groups.len(), scales.len());
            for (k, &(radius, max_points)) in scales.iter().enumerate() {
                let expected = ball_query_padded(&cloud, center, radius, max_points);
                prop_assert_eq!(
                    &groups[k],
                    &expected,
                    "center {} {:?}, scale {} ({}, {})",
                    c,
                    center,
                    k,
                    radius,
                    max_points
                );
            }
        }
    }

    #[test]
    fn dbscan_matches_oracle_labels(
        positions in prop::collection::vec(grid_point(), 0..200),
        eps_steps in 0u32..8,
        min_points in 1usize..8,
    ) {
        // Grid clouds put pairs at exactly eps and repeat points.
        let cloud = PointCloud::from_positions(positions);
        let config = DbscanConfig { eps: eps_steps as f64 * 0.25, min_points };
        let labels = dbscan(&cloud, &config).labels().to_vec();
        prop_assert_eq!(labels, dbscan_oracle(&cloud, &config));
    }

    #[test]
    fn dbscan_matches_oracle_labels_off_grid(cloud in cloud_strategy(0, 120), eps in 0.1f64..3.0) {
        let config = DbscanConfig { eps, min_points: 4 };
        let labels = dbscan(&cloud, &config).labels().to_vec();
        prop_assert_eq!(labels, dbscan_oracle(&cloud, &config));
    }

    #[test]
    fn dbscan_matches_oracle_labels_blobs_and_outliers(
        cloud in blobs_and_outliers(),
        eps in 0.3f64..2.0,
        min_points in 2usize..8,
    ) {
        let config = DbscanConfig { eps, min_points };
        let labels = dbscan(&cloud, &config).labels().to_vec();
        prop_assert_eq!(labels, dbscan_oracle(&cloud, &config));
    }
}
