//! Point sampling utilities.
//!
//! GesIDNet consumes fixed-size point sets; the set-abstraction blocks pick
//! representative points with farthest-point sampling (FPS), the standard
//! choice in PointNet++-style networks because it covers the cloud's extent
//! evenly regardless of density.

use crate::point::{PointCloud, Vec3};
use rand::Rng;

/// Farthest-point sampling: returns `k` indices spread across the cloud.
///
/// The first point is the one nearest the centroid (deterministic), and
/// each subsequent pick maximises the minimum distance to the already
/// selected set. If `k >= cloud.len()` all indices are returned.
pub fn farthest_point_indices(cloud: &PointCloud, k: usize) -> Vec<usize> {
    farthest_indices(cloud.len(), |i| cloud[i].position, k)
}

/// [`farthest_point_indices`] over bare positions: the same picks as on
/// a cloud of those positions.
pub fn farthest_position_indices(positions: &[Vec3], k: usize) -> Vec<usize> {
    farthest_indices(positions.len(), |i| positions[i], k)
}

/// Farthest-point sampling over the `n` positions `at(0..n)`.
fn farthest_indices(n: usize, at: impl Fn(usize) -> Vec3, k: usize) -> Vec<usize> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    if k >= n {
        return (0..n).collect();
    }
    // Summed in index order, as `PointCloud::centroid` sums.
    let centroid = (0..n).fold(Vec3::ZERO, |acc, i| acc + at(i)) * (1.0 / n as f64);
    let first = (0..n)
        .min_by(|&a, &b| {
            at(a)
                .distance_sqr(centroid)
                .total_cmp(&at(b).distance_sqr(centroid))
        })
        .expect("non-empty");

    let mut selected = Vec::with_capacity(k);
    selected.push(first);
    let mut min_dist: Vec<f64> = (0..n).map(|i| at(i).distance_sqr(at(first))).collect();

    while selected.len() < k {
        let next = min_dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0;
        selected.push(next);
        let np = at(next);
        for (i, d_min) in min_dist.iter_mut().enumerate() {
            let d = at(i).distance_sqr(np);
            if d < *d_min {
                *d_min = d;
            }
        }
    }
    selected
}

/// Farthest-point sampling returning the sampled cloud.
pub fn farthest_point_sample(cloud: &PointCloud, k: usize) -> PointCloud {
    cloud.select(&farthest_point_indices(cloud, k))
}

/// Resamples a cloud to exactly `n` points.
///
/// * If the cloud has more than `n` points, FPS keeps a well-spread subset.
/// * If it has fewer, points are duplicated uniformly at random (the usual
///   padding strategy for sparse radar clouds).
/// * An empty input yields `n` zero points so downstream shapes stay fixed.
pub fn resample_to<R: Rng>(cloud: &PointCloud, n: usize, rng: &mut R) -> PointCloud {
    if n == 0 {
        return PointCloud::new();
    }
    if cloud.is_empty() {
        return PointCloud::from_points(vec![crate::point::Point::at(Vec3::ZERO); n]);
    }
    if cloud.len() == n {
        return cloud.clone();
    }
    if cloud.len() > n {
        return farthest_point_sample(cloud, n);
    }
    let mut out = cloud.clone();
    while out.len() < n {
        let i = rng.gen_range(0..cloud.len());
        out.push(cloud[i]);
    }
    out
}

/// Normalises a cloud in place: centres positions on the centroid and
/// scales so the maximum distance from the centre is 1.
///
/// Degenerate clouds (all points identical) are centred but not scaled.
/// Returns the applied `(centroid, scale)` so the transform can be undone
/// or reused; scale is the *divisor* applied to coordinates.
pub fn normalize_unit_sphere(cloud: &mut PointCloud) -> (Vec3, f64) {
    let Some(centroid) = cloud.centroid() else {
        return (Vec3::ZERO, 1.0);
    };
    cloud.translate(-centroid);
    let max_r = cloud
        .iter()
        .map(|p| p.position.norm())
        .fold(0.0f64, f64::max);
    let scale = if max_r > 1e-12 { max_r } else { 1.0 };
    for p in cloud.iter_mut() {
        p.position = p.position * (1.0 / scale);
    }
    (centroid, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point, PointCloud};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_cloud(n: usize) -> PointCloud {
        PointCloud::from_positions(
            (0..n).map(|i| Vec3::new((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1, 0.0)),
        )
    }

    #[test]
    fn fps_returns_distinct_indices() {
        let cloud = grid_cloud(100);
        let idx = farthest_point_indices(&cloud, 16);
        assert_eq!(idx.len(), 16);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "indices must be unique");
    }

    #[test]
    fn fps_covers_extremes() {
        // Sampling 2 points from a segment must pick (near) both ends.
        let cloud = PointCloud::from_positions((0..11).map(|i| Vec3::new(i as f64, 0.0, 0.0)));
        let idx = farthest_point_indices(&cloud, 3);
        let xs: Vec<f64> = idx.iter().map(|&i| cloud[i].position.x).collect();
        assert!(xs.iter().any(|&x| x <= 1.0));
        assert!(xs.iter().any(|&x| x >= 9.0));
    }

    #[test]
    fn fps_k_larger_than_n() {
        let cloud = grid_cloud(5);
        let idx = farthest_point_indices(&cloud, 50);
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn fps_empty_and_zero() {
        assert!(farthest_point_indices(&PointCloud::new(), 4).is_empty());
        assert!(farthest_point_indices(&grid_cloud(10), 0).is_empty());
    }

    #[test]
    fn fps_spread_beats_prefix() {
        // The FPS subset's minimum pairwise distance should be at least
        // that of taking the first k points (which are adjacent).
        let cloud = grid_cloud(100);
        let k = 8;
        let fps = farthest_point_sample(&cloud, k);
        let prefix = cloud.select(&(0..k).collect::<Vec<_>>());
        let min_pair = |c: &PointCloud| -> f64 {
            let mut m = f64::INFINITY;
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    m = m.min(c[i].position.distance(c[j].position));
                }
            }
            m
        };
        assert!(min_pair(&fps) >= min_pair(&prefix));
    }

    #[test]
    fn resample_up_and_down() {
        let cloud = grid_cloud(37);
        let mut rng = StdRng::seed_from_u64(7);
        let up = resample_to(&cloud, 64, &mut rng);
        assert_eq!(up.len(), 64);
        let down = resample_to(&cloud, 16, &mut rng);
        assert_eq!(down.len(), 16);
        let same = resample_to(&cloud, 37, &mut rng);
        assert_eq!(same, cloud);
    }

    #[test]
    fn resample_empty_gives_zero_points() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = resample_to(&PointCloud::new(), 8, &mut rng);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|p| p.position == Vec3::ZERO));
    }

    #[test]
    fn resample_up_only_duplicates_existing() {
        let cloud = grid_cloud(5);
        let mut rng = StdRng::seed_from_u64(3);
        let up = resample_to(&cloud, 20, &mut rng);
        for p in up.iter() {
            assert!(cloud.iter().any(|q| q.position == p.position));
        }
    }

    #[test]
    fn normalize_centers_and_scales() {
        let mut cloud = PointCloud::from_positions([
            Vec3::new(10.0, 10.0, 10.0),
            Vec3::new(12.0, 10.0, 10.0),
            Vec3::new(10.0, 14.0, 10.0),
        ]);
        let (centroid, scale) = normalize_unit_sphere(&mut cloud);
        assert!(
            centroid.distance(Vec3::new(
                10.666_666_666_666_666,
                11.333_333_333_333_334,
                10.0
            )) < 1e-9
        );
        assert!(scale > 0.0);
        assert!(cloud.centroid().unwrap().norm() < 1e-9);
        let max_r = cloud
            .iter()
            .map(|p| p.position.norm())
            .fold(0.0f64, f64::max);
        assert!((max_r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_degenerate_cloud() {
        let mut cloud = PointCloud::from_points(vec![Point::at(Vec3::new(5.0, 5.0, 5.0)); 4]);
        let (_, scale) = normalize_unit_sphere(&mut cloud);
        assert_eq!(scale, 1.0);
        assert!(cloud.iter().all(|p| p.position.norm() < 1e-12));
    }
}
