//! Neighbourhood queries: k-nearest-neighbour and ball queries.
//!
//! The set-abstraction blocks of GesIDNet group, for each sampled centroid,
//! the `m` nearest points within a radius `d` (paper §IV-C). Radar clouds
//! are small (tens to a few hundred points), so every query is one
//! brute-force distance scan. [`knn_indices`], [`ball_query`] and
//! [`ball_query_padded`] then sort their candidates (O(n·log n) per
//! query); [`MultiBallQuery`], the form GesIDNet runs, keeps only the
//! `m` nearest in a bounded list (O(n·m) worst case, allocation-free once
//! warm) and answers every grouping scale of a centroid from one scan.

use crate::point::{PointCloud, Vec3};

/// Returns the indices of the `k` nearest points to `query`, closest
/// first. Ties are broken by index for determinism. If the cloud has fewer
/// than `k` points, all indices are returned.
pub fn knn_indices(cloud: &PointCloud, query: Vec3, k: usize) -> Vec<usize> {
    let mut order: Vec<(f64, usize)> = cloud
        .iter()
        .enumerate()
        .map(|(i, p)| (p.position.distance_sqr(query), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order.truncate(k);
    order.into_iter().map(|(_, i)| i).collect()
}

/// Returns up to `max_points` indices within `radius` of `query`, closest
/// first.
///
/// Mirrors PointNet++ ball query: if fewer than `max_points` fall inside
/// the ball the result is shorter; callers typically pad by repeating the
/// first (closest) index, which [`ball_query_padded`] does.
pub fn ball_query(cloud: &PointCloud, query: Vec3, radius: f64, max_points: usize) -> Vec<usize> {
    let r2 = radius * radius;
    let mut order: Vec<(f64, usize)> = cloud
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let d = p.position.distance_sqr(query);
            (d <= r2).then_some((d, i))
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order.truncate(max_points);
    order.into_iter().map(|(_, i)| i).collect()
}

/// Ball query padded to exactly `max_points` indices by repeating the
/// closest in-ball point, falling back to the global nearest neighbour
/// when the ball is empty (PointNet++ convention, keeps group shapes
/// static).
///
/// Returns an empty vector only when the cloud itself is empty.
pub fn ball_query_padded(
    cloud: &PointCloud,
    query: Vec3,
    radius: f64,
    max_points: usize,
) -> Vec<usize> {
    if cloud.is_empty() || max_points == 0 {
        return Vec::new();
    }
    let mut idx = ball_query(cloud, query, radius, max_points);
    if idx.is_empty() {
        let nearest = knn_indices(cloud, query, 1)[0];
        idx.push(nearest);
    }
    let fill = idx[0];
    while idx.len() < max_points {
        idx.push(fill);
    }
    idx
}

/// Padded ball queries at several scales around one center, answered
/// from one distance scan: for scale `k` with `(radius, max_points)`,
/// group `k` equals `ball_query_padded(cloud, center, radius,
/// max_points)` over the same positions, index for index.
///
/// The scan keeps the `max m` nearest points within the largest radius,
/// ordered by `(distance², index)`, in a bounded insertion list: once
/// the list is full, a point no nearer than its last entry is rejected
/// without a search. Each scale's in-ball members are a prefix of that list (the
/// smaller radii cut it further); the group is then padded with its
/// closest member, or filled with the global nearest point when its
/// ball is empty, exactly as [`ball_query_padded`] does. The list and
/// the groups are reused across queries.
#[derive(Debug, Clone)]
pub struct MultiBallQuery {
    /// `(radius², max_points)` per scale.
    scales: Vec<(f64, usize)>,
    /// The largest `radius²`; candidates beyond it are never kept.
    reach: f64,
    /// The largest `max_points`: the length the candidate list is held to.
    keep: usize,
    /// The `keep` nearest in-reach points so far, by `(distance², index)`.
    nearest: Vec<(f64, usize)>,
    /// The last query's padded group per scale.
    groups: Vec<Vec<usize>>,
}

impl MultiBallQuery {
    /// A query over `(radius, max_points)` scales.
    pub fn new(scales: impl IntoIterator<Item = (f64, usize)>) -> Self {
        let scales: Vec<(f64, usize)> = scales.into_iter().map(|(r, m)| (r * r, m)).collect();
        // `f64::max` skips a NaN radius², whose ball is always empty.
        let reach = scales
            .iter()
            .fold(f64::NEG_INFINITY, |acc, &(r2, _)| acc.max(r2));
        let keep = scales.iter().map(|&(_, m)| m).max().unwrap_or(0);
        MultiBallQuery {
            groups: vec![Vec::new(); scales.len()],
            nearest: Vec::with_capacity(keep + 1),
            scales,
            reach,
            keep,
        }
    }

    /// Groups `positions` around `center` at every scale; returns one
    /// padded group of point indices per scale, in scale order. Every
    /// group is empty when `positions` is.
    #[allow(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(d <= reach)` also skips a NaN distance; `d > reach` would keep it"
    )]
    pub fn query(&mut self, positions: &[Vec3], center: Vec3) -> &[Vec<usize>] {
        self.nearest.clear();
        if self.keep > 0 {
            for (i, p) in positions.iter().enumerate() {
                let d = p.distance_sqr(center);
                // In reach (a NaN distance never is), and nearer than
                // the last kept entry: later indices lose distance ties.
                let full = self.nearest.len() == self.keep;
                if !(d <= self.reach) || (full && d >= self.nearest[self.keep - 1].0) {
                    continue;
                }
                let at = self.nearest.partition_point(|&(kept, _)| kept <= d);
                self.nearest.insert(at, (d, i));
                self.nearest.truncate(self.keep);
            }
        }
        let mut global_nearest = None;
        for (group, &(r2, m)) in self.groups.iter_mut().zip(&self.scales) {
            group.clear();
            if positions.is_empty() || m == 0 {
                continue;
            }
            group.extend(
                self.nearest[..m.min(self.nearest.len())]
                    .iter()
                    .take_while(|&&(d, _)| d <= r2)
                    .map(|&(_, i)| i),
            );
            // An empty ball falls back to the nearest point overall,
            // ordered as `knn_indices` orders it.
            let fill = match group.first() {
                Some(&closest) => closest,
                None => *global_nearest.get_or_insert_with(|| {
                    (0..positions.len())
                        .min_by(|&a, &b| {
                            positions[a]
                                .distance_sqr(center)
                                .total_cmp(&positions[b].distance_sqr(center))
                                .then(a.cmp(&b))
                        })
                        .expect("non-empty")
                }),
            };
            group.resize(m, fill);
        }
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::PointCloud;

    fn line() -> PointCloud {
        PointCloud::from_positions((0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)))
    }

    #[test]
    fn knn_orders_by_distance() {
        let cloud = line();
        let idx = knn_indices(&cloud, Vec3::new(3.2, 0.0, 0.0), 3);
        assert_eq!(idx, vec![3, 4, 2]);
    }

    #[test]
    fn knn_k_exceeds_n() {
        let cloud = line();
        let idx = knn_indices(&cloud, Vec3::ZERO, 100);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0], 0);
    }

    #[test]
    fn knn_empty_cloud() {
        assert!(knn_indices(&PointCloud::new(), Vec3::ZERO, 3).is_empty());
    }

    #[test]
    fn ball_query_respects_radius() {
        let cloud = line();
        let idx = ball_query(&cloud, Vec3::new(5.0, 0.0, 0.0), 1.5, 10);
        assert_eq!(idx, vec![5, 4, 6]);
    }

    #[test]
    fn ball_query_caps_points() {
        let cloud = line();
        let idx = ball_query(&cloud, Vec3::new(5.0, 0.0, 0.0), 4.0, 3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[0], 5);
    }

    #[test]
    fn padded_repeats_closest() {
        let cloud = line();
        let idx = ball_query_padded(&cloud, Vec3::new(0.1, 0.0, 0.0), 0.5, 4);
        assert_eq!(idx, vec![0, 0, 0, 0]);
    }

    #[test]
    fn padded_falls_back_to_nearest_when_ball_empty() {
        let cloud = line();
        let idx = ball_query_padded(&cloud, Vec3::new(100.0, 0.0, 0.0), 0.5, 3);
        assert_eq!(idx, vec![9, 9, 9]);
    }

    #[test]
    fn padded_empty_cloud_is_empty() {
        assert!(ball_query_padded(&PointCloud::new(), Vec3::ZERO, 1.0, 4).is_empty());
    }

    #[test]
    fn exact_boundary_is_inside() {
        let cloud = line();
        let idx = ball_query(&cloud, Vec3::new(0.0, 0.0, 0.0), 1.0, 10);
        assert!(
            idx.contains(&1),
            "point at exactly radius should be included"
        );
    }
}
