//! DBSCAN density-based clustering.
//!
//! The noise-canceling module of GesturePrint (paper §IV-B) clusters the
//! aggregated gesture point cloud with DBSCAN and keeps only the *main*
//! cluster (the one containing the most points), discarding multipath
//! ghosts, reflections from swaying objects, and other people in the scene
//! (paper Fig. 15).
//!
//! Paper parameters: maximum pair distance `D_max = 1 m`, minimum cluster
//! size `N_min = 4`.

use crate::point::PointCloud;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanConfig {
    /// Neighbourhood radius ε — the paper's `D_max` (m).
    pub eps: f64,
    /// Minimum number of points for a dense region — the paper's `N_min`.
    pub min_points: usize,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        DbscanConfig {
            eps: 1.0,
            min_points: 4,
        }
    }
}

/// The cluster assignment of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterLabel {
    /// The point belongs to cluster `id` (0-based).
    Cluster(usize),
    /// The point is density noise.
    Noise,
}

impl ClusterLabel {
    /// Returns the cluster id, or `None` for noise.
    pub fn id(self) -> Option<usize> {
        match self {
            ClusterLabel::Cluster(id) => Some(id),
            ClusterLabel::Noise => None,
        }
    }
}

/// The result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    labels: Vec<ClusterLabel>,
    cluster_count: usize,
}

impl Clustering {
    /// Per-point labels, parallel to the input cloud.
    pub fn labels(&self) -> &[ClusterLabel] {
        &self.labels
    }

    /// Number of clusters found (noise excluded).
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Number of points labelled noise.
    pub fn noise_count(&self) -> usize {
        self.labels
            .iter()
            .filter(|l| **l == ClusterLabel::Noise)
            .count()
    }

    /// Sizes of each cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cluster_count];
        for l in &self.labels {
            if let ClusterLabel::Cluster(id) = l {
                sizes[*id] += 1;
            }
        }
        sizes
    }

    /// Indices of the points in cluster `id`.
    pub fn members(&self, id: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (l.id() == Some(id)).then_some(i))
            .collect()
    }

    /// Id of the largest cluster (the paper's *main cluster*), or `None`
    /// if everything is noise.
    pub fn main_cluster(&self) -> Option<usize> {
        self.cluster_sizes()
            .iter()
            .enumerate()
            .max_by_key(|(_, size)| **size)
            .filter(|(_, size)| **size > 0)
            .map(|(id, _)| id)
    }
}

/// Runs DBSCAN over the positions of `cloud`.
///
/// Standard algorithm: core points have at least `min_points` neighbours
/// (including themselves) within `eps`; clusters grow by expanding core
/// points; border points join the first cluster that reaches them; the
/// rest is noise.
///
/// An expansion queues each neighbour at most once: a point already
/// queued is either still waiting in this expansion's queue or was
/// claimed by a cluster when an earlier queue reached it, and would be
/// skipped when popped again, so the labels are those of queueing every
/// neighbour of every core point.
///
/// Each cluster seed scans every point. A point popped from an
/// expansion queue scans only the points not yet queued, and counts its
/// own neighbourhood (stopping at `min_points`) only when that scan found
/// one to queue: a core point whose neighbours are all queued already
/// adds nothing, so skipping its count leaves the labels unchanged.
pub fn dbscan(cloud: &PointCloud, config: &DbscanConfig) -> Clustering {
    let n = cloud.len();
    let eps_sqr = config.eps * config.eps;
    let near = |i: usize, j: usize| cloud[i].position.distance_sqr(cloud[j].position) <= eps_sqr;
    let mut labels = vec![None::<ClusterLabel>; n];
    let mut cluster_count = 0usize;
    let mut queued = vec![false; n];
    // The points no queue has reached yet, ascending.
    let mut unqueued: Vec<usize> = (0..n).collect();
    let mut queue: Vec<usize> = Vec::new();
    let mut nbrs: Vec<usize> = Vec::new();

    for i in 0..n {
        if labels[i].is_some() {
            continue;
        }
        nbrs.clear();
        nbrs.extend((0..n).filter(|&j| near(i, j)));
        if nbrs.len() < config.min_points {
            labels[i] = Some(ClusterLabel::Noise);
            continue;
        }
        // Start a new cluster from this core point.
        let id = cluster_count;
        cluster_count += 1;
        labels[i] = Some(ClusterLabel::Cluster(id));
        queue.clear();
        enqueue_new(&nbrs, &mut queued, &mut queue, &mut unqueued);
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            match labels[j] {
                Some(ClusterLabel::Noise) => {
                    // Noise absorbed as a border point.
                    labels[j] = Some(ClusterLabel::Cluster(id));
                }
                Some(ClusterLabel::Cluster(_)) => continue,
                None => {
                    labels[j] = Some(ClusterLabel::Cluster(id));
                    nbrs.clear();
                    nbrs.extend(unqueued.iter().copied().filter(|&k| near(j, k)));
                    if !nbrs.is_empty()
                        && (0..n)
                            .filter(|&k| near(j, k))
                            .take(config.min_points)
                            .count()
                            >= config.min_points
                    {
                        enqueue_new(&nbrs, &mut queued, &mut queue, &mut unqueued);
                    }
                }
            }
        }
    }

    Clustering {
        labels: labels
            .into_iter()
            .map(|l| l.expect("all labelled"))
            .collect(),
        cluster_count,
    }
}

/// Appends to `queue` every point of `nbrs` not queued before, marks it
/// queued and drops it from `unqueued`.
fn enqueue_new(
    nbrs: &[usize],
    queued: &mut [bool],
    queue: &mut Vec<usize>,
    unqueued: &mut Vec<usize>,
) {
    for &k in nbrs {
        if !queued[k] {
            queued[k] = true;
            queue.push(k);
        }
    }
    unqueued.retain(|&k| !queued[k]);
}

/// Convenience: runs DBSCAN and returns the main cluster as a new cloud,
/// or an empty cloud if everything was noise.
pub fn main_cluster_of(cloud: &PointCloud, config: &DbscanConfig) -> PointCloud {
    let clustering = dbscan(cloud, config);
    match clustering.main_cluster() {
        Some(id) => cloud.select(&clustering.members(id)),
        None => PointCloud::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{PointCloud, Vec3};

    fn blob(center: Vec3, n: usize, spread: f64) -> Vec<Vec3> {
        // Deterministic quasi-random blob around a centre.
        (0..n)
            .map(|i| {
                let t = i as f64;
                center
                    + Vec3::new(
                        (t * 0.7).sin() * spread,
                        (t * 1.3).cos() * spread,
                        (t * 2.1).sin() * spread * 0.5,
                    )
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters() {
        let mut pts = blob(Vec3::new(0.0, 1.0, 0.0), 20, 0.1);
        pts.extend(blob(Vec3::new(5.0, 1.0, 0.0), 15, 0.1));
        let cloud = PointCloud::from_positions(pts);
        let c = dbscan(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 4,
            },
        );
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.noise_count(), 0);
        let sizes = c.cluster_sizes();
        assert!(sizes.contains(&20) && sizes.contains(&15), "{sizes:?}");
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut pts = blob(Vec3::ZERO, 10, 0.05);
        pts.push(Vec3::new(50.0, 0.0, 0.0));
        pts.push(Vec3::new(-50.0, 0.0, 0.0));
        let cloud = PointCloud::from_positions(pts);
        let c = dbscan(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 4,
            },
        );
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.noise_count(), 2);
    }

    #[test]
    fn main_cluster_is_largest() {
        let mut pts = blob(Vec3::ZERO, 30, 0.1);
        pts.extend(blob(Vec3::new(8.0, 0.0, 0.0), 6, 0.1));
        let cloud = PointCloud::from_positions(pts);
        let main = main_cluster_of(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 4,
            },
        );
        assert_eq!(main.len(), 30);
        assert!(main.centroid().unwrap().norm() < 0.2);
    }

    #[test]
    fn all_noise_gives_empty_main_cluster() {
        let cloud = PointCloud::from_positions([
            Vec3::ZERO,
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(20.0, 0.0, 0.0),
        ]);
        let cfg = DbscanConfig {
            eps: 0.5,
            min_points: 4,
        };
        let c = dbscan(&cloud, &cfg);
        assert_eq!(c.cluster_count(), 0);
        assert_eq!(c.main_cluster(), None);
        assert!(main_cluster_of(&cloud, &cfg).is_empty());
    }

    #[test]
    fn min_points_controls_density() {
        let pts = blob(Vec3::ZERO, 3, 0.05); // only 3 points
        let cloud = PointCloud::from_positions(pts);
        let strict = dbscan(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 4,
            },
        );
        assert_eq!(strict.cluster_count(), 0);
        let loose = dbscan(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 2,
            },
        );
        assert_eq!(loose.cluster_count(), 1);
    }

    #[test]
    fn empty_cloud() {
        let c = dbscan(&PointCloud::new(), &DbscanConfig::default());
        assert_eq!(c.cluster_count(), 0);
        assert!(c.labels().is_empty());
    }

    #[test]
    fn chain_connectivity_merges_into_one_cluster() {
        // A chain of points each within eps of the next must form a single
        // cluster even though the endpoints are far apart.
        let pts: Vec<Vec3> = (0..50)
            .map(|i| Vec3::new(i as f64 * 0.4, 0.0, 0.0))
            .collect();
        let cloud = PointCloud::from_positions(pts);
        let c = dbscan(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 3,
            },
        );
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn labels_parallel_to_input() {
        let pts = blob(Vec3::ZERO, 12, 0.1);
        let cloud = PointCloud::from_positions(pts);
        let c = dbscan(&cloud, &DbscanConfig::default());
        assert_eq!(c.labels().len(), cloud.len());
    }

    #[test]
    fn members_round_trip() {
        let mut pts = blob(Vec3::ZERO, 10, 0.1);
        pts.extend(blob(Vec3::new(6.0, 0.0, 0.0), 10, 0.1));
        let cloud = PointCloud::from_positions(pts);
        let c = dbscan(
            &cloud,
            &DbscanConfig {
                eps: 0.5,
                min_points: 4,
            },
        );
        let total: usize = (0..c.cluster_count()).map(|id| c.members(id).len()).sum();
        assert_eq!(total + c.noise_count(), cloud.len());
    }
}
