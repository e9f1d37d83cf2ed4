//! Core point-cloud types: [`Vec3`], [`Point`], [`PointCloud`].

use std::iter::FromIterator;
use std::ops::{Add, AddAssign, Index, Mul, Neg, Sub};

/// A 3-D vector / position in metres.
///
/// The coordinate convention follows the radar device: `x` is lateral
/// (positive to the radar's right), `y` points away from the radar
/// (range direction), and `z` is height.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// Lateral coordinate (m).
    pub x: f64,
    /// Range / depth coordinate (m).
    pub y: f64,
    /// Height coordinate (m).
    pub z: f64,
}

impl Vec3 {
    /// The origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sqr(self, rhs: Vec3) -> f64 {
        (self - rhs).norm_sqr()
    }

    /// Returns the unit vector in this direction.
    ///
    /// Returns [`Vec3::ZERO`] for the zero vector rather than dividing by
    /// zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n > 0.0 {
            self * (1.0 / n)
        } else {
            Vec3::ZERO
        }
    }

    /// Linear interpolation: `self + t · (other − self)`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A single radar detection.
///
/// Matches the TI point-cloud format consumed by the paper: a 3-D position
/// plus the radial Doppler velocity and the detection SNR.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Position in radar coordinates (m).
    pub position: Vec3,
    /// Radial velocity (m/s); positive means moving away from the radar.
    pub doppler: f64,
    /// Detection signal-to-noise ratio (linear).
    pub snr: f64,
}

impl Point {
    /// Creates a point with the given kinematics.
    #[inline]
    pub const fn new(position: Vec3, doppler: f64, snr: f64) -> Self {
        Point {
            position,
            doppler,
            snr,
        }
    }

    /// Creates a stationary point with unit SNR at `position`.
    #[inline]
    pub const fn at(position: Vec3) -> Self {
        Point {
            position,
            doppler: 0.0,
            snr: 1.0,
        }
    }

    /// Range from the sensor origin (m).
    #[inline]
    pub fn range(&self) -> f64 {
        self.position.norm()
    }
}

/// An owned collection of [`Point`]s.
///
/// `PointCloud` behaves like a `Vec<Point>` with geometry helpers. It
/// implements [`FromIterator`] and [`Extend`] so clouds compose with
/// iterator pipelines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    points: Vec<Point>,
}

impl PointCloud {
    /// Creates an empty cloud.
    #[inline]
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// Creates an empty cloud with pre-allocated capacity.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        PointCloud {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector of points.
    #[inline]
    pub fn from_points(points: Vec<Point>) -> Self {
        PointCloud { points }
    }

    /// Builds a cloud of stationary unit-SNR points from bare positions.
    pub fn from_positions<I: IntoIterator<Item = Vec3>>(positions: I) -> Self {
        positions.into_iter().map(Point::at).collect()
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow the underlying slice.
    #[inline]
    pub fn as_slice(&self) -> &[Point] {
        &self.points
    }

    /// Appends a point.
    #[inline]
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// Iterates over points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Iterates mutably over points.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Point> {
        self.points.iter_mut()
    }

    /// Centroid of the point positions, or `None` for an empty cloud.
    pub fn centroid(&self) -> Option<Vec3> {
        if self.points.is_empty() {
            return None;
        }
        let sum = self
            .points
            .iter()
            .fold(Vec3::ZERO, |acc, p| acc + p.position);
        Some(sum * (1.0 / self.points.len() as f64))
    }

    /// Axis-aligned bounding box `(min, max)`, or `None` for an empty cloud.
    pub fn bounding_box(&self) -> Option<(Vec3, Vec3)> {
        let first = self.points.first()?.position;
        let (mut lo, mut hi) = (first, first);
        for p in &self.points[1..] {
            lo = lo.min(p.position);
            hi = hi.max(p.position);
        }
        Some((lo, hi))
    }

    /// Merges another cloud into this one.
    pub fn merge(&mut self, other: &PointCloud) {
        self.points.extend_from_slice(&other.points);
    }

    /// Returns a new cloud containing only the points at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> PointCloud {
        indices.iter().map(|&i| self.points[i]).collect()
    }

    /// Translates every point by `offset`.
    pub fn translate(&mut self, offset: Vec3) {
        for p in &mut self.points {
            p.position += offset;
        }
    }

    /// Mean Doppler magnitude across points (0 for an empty cloud).
    pub fn mean_doppler_magnitude(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.doppler.abs()).sum::<f64>() / self.points.len() as f64
    }
}

impl FromIterator<Point> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<Point> for PointCloud {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

impl Index<usize> for PointCloud {
    type Output = Point;
    #[inline]
    fn index(&self, i: usize) -> &Point {
        &self.points[i]
    }
}

impl IntoIterator for PointCloud {
    type Item = Point;
    type IntoIter = std::vec::IntoIter<Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.distance(Vec3::ZERO) - 5.0).abs() < 1e-12);
        assert!((v.normalized().norm() - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn centroid_of_symmetric_cloud_is_center() {
        let cloud = PointCloud::from_positions([
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, -2.0, 1.0),
            Vec3::new(0.0, 2.0, -1.0),
        ]);
        let c = cloud.centroid().unwrap();
        assert!(c.norm() < 1e-12);
    }

    #[test]
    fn empty_cloud_behaviour() {
        let cloud = PointCloud::new();
        assert!(cloud.is_empty());
        assert_eq!(cloud.centroid(), None);
        assert_eq!(cloud.bounding_box(), None);
        assert_eq!(cloud.mean_doppler_magnitude(), 0.0);
    }

    #[test]
    fn bounding_box_encloses_points() {
        let cloud = PointCloud::from_positions([
            Vec3::new(1.0, -1.0, 5.0),
            Vec3::new(-2.0, 3.0, 0.0),
            Vec3::new(0.0, 0.0, 2.0),
        ]);
        let (lo, hi) = cloud.bounding_box().unwrap();
        assert_eq!(lo, Vec3::new(-2.0, -1.0, 0.0));
        assert_eq!(hi, Vec3::new(1.0, 3.0, 5.0));
    }

    #[test]
    fn select_and_merge() {
        let mut a = PointCloud::from_positions([Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        let b = PointCloud::from_positions([Vec3::new(2.0, 0.0, 0.0)]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let sel = a.select(&[0, 2]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[1].position.x, 2.0);
    }

    #[test]
    fn translate_moves_all_points() {
        let mut cloud = PointCloud::from_positions([Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)]);
        cloud.translate(Vec3::new(0.0, 10.0, 0.0));
        assert_eq!(cloud[0].position.y, 10.0);
        assert_eq!(cloud[1].position.y, 11.0);
    }

    #[test]
    fn collect_from_iterator() {
        let cloud: PointCloud = (0..5)
            .map(|i| Point::at(Vec3::new(i as f64, 0.0, 0.0)))
            .collect();
        assert_eq!(cloud.len(), 5);
        let doubled: PointCloud = cloud
            .iter()
            .map(|p| Point::new(p.position * 2.0, p.doppler, p.snr))
            .collect();
        assert_eq!(doubled[4].position.x, 8.0);
    }

    #[test]
    fn point_range() {
        let p = Point::at(Vec3::new(0.0, 3.0, 4.0));
        assert!((p.range() - 5.0).abs() < 1e-12);
    }
}
