//! Axis-aligned bounding boxes and the slab ray/box intersection test.

use crate::{Ray, Vec3};

/// An axis-aligned bounding box described by its two extreme corners.
///
/// This is the bounding volume of the BVH (§2.4): interior nodes recursively
/// bound lower-level boxes with larger boxes, and `RayBoxTest` in Algorithm 1
/// is `Aabb::intersect`.
///
/// The empty box is represented with inverted infinite bounds so that
/// [`Aabb::union`] and [`Aabb::grow`] behave as identity on it.
///
/// # Examples
///
/// ```
/// use rip_math::{Aabb, Vec3};
///
/// let mut b = Aabb::empty();
/// b = b.grow(Vec3::ZERO).grow(Vec3::ONE);
/// assert_eq!(b.diagonal(), Vec3::ONE);
/// assert!((b.surface_area() - 6.0).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

rip_pod::impl_pod!(Aabb, size = 24, align = 4);

impl Default for Aabb {
    fn default() -> Self {
        Aabb::empty()
    }
}

impl Aabb {
    /// Creates a box from two corners.
    ///
    /// The corners are sorted component-wise, so argument order does not
    /// matter.
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The empty box (identity for [`union`](Aabb::union)).
    #[inline]
    pub const fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f32::INFINITY),
            max: Vec3::splat(f32::NEG_INFINITY),
        }
    }

    /// Whether this box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, rhs: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(rhs.min),
            max: self.max.max(rhs.max),
        }
    }

    /// Smallest box containing this box and the point `p`.
    #[inline]
    pub fn grow(&self, p: Vec3) -> Aabb {
        Aabb {
            min: self.min.min(p),
            max: self.max.max(p),
        }
    }

    /// Box center.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Extent along each axis (`max - min`).
    #[inline]
    pub fn diagonal(&self) -> Vec3 {
        self.max - self.min
    }

    /// Length of the diagonal. AO ray lengths are 25–40% of the *scene*
    /// bounding box diagonal (§5.2).
    #[inline]
    pub fn diagonal_length(&self) -> f32 {
        self.diagonal().length()
    }

    /// The largest extent over the three axes; `l` in the Two Point hash
    /// (§4.2.2).
    #[inline]
    pub fn max_extent(&self) -> f32 {
        self.diagonal().max_component()
    }

    /// Surface area, the quantity minimized by the SAH BVH builder.
    ///
    /// Returns `0.0` for empty boxes.
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let d = self.diagonal();
        2.0 * (d.x * d.y + d.y * d.z + d.z * d.x)
    }

    /// Whether `p` lies inside the closed box.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Whether `rhs` is fully contained in this box (every box contains the
    /// empty box).
    #[inline]
    pub fn contains_box(&self, rhs: &Aabb) -> bool {
        rhs.is_empty() || (self.contains_point(rhs.min) && self.contains_point(rhs.max))
    }

    /// Maps a point to `[0,1]³` relative to this box (clamped). This is the
    /// quantization used by the Grid Hash block (§4.2.1) and Morton sorting.
    #[inline]
    pub fn normalize_point(&self, p: Vec3) -> Vec3 {
        let d = self.diagonal();
        let safe = Vec3::new(d.x.max(1e-20), d.y.max(1e-20), d.z.max(1e-20));
        let q = (p - self.min) * safe.recip();
        q.max(Vec3::ZERO).min(Vec3::ONE)
    }

    /// Slab ray/box test against the ray's `[t_min, t_max]` interval.
    ///
    /// Returns the entry parameter (clamped to `ray.t_min`) on hit. Rays that
    /// start inside the box report `ray.t_min`. This is `RayBoxTest` of
    /// Algorithm 1.
    #[inline]
    pub fn intersect(&self, ray: &Ray) -> Option<f32> {
        self.intersect_with_inv(ray, ray.inv_direction())
    }

    /// Slab test with a precomputed reciprocal direction (the form used in
    /// inner traversal loops, where `inv_dir` is computed once per ray).
    ///
    /// The acceptance is deliberately *conservative* (cf. Ize, "Robust BVH
    /// Ray Traversal", 2013): rounding in the slab arithmetic can shrink
    /// the true interval by a few ulps, which would cull geometry lying
    /// exactly on a box face — hits the (authoritative) triangle test
    /// accepts. Padding the comparison guarantees every box containing a
    /// reportable hit passes; the only cost is an occasional extra node
    /// visit.
    #[inline]
    pub fn intersect_with_inv(&self, ray: &Ray, inv_dir: Vec3) -> Option<f32> {
        let t0 = (self.min - ray.origin) * inv_dir;
        let t1 = (self.max - ray.origin) * inv_dir;
        let t_near = t0.min(t1);
        let t_far = t0.max(t1);
        let t_enter = t_near.max_component().max(ray.t_min);
        let t_exit = t_far.min_component().min(ray.t_max);
        if t_enter <= t_exit * (1.0 + 1e-6) + 1e-7 {
            Some(t_enter)
        } else {
            None
        }
    }
}

impl FromIterator<Vec3> for Aabb {
    fn from_iter<I: IntoIterator<Item = Vec3>>(iter: I) -> Self {
        iter.into_iter().fold(Aabb::empty(), |b, p| b.grow(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn new_sorts_corners() {
        let b = Aabb::new(Vec3::ONE, Vec3::ZERO);
        assert_eq!(b.min, Vec3::ZERO);
        assert_eq!(b.max, Vec3::ONE);
    }

    #[test]
    fn empty_behaves_as_identity() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.surface_area(), 0.0);
        let b = unit_box();
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        assert!(b.contains_box(&e));
    }

    #[test]
    fn union_and_grow() {
        let b = Aabb::empty()
            .grow(Vec3::new(-1.0, 0.0, 0.0))
            .grow(Vec3::new(2.0, 3.0, 1.0));
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(2.0, 3.0, 1.0));
        assert_eq!(b.center(), Vec3::new(0.5, 1.5, 0.5));
    }

    #[test]
    fn surface_area_unit_cube() {
        assert!((unit_box().surface_area() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn containment() {
        let b = unit_box();
        assert!(b.contains_point(Vec3::splat(0.5)));
        assert!(b.contains_point(Vec3::ZERO)); // boundary closed
        assert!(!b.contains_point(Vec3::splat(1.1)));
        assert!(b.contains_box(&Aabb::new(Vec3::splat(0.2), Vec3::splat(0.8))));
        assert!(!b.contains_box(&Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5))));
    }

    #[test]
    fn normalize_point_clamps() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        assert_eq!(b.normalize_point(Vec3::splat(1.0)), Vec3::splat(0.5));
        assert_eq!(b.normalize_point(Vec3::splat(-5.0)), Vec3::ZERO);
        assert_eq!(b.normalize_point(Vec3::splat(5.0)), Vec3::ONE);
    }

    #[test]
    fn ray_hits_box_frontally() {
        let r = Ray::new(Vec3::new(0.5, 0.5, -2.0), Vec3::Z);
        let t = unit_box().intersect(&r).unwrap();
        assert!((t - 2.0).abs() < 1e-5);
    }

    #[test]
    fn ray_misses_box() {
        let r = Ray::new(Vec3::new(2.0, 2.0, -2.0), Vec3::Z);
        assert_eq!(unit_box().intersect(&r), None);
    }

    #[test]
    fn ray_starting_inside_reports_t_min() {
        let r = Ray::new(Vec3::splat(0.5), Vec3::X);
        let t = unit_box().intersect(&r).unwrap();
        assert_eq!(t, r.t_min);
    }

    #[test]
    fn ray_behind_box_misses() {
        let r = Ray::new(Vec3::new(0.5, 0.5, 2.0), Vec3::Z);
        assert_eq!(unit_box().intersect(&r), None);
    }

    #[test]
    fn segment_too_short_misses() {
        let r = Ray::segment(Vec3::new(0.5, 0.5, -2.0), Vec3::Z, 1.0);
        assert_eq!(unit_box().intersect(&r), None);
        let r2 = Ray::segment(Vec3::new(0.5, 0.5, -2.0), Vec3::Z, 2.5);
        assert!(unit_box().intersect(&r2).is_some());
    }

    #[test]
    fn axis_parallel_ray_on_slab_boundary() {
        // Direction has a zero component; recip gives ±inf and the slab test
        // must still answer correctly.
        let r = Ray::new(Vec3::new(0.5, 0.5, 0.5), Vec3::X);
        assert!(unit_box().intersect(&r).is_some());
        let miss = Ray::new(Vec3::new(0.5, 2.0, 0.5), Vec3::X);
        assert_eq!(unit_box().intersect(&miss), None);
    }

    #[test]
    fn from_iterator_bounds_points() {
        let b: Aabb = [Vec3::ZERO, Vec3::ONE, Vec3::new(-1.0, 0.5, 2.0)]
            .into_iter()
            .collect();
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 1.0, 2.0));
    }

    #[test]
    fn max_extent_and_diagonal() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 4.0, 2.0));
        assert_eq!(b.max_extent(), 4.0);
        assert!((b.diagonal_length() - (1.0f32 + 16.0 + 4.0).sqrt()).abs() < 1e-6);
    }
}
