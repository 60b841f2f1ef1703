//! Metamorphic properties: transformations that must not change hits.
//!
//! Prediction accuracy depends heavily on ray order (a better-trained
//! table predicts more), so reordering rays or rigidly moving the scene
//! reshapes the predictor's internal history completely — yet the per-ray
//! *answers* must not move. These helpers run workloads through the live
//! predictor on both sides of such a transformation and compare results.

use rand::Rng;
use rip_bvh::{sorting, Bvh, TraversalKind};
use rip_core::{trace, Predictor, PredictorConfig};
use rip_math::{Ray, Triangle, Vec3};

use crate::gen;

/// Per-ray occlusion answers under a live (stateful) predictor.
pub fn occlusion_results(bvh: &Bvh, rays: &[Ray], config: PredictorConfig) -> Vec<bool> {
    let mut predictor = Predictor::new(config, bvh.bounds());
    rays.iter()
        .map(|ray| {
            trace(&mut predictor, bvh, ray, TraversalKind::AnyHit)
                .hit
                .is_some()
        })
        .collect()
}

/// Per-ray closest-hit answers (`(tri_index, t bits)`) under a live
/// predictor.
pub fn closest_results(
    bvh: &Bvh,
    rays: &[Ray],
    config: PredictorConfig,
) -> Vec<Option<(u32, u32)>> {
    let mut predictor = Predictor::new(config, bvh.bounds());
    rays.iter()
        .map(|ray| {
            trace(&mut predictor, bvh, ray, TraversalKind::ClosestHit)
                .hit
                .map(|h| (h.tri_index, h.t.to_bits()))
        })
        .collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut r = gen::rng(seed ^ 0xFEED);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, r.gen_range(0..i + 1));
    }
    perm
}

/// Asserts that permuting ray order leaves every ray's occlusion and
/// closest-hit answer untouched, despite the completely different
/// predictor training history.
pub fn assert_permutation_invariant(bvh: &Bvh, rays: &[Ray], config: PredictorConfig, seed: u64) {
    let perm = permutation(rays.len(), seed);
    let shuffled: Vec<Ray> = perm.iter().map(|&i| rays[i]).collect();

    let base_occ = occlusion_results(bvh, rays, config);
    let shuf_occ = occlusion_results(bvh, &shuffled, config);
    let base_clo = closest_results(bvh, rays, config);
    let shuf_clo = closest_results(bvh, &shuffled, config);
    for (new_pos, &old_pos) in perm.iter().enumerate() {
        assert_eq!(
            base_occ[old_pos], shuf_occ[new_pos],
            "occlusion answer for ray {old_pos} changed under permutation"
        );
        assert_eq!(
            base_clo[old_pos], shuf_clo[new_pos],
            "closest hit for ray {old_pos} changed under permutation"
        );
    }
}

/// Asserts that Morton-sorting the rays (the Aila–Laine §5.2 sort the
/// paper compares against) preserves every per-ray answer.
pub fn assert_morton_sort_invariant(bvh: &Bvh, rays: &[Ray], config: PredictorConfig) {
    let perm = sorting::sort_permutation(rays, &bvh.bounds());
    let sorted: Vec<Ray> = perm.iter().map(|&i| rays[i as usize]).collect();
    let base = closest_results(bvh, rays, config);
    let after = closest_results(bvh, &sorted, config);
    for (new_pos, &old_pos) in perm.iter().enumerate() {
        assert_eq!(
            base[old_pos as usize], after[new_pos],
            "closest hit for ray {old_pos} changed under Morton sorting"
        );
    }
}

/// A rigid motion: rotation about +Y followed by a translation. Rigid maps
/// preserve distances, so `t` values carry over up to rounding.
#[derive(Clone, Copy, Debug)]
pub struct Rigid {
    /// Rotation angle about the +Y axis, radians.
    pub angle: f32,
    /// Translation applied after the rotation.
    pub translation: Vec3,
}

impl Rigid {
    /// Rotates and translates a point.
    pub fn apply_point(&self, p: Vec3) -> Vec3 {
        self.apply_dir(p) + self.translation
    }

    /// Rotates a direction (no translation).
    pub fn apply_dir(&self, d: Vec3) -> Vec3 {
        let (s, c) = self.angle.sin_cos();
        Vec3::new(c * d.x + s * d.z, d.y, -s * d.x + c * d.z)
    }

    /// Transforms a triangle vertex-wise.
    pub fn apply_triangle(&self, t: &Triangle) -> Triangle {
        Triangle::new(
            self.apply_point(t.a),
            self.apply_point(t.b),
            self.apply_point(t.c),
        )
    }

    /// Transforms a ray, preserving its parameter interval.
    pub fn apply_ray(&self, r: &Ray) -> Ray {
        Ray::with_interval(
            self.apply_point(r.origin),
            self.apply_dir(r.direction),
            r.t_min,
            r.t_max,
        )
    }
}

/// Asserts that rigidly transforming scene *and* rays preserves hit/miss
/// and keeps hit distances within `rel_tol`.
///
/// Rays near silhouette edges can legitimately flip under rounding, so
/// callers should pass robust rays (e.g. [`gen::hitting_rays`] plus
/// far-away misses), not grazing ones.
pub fn assert_rigid_invariant(tris: &[Triangle], rays: &[Ray], rigid: Rigid, rel_tol: f32) {
    let bvh = Bvh::build(tris);
    let moved: Vec<Triangle> = tris.iter().map(|t| rigid.apply_triangle(t)).collect();
    let bvh_moved = Bvh::build(&moved);
    for (i, ray) in rays.iter().enumerate() {
        let before = bvh.intersect(ray, TraversalKind::ClosestHit).hit;
        let after = bvh_moved
            .intersect(&rigid.apply_ray(ray), TraversalKind::ClosestHit)
            .hit;
        assert_eq!(
            before.is_some(),
            after.is_some(),
            "ray {i}: hit/miss flipped under rigid transform"
        );
        if let (Some(b), Some(a)) = (before, after) {
            assert!(
                (a.t - b.t).abs() <= rel_tol * (1.0 + b.t.abs()),
                "ray {i}: hit distance moved from {} to {} under rigid transform",
                b.t,
                a.t
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(100, 3);
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(p, permutation(100, 3), "must be seed-deterministic");
    }

    #[test]
    fn rigid_preserves_lengths() {
        let rigid = Rigid {
            angle: 1.1,
            translation: Vec3::new(3.0, -2.0, 0.5),
        };
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 1.0);
        let d = (a - b).length();
        let d2 = (rigid.apply_point(a) - rigid.apply_point(b)).length();
        assert!((d - d2).abs() < 1e-4);
        let dir = (a - b).normalized();
        assert!((rigid.apply_dir(dir).length() - 1.0).abs() < 1e-5);
    }
}
