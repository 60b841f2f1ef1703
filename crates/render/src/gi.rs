//! Global-illumination path workload (§6.4).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_bvh::{Bvh, RayBatch, TraversalKernel, WhileWhileKernel};
use rip_math::{sampling, Ray, Vec3};
use rip_scene::Camera;

/// Parameters of the GI path generator.
#[derive(Clone, Copy, Debug)]
pub struct GiConfig {
    /// Diffuse bounces after the primary hit (§6.4 evaluates three).
    pub bounces: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GiConfig {
    fn default() -> Self {
        GiConfig {
            bounces: 3,
            seed: 0x61,
        }
    }
}

/// A generated GI workload: all closest-hit path segments in trace order.
///
/// Unlike occlusion rays these need the *closest* hit; the predictor
/// extension evaluated in §6.4 uses predicted intersections to trim each
/// ray's maximum length before traversal.
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_render::{GiConfig, GiWorkload};
/// use rip_scene::{SceneId, SceneScale};
///
/// let scene = SceneId::Sibenik.build_with_viewport(SceneScale::Tiny, 16, 16);
/// let tris: Vec<_> = scene.mesh.triangles().collect();
/// let bvh = Bvh::build(&tris);
/// let w = GiWorkload::generate(&scene, &bvh, &GiConfig { bounces: 2, seed: 1 });
/// assert!(w.rays.len() >= (16 * 16));
/// ```
#[derive(Clone, Debug)]
pub struct GiWorkload {
    /// All path segments (primary rays first, then bounce generations).
    pub rays: Vec<Ray>,
    /// Number of primary rays (= pixels).
    pub primary_rays: u32,
    /// Segments per bounce generation, `[primary, bounce1, bounce2, …]`.
    pub generation_sizes: Vec<u32>,
}

impl GiWorkload {
    /// Traces diffuse paths through the scene: each pixel's primary ray is
    /// followed by up to `bounces` cosine-sampled continuation rays from
    /// successive hit points. All segments are recorded in trace order so
    /// simulators replay the exact ray stream. Only the camera of
    /// `scene` is read; the geometry comes from `bvh`.
    pub fn generate(scene: &impl AsRef<Camera>, bvh: &Bvh, config: &GiConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut rays = Vec::new();
        let mut generation_sizes = Vec::new();

        // Primary generation: one batch per bounce frontier, traced with
        // the batched while-while kernel. Continuations are spawned in ray
        // order so the RNG stream matches a per-ray loop exactly.
        let mut frontier = crate::ao::primary_batch(scene.as_ref());
        let primary_rays = frontier.len() as u32;
        let mut kernel = WhileWhileKernel::new(bvh);

        for _generation in 0..=config.bounces {
            if frontier.is_empty() {
                break;
            }
            generation_sizes.push(frontier.len() as u32);
            rays.extend(frontier.iter());
            let results = kernel.closest_hit_batch(&frontier);
            let mut next = RayBatch::with_capacity(frontier.len());
            for (i, result) in results.iter().enumerate() {
                let Some(hit) = result.hit else {
                    continue;
                };
                let ray = frontier.ray(i);
                let normal = bvh.triangle(hit.tri_index).unit_normal().unwrap_or(Vec3::Y);
                let normal = if normal.dot(ray.direction) > 0.0 {
                    -normal
                } else {
                    normal
                };
                let point = ray.at(hit.t) + normal * 1e-4 * bvh.bounds().diagonal_length();
                let dir = sampling::cosine_hemisphere_around(normal, rng.gen(), rng.gen());
                next.push(Ray::new(point, dir));
            }
            frontier = next;
        }
        GiWorkload {
            rays,
            primary_rays,
            generation_sizes,
        }
    }

    /// The full path-segment stream as a SoA [`RayBatch`] in trace order.
    pub fn batch(&self) -> RayBatch {
        RayBatch::from_rays(&self.rays)
    }

    /// One [`RayBatch`] per bounce generation, in trace order — the
    /// natural unit for wavefront-style batched tracing.
    pub fn generation_batches(&self) -> Vec<RayBatch> {
        let mut batches = Vec::with_capacity(self.generation_sizes.len());
        let mut offset = 0usize;
        for &size in &self.generation_sizes {
            let end = offset + size as usize;
            batches.push(RayBatch::from_rays(&self.rays[offset..end]));
            offset = end;
        }
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_scene::{Scene, SceneId, SceneScale};

    fn tiny() -> (Scene, Bvh) {
        let scene = SceneId::LivingRoom.build_with_viewport(SceneScale::Tiny, 16, 16);
        let tris: Vec<_> = scene.mesh.triangles().collect();
        (scene, Bvh::build(&tris))
    }

    #[test]
    fn generations_shrink_monotonically() {
        let (scene, bvh) = tiny();
        let w = GiWorkload::generate(&scene, &bvh, &GiConfig::default());
        assert_eq!(w.generation_sizes[0], w.primary_rays);
        for pair in w.generation_sizes.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "bounce generations cannot grow: {:?}",
                w.generation_sizes
            );
        }
        assert_eq!(
            w.rays.len() as u32,
            w.generation_sizes.iter().sum::<u32>(),
            "segments must equal the generation totals"
        );
    }

    #[test]
    fn bounce_count_bounds_generations() {
        let (scene, bvh) = tiny();
        let w = GiWorkload::generate(
            &scene,
            &bvh,
            &GiConfig {
                bounces: 2,
                seed: 3,
            },
        );
        assert!(w.generation_sizes.len() <= 3);
    }

    #[test]
    fn deterministic() {
        let (scene, bvh) = tiny();
        let a = GiWorkload::generate(&scene, &bvh, &GiConfig::default());
        let b = GiWorkload::generate(&scene, &bvh, &GiConfig::default());
        assert_eq!(a.rays.len(), b.rays.len());
        assert_eq!(a.rays.first(), b.rays.first());
        assert_eq!(a.rays.last(), b.rays.last());
    }

    #[test]
    fn bounce_rays_start_inside_scene() {
        let (scene, bvh) = tiny();
        let w = GiWorkload::generate(&scene, &bvh, &GiConfig::default());
        let bounds = bvh.bounds();
        let inflated = rip_math::Aabb::new(
            bounds.min - rip_math::Vec3::splat(1.0),
            bounds.max + rip_math::Vec3::splat(1.0),
        );
        for r in w.rays.iter().skip(w.primary_rays as usize) {
            assert!(
                inflated.contains_point(r.origin),
                "bounce origin escaped: {:?}",
                r.origin
            );
        }
    }
}
