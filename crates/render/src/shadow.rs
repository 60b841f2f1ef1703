//! Shadow-ray workload: the other occlusion-ray class of §2.2.
//!
//! Shadow rays, like AO rays, "test for any object intersection, without
//! requiring the closest intersection to be found" — they are exactly the
//! workload class the predictor targets. This generator casts one shadow
//! ray per primary hit point toward each of a set of point lights,
//! producing longer and more directionally coherent occlusion rays than
//! the AO hemisphere.

use rip_bvh::{Bvh, RayBatch, TraversalKernel, WhileWhileKernel};
use rip_math::{Ray, Vec3};
use rip_scene::Scene;

/// Parameters of the shadow-ray generator.
#[derive(Clone, Debug, Default)]
pub struct ShadowConfig {
    /// Point light positions in world space. When empty, lights are placed
    /// automatically near the top corners of the scene bounds.
    pub lights: Vec<Vec3>,
}

/// A generated shadow workload.
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_render::{ShadowConfig, ShadowWorkload};
/// use rip_scene::{SceneId, SceneScale};
///
/// let scene = SceneId::Sibenik.build_with_viewport(SceneScale::Tiny, 16, 16);
/// let tris: Vec<_> = scene.mesh.triangles().collect();
/// let bvh = Bvh::build(&tris);
/// let w = ShadowWorkload::generate(&scene, &bvh, &ShadowConfig::default());
/// assert!(!w.rays.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct ShadowWorkload {
    /// Occlusion rays toward the lights, in pixel-then-light order.
    pub rays: Vec<Ray>,
    /// For each ray, the linear pixel index it shades.
    pub ray_pixel: Vec<u32>,
    /// The lights used.
    pub lights: Vec<Vec3>,
    /// Viewport width.
    pub width: u32,
    /// Viewport height.
    pub height: u32,
}

impl ShadowWorkload {
    /// Traces one primary ray per pixel and spawns one shadow ray per
    /// light from each hit point, each exactly as long as the distance to
    /// its light (an any-hit on the segment means the point is shadowed).
    pub fn generate(scene: &Scene, bvh: &Bvh, config: &ShadowConfig) -> Self {
        let bounds = bvh.bounds();
        let lights = if config.lights.is_empty() {
            let d = bounds.diagonal();
            vec![
                bounds.min + d * Vec3::new(0.2, 0.92, 0.2),
                bounds.min + d * Vec3::new(0.8, 0.92, 0.8),
            ]
        } else {
            config.lights.clone()
        };
        let (width, height) = (scene.camera.width(), scene.camera.height());
        let primaries = crate::ao::primary_batch(scene);
        let primary_results = WhileWhileKernel::new(bvh).closest_hit_batch(&primaries);
        let mut rays = Vec::new();
        let mut ray_pixel = Vec::new();
        let eps = 1e-4 * bounds.diagonal_length();
        for (pixel, result) in primary_results.iter().enumerate() {
            let Some(hit) = result.hit else {
                continue;
            };
            let primary = primaries.ray(pixel);
            let point = primary.at(hit.t);
            let normal = bvh.triangle(hit.tri_index).unit_normal().unwrap_or(Vec3::Y);
            let normal = if normal.dot(primary.direction) > 0.0 {
                -normal
            } else {
                normal
            };
            for &light in &lights {
                let to_light = light - point;
                let distance = to_light.length();
                let Some(dir) = to_light.try_normalized() else {
                    continue;
                };
                // Lights behind the surface cast no ray (always dark).
                if dir.dot(normal) <= 0.0 {
                    continue;
                }
                rays.push(Ray::with_interval(
                    point + normal * eps,
                    dir,
                    0.0,
                    distance - 2.0 * eps,
                ));
                ray_pixel.push(pixel as u32);
            }
        }
        ShadowWorkload {
            rays,
            ray_pixel,
            lights,
            width,
            height,
        }
    }

    /// The shadow rays as a SoA [`RayBatch`] ready for the batched kernel
    /// entry points.
    pub fn batch(&self) -> RayBatch {
        RayBatch::from_rays(&self.rays)
    }

    /// Returns a copy of the rays sorted in Morton order, with the pixel
    /// map permuted to match (the paper's "sorted" configuration).
    pub fn sorted(&self, bvh: &Bvh) -> ShadowWorkload {
        let perm = self.batch().morton_permutation(&bvh.bounds());
        ShadowWorkload {
            rays: perm.apply(&self.rays),
            ray_pixel: perm.apply(&self.ray_pixel),
            lights: self.lights.clone(),
            width: self.width,
            height: self.height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_scene::{SceneId, SceneScale};

    fn setup() -> (Scene, Bvh) {
        let scene = SceneId::FireplaceRoom.build_with_viewport(SceneScale::Tiny, 24, 24);
        let tris: Vec<_> = scene.mesh.triangles().collect();
        let bvh = Bvh::build(&tris);
        (scene, bvh)
    }

    #[test]
    fn rays_end_at_their_light() {
        let (scene, bvh) = setup();
        let w = ShadowWorkload::generate(&scene, &bvh, &ShadowConfig::default());
        assert!(!w.rays.is_empty());
        for ray in w.rays.iter().take(200) {
            let end = ray.at(ray.t_max);
            let near_some_light = w
                .lights
                .iter()
                .any(|&l| (end - l).length() < 0.01 * bvh.bounds().diagonal_length());
            assert!(near_some_light, "segment end {end:?} not at a light");
        }
    }

    #[test]
    fn custom_lights_are_respected() {
        let (scene, bvh) = setup();
        let light = bvh.bounds().center() + Vec3::Y * 0.5;
        let w = ShadowWorkload::generate(
            &scene,
            &bvh,
            &ShadowConfig {
                lights: vec![light],
            },
        );
        assert_eq!(w.lights, vec![light]);
        assert!(
            w.rays.len() <= (24 * 24) as usize,
            "one light → at most one ray per pixel"
        );
    }

    #[test]
    fn shadow_rays_are_predictable_occlusion_rays() {
        // The §2.2 claim: shadow rays benefit from the predictor like AO
        // rays. Use a denser viewport and immediate training so the small
        // test workload can exercise the table.
        let scene = SceneId::FireplaceRoom.build_with_viewport(SceneScale::Tiny, 64, 64);
        let tris: Vec<_> = scene.mesh.triangles().collect();
        let bvh = Bvh::build(&tris);
        let w = ShadowWorkload::generate(&scene, &bvh, &ShadowConfig::default());
        let config = rip_core::PredictorConfig {
            update_delay: 0,
            ..rip_core::PredictorConfig::paper_default()
        };
        let sim = rip_core::FunctionalSim::new(
            config,
            rip_core::SimOptions {
                classify_accesses: false,
                ..Default::default()
            },
        );
        let report = sim
            .run(&bvh, &w.batch(), rip_bvh::TraversalKind::AnyHit, None, None)
            .unwrap();
        assert!(
            report.prediction.predicted_rate() > 0.1,
            "shadow rays should train the table: p = {}",
            report.prediction.predicted_rate()
        );
        assert!(
            report.prediction.verified_rate() > 0.02,
            "some shadow predictions should verify: v = {}",
            report.prediction.verified_rate()
        );
    }
}
