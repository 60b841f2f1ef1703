//! Ambient-occlusion workload generation (§2.3, §5.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_bvh::{Bvh, RayBatch, TraversalKernel, WhileWhileKernel};
use rip_math::{sampling, Ray, Vec3};
use rip_scene::Camera;

/// Builds the per-pixel primary-ray batch of a camera's viewport, in
/// row-major pixel order.
pub(crate) fn primary_batch(camera: &Camera) -> RayBatch {
    let (width, height) = (camera.width(), camera.height());
    let mut batch = RayBatch::with_capacity((width * height) as usize);
    for y in 0..height {
        for x in 0..width {
            batch.push(camera.primary_ray(x, y));
        }
    }
    batch
}

/// Parameters of the AO ray generator.
#[derive(Clone, Copy, Debug)]
pub struct AoConfig {
    /// Occlusion rays per primary hit point (§5.2: four).
    pub samples_per_hit: u32,
    /// Ray length as a fraction of the scene bounding-box diagonal,
    /// sampled uniformly from this range (§5.2: 25–40%).
    pub length_range: (f32, f32),
    /// RNG seed for the hemisphere sampling.
    pub seed: u64,
}

impl Default for AoConfig {
    fn default() -> Self {
        AoConfig {
            samples_per_hit: 4,
            length_range: (0.25, 0.40),
            seed: 0x0A0,
        }
    }
}

/// A generated AO workload: occlusion rays plus the pixel each ray shades.
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_render::{AoConfig, AoWorkload};
/// use rip_scene::{SceneId, SceneScale};
///
/// let scene = SceneId::LostEmpire.build_with_viewport(SceneScale::Tiny, 24, 24);
/// let tris: Vec<_> = scene.mesh.triangles().collect();
/// let bvh = Bvh::build(&tris);
/// let w = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
/// assert_eq!(w.rays.len(), w.ray_pixel.len());
/// ```
#[derive(Clone, Debug)]
pub struct AoWorkload {
    /// The occlusion rays, in generation (pixel) order — the paper's
    /// "unsorted" configuration.
    pub rays: Vec<Ray>,
    /// For each ray, the linear pixel index (`y * width + x`) it shades.
    pub ray_pixel: Vec<u32>,
    /// Viewport width.
    pub width: u32,
    /// Viewport height.
    pub height: u32,
    /// Pixels whose primary ray hit the scene.
    pub primary_hits: u32,
}

impl AoWorkload {
    /// Traces one primary ray per pixel (closest-hit) and spawns
    /// `samples_per_hit` cosine-weighted hemisphere rays at each hit point,
    /// exactly as §5.2 describes. Only the camera of `scene` (a
    /// [`Scene`](rip_scene::Scene) or a mesh-free
    /// [`SceneView`](rip_scene::SceneView)) is read; the geometry comes
    /// from `bvh`.
    ///
    /// # Panics
    ///
    /// Panics when `samples_per_hit` is zero or the length range is not
    /// within `(0, 1]` and increasing.
    pub fn generate(scene: &impl AsRef<Camera>, bvh: &Bvh, config: &AoConfig) -> Self {
        assert!(
            config.samples_per_hit > 0,
            "need at least one sample per hit"
        );
        let (lo, hi) = config.length_range;
        assert!(
            lo > 0.0 && hi <= 1.0 && lo <= hi,
            "bad length range ({lo}, {hi})"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let diag = bvh.bounds().diagonal_length();
        let camera = scene.as_ref();
        let (width, height) = (camera.width(), camera.height());
        let primaries = primary_batch(camera);
        let primary_results = WhileWhileKernel::new(bvh).closest_hit_batch(&primaries);
        let mut rays = Vec::new();
        let mut ray_pixel = Vec::new();
        let mut primary_hits = 0;
        // Iterate hits in pixel order so the RNG stream is consumed exactly
        // as a per-pixel loop would.
        for (pixel, result) in primary_results.iter().enumerate() {
            let Some(hit) = result.hit else {
                continue;
            };
            let primary = primaries.ray(pixel);
            primary_hits += 1;
            let point = primary.at(hit.t);
            let normal = bvh.triangle(hit.tri_index).unit_normal().unwrap_or(Vec3::Y);
            // Face the normal toward the camera side of the surface.
            let normal = if normal.dot(primary.direction) > 0.0 {
                -normal
            } else {
                normal
            };
            let origin = point + normal * (1e-4 * diag);
            for _ in 0..config.samples_per_hit {
                let dir = sampling::cosine_hemisphere_around(normal, rng.gen(), rng.gen());
                let len = diag * rng.gen_range(lo..=hi);
                rays.push(Ray::segment(origin, dir, len));
                ray_pixel.push(pixel as u32);
            }
        }
        AoWorkload {
            rays,
            ray_pixel,
            width,
            height,
            primary_hits,
        }
    }

    /// The occlusion rays as a SoA [`RayBatch`] ready for the batched
    /// kernel entry points (inverse directions precomputed once).
    pub fn batch(&self) -> RayBatch {
        RayBatch::from_rays(&self.rays)
    }

    /// Returns a copy of the rays sorted in Morton order (the paper's
    /// "sorted" configuration, §5.2), with the pixel map permuted to match.
    /// The permutation key is identical to `rip_bvh::sorting`.
    pub fn sorted(&self, bvh: &Bvh) -> AoWorkload {
        let perm = self.batch().morton_permutation(&bvh.bounds());
        AoWorkload {
            rays: perm.apply(&self.rays),
            ray_pixel: perm.apply(&self.ray_pixel),
            ..*self
        }
    }

    /// Assembles an ambient-occlusion image from per-ray hit flags
    /// (`true` = occluded): each pixel's value is the fraction of its rays
    /// that escaped (1 = fully lit).
    ///
    /// # Panics
    ///
    /// Panics when `hit_flags` length differs from the ray count.
    pub fn occlusion_image(&self, hit_flags: &[bool]) -> crate::GrayImage {
        assert_eq!(
            hit_flags.len(),
            self.rays.len(),
            "one flag per ray required"
        );
        let mut sum = vec![0.0f32; (self.width * self.height) as usize];
        let mut count = vec![0u32; (self.width * self.height) as usize];
        for (&pixel, &occluded) in self.ray_pixel.iter().zip(hit_flags) {
            sum[pixel as usize] += if occluded { 0.0 } else { 1.0 };
            count[pixel as usize] += 1;
        }
        let pixels = sum
            .iter()
            .zip(&count)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f32 })
            .collect();
        crate::GrayImage::from_pixels(self.width, self.height, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_scene::{Scene, SceneId, SceneScale};

    fn tiny_scene() -> (Scene, Bvh) {
        let scene = SceneId::FireplaceRoom.build_with_viewport(SceneScale::Tiny, 24, 24);
        let tris: Vec<_> = scene.mesh.triangles().collect();
        let bvh = Bvh::build(&tris);
        (scene, bvh)
    }

    #[test]
    fn generates_four_rays_per_hit() {
        let (scene, bvh) = tiny_scene();
        let w = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        assert_eq!(w.rays.len(), 4 * w.primary_hits as usize);
        assert!(
            w.primary_hits > 100,
            "interior camera should hit most pixels"
        );
    }

    #[test]
    fn ray_lengths_in_configured_range() {
        let (scene, bvh) = tiny_scene();
        let w = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        let diag = bvh.bounds().diagonal_length();
        for r in &w.rays {
            let frac = r.t_max / diag;
            assert!((0.249..=0.401).contains(&frac), "length fraction {frac}");
            assert!((r.direction.length() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (scene, bvh) = tiny_scene();
        let a = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        let b = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        assert_eq!(a.rays.len(), b.rays.len());
        assert_eq!(a.rays[0], b.rays[0]);
        assert_eq!(a.rays[a.rays.len() - 1], b.rays[b.rays.len() - 1]);
    }

    #[test]
    fn sorted_orders_rays_by_morton_key() {
        let (scene, bvh) = tiny_scene();
        let w = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        let s = w.sorted(&bvh);
        assert_eq!(s.rays.len(), w.rays.len());
        let bounds = bvh.bounds();
        let keys: Vec<u64> = s
            .rays
            .iter()
            .map(|r| rip_bvh::sorting::ray_sort_key(r, &bounds))
            .collect();
        assert!(
            keys.windows(2).all(|p| p[0] <= p[1]),
            "sorted workload must be key-ordered"
        );
        // Pixel map permuted alongside: same multiset of pixels.
        let mut a = w.ray_pixel.clone();
        let mut b = s.ray_pixel.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn occlusion_image_averages_flags() {
        let (scene, bvh) = tiny_scene();
        let w = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        let all_occluded = vec![true; w.rays.len()];
        let img = w.occlusion_image(&all_occluded);
        assert!(img.pixels().iter().all(|&p| p == 0.0));
        let all_open = vec![false; w.rays.len()];
        let img = w.occlusion_image(&all_open);
        assert!(img.pixels().contains(&1.0));
    }

    #[test]
    #[should_panic(expected = "one flag per ray")]
    fn image_flag_length_checked() {
        let (scene, bvh) = tiny_scene();
        let w = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
        let _ = w.occlusion_image(&[true]);
    }
}
