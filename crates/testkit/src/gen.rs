//! Seeded random generators for scenes, cameras and ray batches.
//!
//! Everything here is a pure function of its seed, so a failing case can be
//! replayed by name. The recipes deliberately cover the geometry the
//! kernels find hardest: degenerate (zero-area) triangles, axis-aligned
//! quads whose AABBs are flat in one dimension, and shared edges/vertices
//! that produce exactly-equal hit distances.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_math::{sampling, Aabb, Ray, Triangle, Vec3};
use rip_scene::Camera;

/// A deterministic generator for `seed`.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Families of generated test geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SceneRecipe {
    /// Independent random triangles — no structure at all.
    Soup,
    /// An axis-aligned floor grid of shared-vertex quads; every leaf AABB
    /// is flat (zero extent in Y).
    Grid,
    /// Parallel axis-aligned walls at several depths: flat AABBs plus many
    /// exactly-equal hit distances along shared edges.
    Walls,
    /// Tight clusters separated by empty space — deep, skewed trees.
    Clustered,
    /// Soup mixed with zero-area (collinear and repeated-vertex) triangles
    /// and extreme slivers.
    Degenerate,
}

/// Every recipe, for exhaustive sweeps.
pub const ALL_RECIPES: [SceneRecipe; 5] = [
    SceneRecipe::Soup,
    SceneRecipe::Grid,
    SceneRecipe::Walls,
    SceneRecipe::Clustered,
    SceneRecipe::Degenerate,
];

impl SceneRecipe {
    /// Stable name for test diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SceneRecipe::Soup => "soup",
            SceneRecipe::Grid => "grid",
            SceneRecipe::Walls => "walls",
            SceneRecipe::Clustered => "clustered",
            SceneRecipe::Degenerate => "degenerate",
        }
    }

    /// Generates roughly `n` triangles from this recipe.
    pub fn triangles(self, n: usize, seed: u64) -> Vec<Triangle> {
        let mut r = rng(seed ^ (self as u64) << 32);
        match self {
            SceneRecipe::Soup => soup(&mut r, n),
            SceneRecipe::Grid => grid(n),
            SceneRecipe::Walls => walls(n),
            SceneRecipe::Clustered => clustered(&mut r, n),
            SceneRecipe::Degenerate => degenerate(&mut r, n),
        }
    }
}

fn soup(r: &mut SmallRng, n: usize) -> Vec<Triangle> {
    (0..n)
        .map(|_| {
            let base = rand_vec3(r, -5.0..5.0);
            let e1 = rand_vec3(r, -1.0..1.0);
            let e2 = rand_vec3(r, -1.0..1.0);
            Triangle::new(base, base + e1, base + e2)
        })
        .collect()
}

/// A `side × side` floor of quads in the y = 0 plane with shared vertices.
fn grid(n: usize) -> Vec<Triangle> {
    let side = ((n / 2).max(1) as f32).sqrt().ceil() as i32;
    let mut tris = Vec::new();
    for i in 0..side {
        for j in 0..side {
            let o = Vec3::new(i as f32, 0.0, j as f32);
            tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
            tris.push(Triangle::new(
                o + Vec3::X,
                o + Vec3::X + Vec3::Z,
                o + Vec3::Z,
            ));
        }
    }
    tris
}

/// Parallel walls at z = 1, 2, 3 … sharing edges within each wall.
fn walls(n: usize) -> Vec<Triangle> {
    let per_wall = (n / 3).max(2);
    let side = ((per_wall / 2).max(1) as f32).sqrt().ceil() as i32;
    let mut tris = Vec::new();
    for z in 1..=3 {
        for i in 0..side {
            for j in 0..side {
                let o = Vec3::new(i as f32, j as f32, z as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Y));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Y,
                    o + Vec3::Y,
                ));
            }
        }
    }
    tris
}

fn clustered(r: &mut SmallRng, n: usize) -> Vec<Triangle> {
    let clusters = 5usize;
    let mut tris = Vec::new();
    for _ in 0..clusters {
        let center = rand_vec3(r, -20.0..20.0);
        for _ in 0..n / clusters {
            let base = center + rand_vec3(r, -0.5..0.5);
            let e1 = rand_vec3(r, -0.2..0.2);
            let e2 = rand_vec3(r, -0.2..0.2);
            tris.push(Triangle::new(base, base + e1, base + e2));
        }
    }
    tris
}

fn degenerate(r: &mut SmallRng, n: usize) -> Vec<Triangle> {
    let mut tris = soup(r, n.saturating_sub(n / 4));
    for k in 0..n / 4 {
        let base = rand_vec3(r, -5.0..5.0);
        let e = rand_vec3(r, -1.0..1.0);
        tris.push(match k % 3 {
            // Collinear: zero area along a random segment.
            0 => Triangle::new(base, base + e, base + e * 2.0),
            // Repeated vertex.
            1 => Triangle::new(base, base, base + e),
            // Extreme sliver: one edge 10_000× shorter than the other.
            _ => Triangle::new(base, base + e, base + e * 1.0001 + Vec3::X * 1e-4),
        });
    }
    tris
}

/// A mixed batch of `n` rays probing `bounds`: random interior rays,
/// finite segments, axis-aligned grazing rays (which slide along flat
/// AABBs), and outside-in rays toward the center.
pub fn ray_batch(bounds: &Aabb, n: usize, seed: u64) -> Vec<Ray> {
    let mut r = rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let pad = bounds.diagonal_length().max(1.0);
    let lo = bounds.min - Vec3::splat(pad * 0.25);
    let hi = bounds.max + Vec3::splat(pad * 0.25);
    let inside = |r: &mut SmallRng| {
        Vec3::new(
            r.gen_range(lo.x..hi.x.max(lo.x + 1e-3)),
            r.gen_range(lo.y..hi.y.max(lo.y + 1e-3)),
            r.gen_range(lo.z..hi.z.max(lo.z + 1e-3)),
        )
    };
    (0..n)
        .map(|i| {
            let o = inside(&mut r);
            match i % 4 {
                0 => Ray::new(o, sampling::uniform_sphere(r.gen(), r.gen())),
                1 => Ray::segment(o, sampling::uniform_sphere(r.gen(), r.gen()), pad),
                2 => {
                    // Axis-aligned: grazes flat geometry edge-on.
                    let axis = [Vec3::X, Vec3::Y, Vec3::Z][i / 4 % 3];
                    let sign = if r.gen::<f32>() < 0.5 { 1.0 } else { -1.0 };
                    Ray::new(o, axis * sign)
                }
                _ => {
                    let outside =
                        bounds.center() + sampling::uniform_sphere(r.gen(), r.gen()) * pad;
                    Ray::new(outside, (inside(&mut r) - outside).normalized())
                }
            }
        })
        .collect()
}

/// Rays aimed at interior points of non-degenerate triangles — guaranteed
/// (robust) hits, useful where a property needs a tolerance-stable target.
pub fn hitting_rays(tris: &[Triangle], n: usize, seed: u64) -> Vec<Ray> {
    let mut r = rng(seed ^ 0xA5A5_5A5A);
    let solid: Vec<&Triangle> = tris.iter().filter(|t| t.area() > 1e-3).collect();
    assert!(!solid.is_empty(), "recipe produced no usable triangles");
    (0..n)
        .map(|_| {
            // Rejection-sample until the constructed ray demonstrably hits
            // its target triangle, so callers can rely on a robust hit.
            loop {
                let tri = solid[r.gen_range(0..solid.len())];
                // Interior barycentric point with a healthy edge margin.
                let (u, v) = (r.gen_range(0.15..0.55), r.gen_range(0.15..0.35));
                let target = tri.a * (1.0 - u - v) + tri.b * u + tri.c * v;
                let dir = sampling::uniform_sphere(r.gen(), r.gen());
                let origin = target - dir * r.gen_range(1.0..6.0);
                let ray = Ray::new(origin, dir);
                if tri.intersects(&ray) {
                    return ray;
                }
            }
        })
        .collect()
}

/// Rays aimed *exactly* at triangle vertices and edge midpoints: on meshes
/// with shared vertices these produce several hits at the identical `t`,
/// exercising the tie-break rule.
pub fn edge_rays(tris: &[Triangle], n: usize, seed: u64) -> Vec<Ray> {
    let mut r = rng(seed ^ 0x5A5A_A5A5);
    assert!(!tris.is_empty());
    (0..n)
        .map(|i| {
            let tri = &tris[r.gen_range(0..tris.len())];
            let target = match i % 6 {
                0 => tri.a,
                1 => tri.b,
                2 => tri.c,
                3 => (tri.a + tri.b) * 0.5,
                4 => (tri.b + tri.c) * 0.5,
                _ => (tri.a + tri.c) * 0.5,
            };
            let dir = sampling::uniform_sphere(r.gen(), r.gen());
            Ray::new(target - dir * 3.0, dir)
        })
        .collect()
}

/// `rays` with every odd-indexed ray replaced by a degenerate copy of
/// itself, cycling through eight defects: a NaN, +∞ or −∞ origin
/// coordinate; a NaN, zero, all-axis denormal or single-axis denormal
/// direction; and an empty interval (`t_min > t_max`). The ordinary rays
/// in between keep a batch's warps, hashes and traces realistic.
pub fn degenerate_mix(rays: Vec<Ray>) -> Vec<Ray> {
    let denormal = f32::MIN_POSITIVE / 2.0;
    rays.into_iter()
        .enumerate()
        .map(|(i, ray)| {
            if i % 2 == 0 {
                return ray;
            }
            let o = ray.origin;
            let with_origin = |origin| Ray { origin, ..ray };
            let with_direction = |direction| Ray { direction, ..ray };
            match (i / 2) % 8 {
                0 => with_origin(Vec3::new(f32::NAN, o.y, o.z)),
                1 => with_origin(Vec3::new(o.x, f32::INFINITY, o.z)),
                2 => with_origin(Vec3::new(o.x, o.y, f32::NEG_INFINITY)),
                3 => with_direction(Vec3::new(0.0, f32::NAN, 0.0)),
                4 => with_direction(Vec3::ZERO),
                5 => with_direction(Vec3::splat(denormal)),
                6 => with_direction(Vec3::new(0.0, denormal, 0.0)),
                _ => Ray::with_interval(o, ray.direction, 5.0, 1.0),
            }
        })
        .collect()
}

/// A deterministic camera framing `bounds` from a seeded direction.
pub fn camera(bounds: &Aabb, width: u32, height: u32, seed: u64) -> Camera {
    let mut r = rng(seed ^ 0xCAFE);
    let center = bounds.center();
    let dist = bounds.diagonal_length().max(1.0) * 1.5;
    let dir = sampling::uniform_sphere(r.gen(), r.gen());
    let position = center + dir * dist;
    Camera::look_at(position, center, Vec3::Y, 55.0, width, height)
}

fn rand_vec3(r: &mut SmallRng, range: std::ops::Range<f32>) -> Vec3 {
    Vec3::new(
        r.gen_range(range.clone()),
        r.gen_range(range.clone()),
        r.gen_range(range),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for recipe in ALL_RECIPES {
            assert_eq!(recipe.triangles(64, 9), recipe.triangles(64, 9));
        }
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE * 4.0);
        assert_eq!(ray_batch(&b, 32, 3), ray_batch(&b, 32, 3));
        assert_ne!(ray_batch(&b, 32, 3), ray_batch(&b, 32, 4));
    }

    #[test]
    fn degenerate_recipe_contains_zero_area_triangles() {
        let tris = SceneRecipe::Degenerate.triangles(80, 1);
        assert!(tris.iter().any(|t| t.area() == 0.0));
        assert!(tris.iter().any(|t| t.area() > 0.0));
    }

    #[test]
    fn grid_recipe_has_flat_bounds() {
        let tris = SceneRecipe::Grid.triangles(32, 0);
        for t in &tris {
            let d = t.bounds().diagonal();
            assert_eq!(d.y, 0.0, "grid triangles must lie in y = 0");
        }
    }

    #[test]
    fn hitting_rays_actually_hit() {
        for recipe in ALL_RECIPES {
            let tris = recipe.triangles(100, 5);
            let bvh = rip_bvh::Bvh::build(&tris);
            for ray in hitting_rays(&tris, 40, 5) {
                assert!(
                    bvh.intersect(&ray, rip_bvh::TraversalKind::AnyHit)
                        .hit
                        .is_some(),
                    "{}: constructed hitting ray missed",
                    recipe.name()
                );
            }
        }
    }

    #[test]
    fn camera_is_deterministic_and_frames_bounds() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE * 8.0);
        let cam = camera(&b, 32, 32, 7);
        assert_eq!(cam, camera(&b, 32, 32, 7));
        // The center of the viewport looks at the box.
        let ray = cam.ray_through(0.5, 0.5);
        assert!(b.intersect(&ray).is_some(), "central ray must see the box");
    }
}
