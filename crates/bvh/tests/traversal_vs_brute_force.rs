//! Property tests: BVH traversal must agree with brute-force intersection
//! over every triangle, for both query kinds and both split methods.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_bvh::{Bvh, BvhBuilder, SplitMethod, TraversalKind};
use rip_math::{Ray, Triangle, Vec3};

fn random_soup(n: usize, seed: u64) -> Vec<Triangle> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let base = Vec3::new(
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
            );
            let e1 = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            let e2 = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            Triangle::new(base, base + e1, base + e2)
        })
        .collect()
}

fn random_ray(rng: &mut SmallRng) -> Ray {
    let o = Vec3::new(
        rng.gen_range(-8.0..8.0),
        rng.gen_range(-8.0..8.0),
        rng.gen_range(-8.0..8.0),
    );
    let d = rip_math::sampling::uniform_sphere(rng.gen(), rng.gen());
    Ray::segment(o, d, rng.gen_range(1.0..20.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closest_hit_matches_brute_force(
        scene_seed in 0u64..500,
        ray_seed in 0u64..500,
        n in 1usize..120,
    ) {
        let tris = random_soup(n, scene_seed);
        let bvh = Bvh::build(&tris);
        bvh.validate().unwrap();
        let mut rng = SmallRng::seed_from_u64(ray_seed);
        for _ in 0..24 {
            let ray = random_ray(&mut rng);
            let fast = bvh.intersect(&ray, TraversalKind::ClosestHit);
            let brute = bvh.intersect_brute_force(&ray, TraversalKind::ClosestHit);
            match (fast.hit, brute) {
                (None, None) => {}
                (Some(h), Some((_, bt))) => {
                    // t must match; the triangle index may differ on exact
                    // ties or coplanar overlaps.
                    prop_assert!((h.t - bt).abs() < 1e-3 * (1.0 + bt),
                        "closest t mismatch: bvh {} vs brute {}", h.t, bt);
                }
                (f, b) => prop_assert!(false, "hit disagreement: bvh {f:?} vs brute {b:?}"),
            }
        }
    }

    #[test]
    fn any_hit_matches_brute_force_predicate(
        scene_seed in 500u64..1000,
        ray_seed in 0u64..500,
        n in 1usize..120,
    ) {
        let tris = random_soup(n, scene_seed);
        let bvh = Bvh::build(&tris);
        let mut rng = SmallRng::seed_from_u64(ray_seed);
        for _ in 0..24 {
            let ray = random_ray(&mut rng);
            let fast = bvh.intersect(&ray, TraversalKind::AnyHit).hit.is_some();
            let brute = bvh.intersect_brute_force(&ray, TraversalKind::AnyHit).is_some();
            prop_assert_eq!(fast, brute, "any-hit disagreement");
        }
    }

    #[test]
    fn split_methods_agree_on_results(
        scene_seed in 0u64..200,
        n in 2usize..80,
    ) {
        let tris = random_soup(n, scene_seed);
        let sah = BvhBuilder::new().split_method(SplitMethod::BinnedSah).build(&tris);
        let median = BvhBuilder::new().split_method(SplitMethod::Median).build(&tris);
        sah.validate().unwrap();
        median.validate().unwrap();
        let mut rng = SmallRng::seed_from_u64(scene_seed ^ 0xF00D);
        for _ in 0..16 {
            let ray = random_ray(&mut rng);
            let a = sah.intersect(&ray, TraversalKind::ClosestHit).hit.map(|h| h.t);
            let b = median.intersect(&ray, TraversalKind::ClosestHit).hit.map(|h| h.t);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-3 * (1.0 + x)),
                other => prop_assert!(false, "split methods disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn seeded_traversal_from_true_leaf_always_verifies(
        scene_seed in 0u64..300,
        ray_seed in 0u64..300,
        n in 4usize..100,
    ) {
        // The core predictor guarantee: starting traversal from the leaf
        // that actually contains a hit triangle must find an intersection.
        let tris = random_soup(n, scene_seed);
        let bvh = Bvh::build(&tris);
        let mut rng = SmallRng::seed_from_u64(ray_seed);
        for _ in 0..16 {
            let ray = random_ray(&mut rng);
            if let Some(hit) = bvh.intersect(&ray, TraversalKind::AnyHit).hit {
                let r = rip_bvh::Traversal::from_nodes(TraversalKind::AnyHit, &[hit.leaf])
                    .run(&bvh, &ray);
                prop_assert!(r.hit.is_some(), "true-leaf prediction failed to verify");
                prop_assert!(r.stats.node_fetches() <= bvh.depth() as u64 + 2);
            }
        }
    }
}

#[test]
fn scene_suite_bvh_depths_are_plausible() {
    use rip_scene::{SceneScale, SCENE_IDS};
    for id in SCENE_IDS {
        let mesh = id.build_mesh(SceneScale::Tiny);
        let tris: Vec<Triangle> = mesh.triangles().collect();
        let bvh = Bvh::build(&tris);
        bvh.validate().unwrap();
        let log2n = (tris.len() as f32).log2();
        assert!(
            (bvh.depth() as f32) >= log2n * 0.5 && (bvh.depth() as f32) <= log2n * 4.0 + 8.0,
            "{id}: depth {} implausible for {} tris",
            bvh.depth(),
            tris.len()
        );
    }
}
