//! Differential oracle suite: four-way kernel agreement on every recipe.
//!
//! Closest hits are compared *exactly* (same `t` bits, same triangle
//! index) — the kernels share the tie-break rule of
//! `rip_bvh::Hit::closer_than`, so visitation order must not matter.

use rip_bvh::ript::RayTraceSet;
use rip_bvh::{
    RayBatch, StacklessKernel, SteppableKernel, TraversalKernel, TraversalKind, WhileWhileKernel,
    WideKernel,
};
use rip_core::{FunctionalSim, Predicted, PredictorConfig, SimOptions};
use rip_gpusim::{GpuConfig, Simulator};
use rip_math::{Ray, Triangle, Vec3};
use rip_testkit::diff::{self, assert_batch_matches_scalar, assert_kernels_agree, DiffOracle};
use rip_testkit::gen::{self, SceneRecipe};
use std::sync::Arc;

/// Per-recipe batch: mixed probing rays + guaranteed hits + tie-break
/// provokers aimed exactly at shared vertices and edge midpoints.
fn batch_for(recipe: SceneRecipe, seed: u64) -> (Vec<Triangle>, Vec<Ray>) {
    let tris = recipe.triangles(180, seed);
    let bvh = rip_bvh::Bvh::build(&tris);
    let mut rays = gen::ray_batch(&bvh.bounds(), 120, seed);
    rays.extend(gen::hitting_rays(&tris, 60, seed));
    rays.extend(gen::edge_rays(&tris, 60, seed));
    (tris, rays)
}

#[test]
fn kernels_agree_on_soup() {
    for seed in 0..3 {
        let (tris, rays) = batch_for(SceneRecipe::Soup, seed);
        assert_kernels_agree("soup", &tris, &rays);
    }
}

#[test]
fn kernels_agree_on_flat_grid() {
    let (tris, rays) = batch_for(SceneRecipe::Grid, 1);
    assert_kernels_agree("grid", &tris, &rays);
}

#[test]
fn kernels_agree_on_shared_edge_walls() {
    let (tris, rays) = batch_for(SceneRecipe::Walls, 2);
    assert_kernels_agree("walls", &tris, &rays);
}

#[test]
fn kernels_agree_on_clustered_scene() {
    let (tris, rays) = batch_for(SceneRecipe::Clustered, 3);
    assert_kernels_agree("clustered", &tris, &rays);
}

#[test]
fn kernels_agree_on_degenerate_triangles() {
    for seed in 0..3 {
        let (tris, rays) = batch_for(SceneRecipe::Degenerate, seed);
        assert_kernels_agree("degenerate", &tris, &rays);
    }
}

#[test]
fn equal_t_ties_resolve_to_lowest_triangle_index() {
    // Rays through shared wall edges hit two (or more) triangles at the
    // identical t; every kernel must report the lowest original index.
    let tris = SceneRecipe::Walls.triangles(120, 4);
    let oracle = DiffOracle::new(&tris);
    let mut observed_tie = false;
    for ray in gen::edge_rays(&tris, 200, 4) {
        let a = oracle.closest_answers(&ray);
        if let Some((winner, t)) = a.brute {
            // Count how many triangles intersect at exactly the winning t.
            let ties = tris
                .iter()
                .enumerate()
                .filter(|(_, tri)| tri.intersect(&ray).is_some_and(|h| h.t == t))
                .map(|(i, _)| i as u32)
                .collect::<Vec<_>>();
            if ties.len() > 1 {
                observed_tie = true;
                assert_eq!(
                    Some(&winner),
                    ties.iter().min(),
                    "tie at t = {t} must resolve to the smallest index, got {winner} of {ties:?}"
                );
            }
        }
        oracle.check_ray(&ray).unwrap();
    }
    assert!(
        observed_tie,
        "edge rays on shared-edge walls should produce at least one exact tie"
    );
}

#[test]
fn grazing_axis_rays_agree_on_flat_geometry() {
    // Rays travelling inside the y = 0 plane of the grid graze flat AABBs
    // edge-on — the classic slab-test corner case.
    let tris = SceneRecipe::Grid.triangles(128, 5);
    let oracle = DiffOracle::new(&tris);
    let mut r = gen::rng(99);
    use rand::Rng;
    for i in 0..150 {
        let dir = [Vec3::X, Vec3::Z, -Vec3::X, -Vec3::Z][i % 4];
        let origin = Vec3::new(
            r.gen_range(-2.0..10.0),
            // Exactly in, just above, and just below the plane.
            [0.0, 1e-6, -1e-6][i % 3],
            r.gen_range(-2.0..10.0),
        );
        oracle.check_ray(&Ray::new(origin, dir)).unwrap();
    }
}

#[test]
fn single_triangle_and_tiny_trees_agree() {
    let single = vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)];
    let rays = vec![
        Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z),
        Ray::new(Vec3::new(5.0, 5.0, -1.0), Vec3::Z),
        Ray::new(Vec3::new(0.2, 0.2, 1.0), -Vec3::Z),
    ];
    assert_kernels_agree("single", &single, &rays);

    for n in [2, 3, 5, 9] {
        let tris = SceneRecipe::Soup.triangles(n, n as u64);
        let bvh = rip_bvh::Bvh::build(&tris);
        let rays = gen::ray_batch(&bvh.bounds(), 80, n as u64);
        assert_kernels_agree("tiny", &tris, &rays);
    }
}

#[test]
fn finite_segments_and_custom_intervals_agree() {
    let tris = SceneRecipe::Soup.triangles(150, 11);
    let oracle = DiffOracle::new(&tris);
    let mut r = gen::rng(11);
    use rand::Rng;
    for _ in 0..150 {
        let o = Vec3::new(
            r.gen_range(-8.0..8.0),
            r.gen_range(-8.0..8.0),
            r.gen_range(-8.0..8.0),
        );
        let d = rip_math::sampling::uniform_sphere(r.gen(), r.gen());
        let (t0, t1) = (r.gen_range(0.0..3.0f32), r.gen_range(3.0..25.0f32));
        oracle.check_ray(&Ray::with_interval(o, d, t0, t1)).unwrap();
    }
}

/// A recipe's batch with every other ray degenerate ([`gen::degenerate_mix`]).
fn degenerate_batch(recipe: SceneRecipe) -> (Vec<Triangle>, Vec<Ray>) {
    let (tris, rays) = batch_for(recipe, 6);
    (tris, gen::degenerate_mix(rays))
}

/// A predictor that trains on every hit at once, so the second pass over
/// a batch probes predictions for the degenerate rays too.
fn eager() -> PredictorConfig {
    PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    }
}

/// The hit a ray's answer is compared on: the exact closest hit, or
/// whether an any-hit query found something.
fn answer(kind: TraversalKind, result: &rip_bvh::TraversalResult) -> Option<(u32, u32)> {
    match kind {
        TraversalKind::ClosestHit => result.hit.map(|h| (h.tri_index, h.t.to_bits())),
        TraversalKind::AnyHit => result.hit.map(|_| (0, 0)),
    }
}

#[test]
fn degenerate_rays_agree_across_kernels_and_batches() {
    for recipe in gen::ALL_RECIPES {
        let (tris, rays) = degenerate_batch(recipe);
        assert_kernels_agree(recipe.name(), &tris, &rays);
        assert_batch_matches_scalar(recipe.name(), &tris, &rays);
    }
}

#[test]
fn degenerate_rays_keep_their_answers_under_the_predictor() {
    for recipe in gen::ALL_RECIPES {
        let (tris, rays) = degenerate_batch(recipe);
        let oracle = DiffOracle::new(&tris);
        let (bvh, wide) = (&oracle.bvh, &oracle.wide);
        let batch = RayBatch::from_rays(&rays);
        let predicted: Vec<Box<dyn TraversalKernel + '_>> = vec![
            Box::new(Predicted::new(bvh, eager(), WhileWhileKernel::new(bvh))),
            Box::new(Predicted::new(bvh, eager(), StacklessKernel::new(bvh))),
            Box::new(Predicted::new(bvh, eager(), WideKernel::new(wide, bvh))),
            Box::new(Predicted::new(bvh, eager(), SteppableKernel::new(bvh))),
        ];
        for (mut plain, mut predicted) in diff::kernels(&oracle).into_iter().zip(predicted) {
            for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
                let want = plain.trace_batch(&batch, kind);
                // Cold (training), then warm (probing predictions).
                for pass in 0..2 {
                    let got = predicted.trace_batch(&batch, kind);
                    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            answer(kind, got),
                            answer(kind, want),
                            "[{}] {} ray {i} ({kind:?}) pass {pass}: the predictor changed the answer",
                            recipe.name(),
                            plain.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn degenerate_rays_replay_as_they_ran_live() {
    for recipe in gen::ALL_RECIPES {
        let label = recipe.name();
        let (tris, rays) = degenerate_batch(recipe);
        let bvh = rip_bvh::Bvh::build(&tris);
        let batch = RayBatch::from_rays(&rays);
        let trace = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
        let any_hit = |r: &&Ray| bvh.intersect_brute_force(r, TraversalKind::AnyHit);
        let hits = rays.iter().filter(|r| any_hit(r).is_some()).count() as u64;

        let functional = FunctionalSim::new(eager(), SimOptions::default());
        let live = functional.run_batch(&bvh, &batch);
        let replayed = functional
            .run_batch_replay(&bvh, &batch, &trace)
            .expect("the trace matches its batch");
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"), "[{label}]");
        assert_eq!(live.prediction.hits, hits, "[{label}]");

        let obs = Arc::new(rip_obs::Obs::new(rip_obs::ClockMode::Logical));
        for config in [GpuConfig::baseline(), GpuConfig::with_predictor()] {
            let live = Simulator::new(config.clone()).run_batch(&bvh, &batch);
            let replayed = Simulator::new(config.clone())
                .with_obs(Arc::clone(&obs))
                .with_trace(Arc::clone(&trace))
                .run_batch(&bvh, &batch);
            assert_eq!(format!("{live:?}"), format!("{replayed:?}"), "[{label}]");
            // Every warp's full legs traced ahead on the look-ahead thread.
            let fed = Simulator::new(config).run_batch_fed(&bvh, &batch, &|_| true);
            assert_eq!(format!("{live:?}"), format!("{fed:?}"), "[{label}] fed");
            assert_eq!(live.completed_rays, rays.len() as u64, "[{label}]");
            assert_eq!(live.hits, hits, "[{label}]");
        }
        assert_eq!(obs.get("gpusim.trace.rejected"), 0, "[{label}] ran live");
    }
}
