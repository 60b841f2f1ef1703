//! Predictor invariants over generated workloads: transparency, the
//! oracle ladder, and Equation 1 accounting.

use rip_bvh::TraversalKind::{self, AnyHit, ClosestHit};
use rip_bvh::{Bvh, RayBatch};
use rip_core::{FunctionalReport, FunctionalSim, OracleMode, PredictorConfig, SimOptions};
use rip_testkit::gen::{self, SceneRecipe, ALL_RECIPES};
use rip_testkit::invariants;

fn workload(recipe: SceneRecipe, seed: u64) -> (Bvh, Vec<rip_math::Ray>) {
    let tris = recipe.triangles(150, seed);
    let bvh = Bvh::build(&tris);
    let mut rays = gen::hitting_rays(&tris, 150, seed);
    rays.extend(gen::ray_batch(&bvh.bounds(), 100, seed));
    (bvh, rays)
}

/// Runs `rays` through an [`eager`] functional simulator.
fn run(
    options: SimOptions,
    bvh: &Bvh,
    rays: &[rip_math::Ray],
    kind: TraversalKind,
) -> FunctionalReport {
    let sim = FunctionalSim::new(eager(), options);
    sim.run(bvh, &RayBatch::from_rays(rays), kind, None, None)
        .unwrap()
}

/// An eagerly-predicting configuration (no training delay) — the hardest
/// setting for transparency, since almost every ray goes through the
/// prediction path.
fn eager() -> PredictorConfig {
    PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    }
}

#[test]
fn occlusion_answers_identical_with_and_without_predictor() {
    for recipe in ALL_RECIPES {
        let (bvh, rays) = workload(recipe, 21);
        invariants::assert_occlusion_transparent(&bvh, &rays, eager());
    }
}

#[test]
fn closest_hits_identical_with_and_without_predictor() {
    for recipe in ALL_RECIPES {
        let (bvh, rays) = workload(recipe, 22);
        invariants::assert_closest_transparent(&bvh, &rays, eager());
    }
}

#[test]
fn transparency_holds_across_go_up_levels() {
    let (bvh, rays) = workload(SceneRecipe::Walls, 23);
    for go_up_level in 0..=5 {
        let config = PredictorConfig {
            go_up_level,
            ..eager()
        };
        invariants::assert_occlusion_transparent(&bvh, &rays, config);
        invariants::assert_closest_transparent(&bvh, &rays, config);
    }
}

#[test]
fn oracle_ladder_upper_bounds_real_predictor() {
    let (bvh, rays) = workload(SceneRecipe::Clustered, 24);
    let ladder = invariants::oracle_ladder(&bvh, &rays, PredictorConfig::paper_default());
    invariants::assert_oracle_ladder_bounds(&ladder, 0.02);
}

#[test]
fn oracles_preserve_answers_too() {
    // Idealized lookups change *cost*, never *answers*.
    let (bvh, rays) = workload(SceneRecipe::Grid, 25);
    for oracle in [
        OracleMode::Lookup,
        OracleMode::UnboundedTraining,
        OracleMode::ImmediateUpdates,
    ] {
        invariants::assert_occlusion_transparent(&bvh, &rays, eager().with_oracle(oracle));
    }
}

#[test]
fn eq1_accounting_balances_on_every_recipe() {
    for recipe in ALL_RECIPES {
        let (bvh, rays) = workload(recipe, 26);
        let report = run(SimOptions::default(), &bvh, &rays, AnyHit);
        invariants::assert_report_balances(&report);
    }
}

#[test]
fn eq1_accounting_balances_for_closest_hit_workloads() {
    let (bvh, rays) = workload(SceneRecipe::Soup, 27);
    let report = run(SimOptions::default(), &bvh, &rays, ClosestHit);
    invariants::assert_report_balances(&report);
}

#[test]
fn predictor_never_reports_spurious_savings_on_all_miss_workloads() {
    // Rays far outside the scene: no hits, so no training, no predictions,
    // and with-predictor cost must equal the baseline exactly.
    let tris = SceneRecipe::Soup.triangles(100, 28);
    let bvh = Bvh::build(&tris);
    let rays: Vec<rip_math::Ray> = (0..100)
        .map(|i| {
            rip_math::Ray::new(
                rip_math::Vec3::new(100.0 + i as f32, 50.0, 0.0),
                rip_math::Vec3::Y,
            )
        })
        .collect();
    let report = run(SimOptions::default(), &bvh, &rays, AnyHit);
    assert_eq!(report.prediction.hits, 0);
    assert_eq!(report.prediction.predicted, 0);
    assert_eq!(
        report.with_predictor.node_fetches(),
        report.baseline.node_fetches(),
        "an untrained predictor must cost exactly the baseline"
    );
    invariants::assert_report_balances(&report);
}

#[test]
fn multi_predictor_configurations_stay_transparent() {
    let (bvh, rays) = workload(SceneRecipe::Soup, 29);
    for num_predictors in [1, 2, 4] {
        let options = SimOptions {
            num_predictors,
            ..SimOptions::default()
        };
        let report = run(options, &bvh, &rays, AnyHit);
        invariants::assert_report_balances(&report);
        // Hit counts are a pure function of geometry, not of the predictor
        // sharding: every ray's answer is checked against plain traversal.
        let expected_hits = rays
            .iter()
            .filter(|r| {
                bvh.intersect(r, rip_bvh::TraversalKind::AnyHit)
                    .hit
                    .is_some()
            })
            .count() as u64;
        assert_eq!(report.prediction.hits, expected_hits);
    }
}
