//! Cross-crate integration tests: the full pipeline from procedural scene
//! through BVH, predictor, timing simulator and energy model.

use ray_intersection_predictor::predictor::FunctionalReport;
use ray_intersection_predictor::prelude::*;

/// Runs an occlusion workload through the functional simulator.
fn run_ao(sim: &FunctionalSim, bvh: &Bvh, rays: &[Ray]) -> FunctionalReport {
    let batch = RayBatch::from_rays(rays);
    sim.run(bvh, &batch, TraversalKind::AnyHit, None, None)
        .expect("no trace to reject")
}

fn build(id: SceneId, viewport: u32) -> (Scene, Bvh) {
    let scene = id.build_with_viewport(SceneScale::Tiny, viewport, viewport);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);
    (scene, bvh)
}

#[test]
fn predictor_is_exact_for_every_scene() {
    // The central safety property: prediction changes performance, never
    // visibility. Checked per-ray on every benchmark scene.
    for id in SCENE_IDS {
        let (scene, bvh) = build(id, 24);
        let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
        let config = PredictorConfig {
            update_delay: 16,
            ..PredictorConfig::paper_default()
        };
        let mut predictor = Predictor::new(config, bvh.bounds());
        for ray in &rays {
            let reference = bvh.intersect(ray, TraversalKind::AnyHit).hit.is_some();
            let predicted = trace(&mut predictor, &bvh, ray, TraversalKind::AnyHit)
                .hit
                .is_some();
            assert_eq!(reference, predicted, "{id}: visibility diverged");
        }
    }
}

#[test]
fn timing_sim_agrees_with_functional_hits() {
    let (scene, bvh) = build(SceneId::CrytekSponza, 32);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    let functional_hits = rays
        .iter()
        .filter(|r| bvh.intersect(r, TraversalKind::AnyHit).hit.is_some())
        .count() as u64;
    for config in [GpuConfig::baseline(), GpuConfig::with_predictor()] {
        let report = Simulator::new(config).run(&bvh, &rays);
        assert_eq!(report.completed_rays, rays.len() as u64);
        assert_eq!(report.hits, functional_hits);
    }
}

#[test]
fn dense_ao_workload_trains_the_predictor() {
    let (scene, bvh) = build(SceneId::CrytekSponza, 48);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
    let report = run_ao(&sim, &bvh, &rays);
    assert!(
        report.prediction.predicted_rate() > 0.5,
        "p = {}",
        report.prediction.predicted_rate()
    );
    assert!(
        report.prediction.verified_rate() > 0.2,
        "v = {}",
        report.prediction.verified_rate()
    );
    assert!(
        report.node_savings() > 0.1,
        "node savings = {}",
        report.node_savings()
    );
}

#[test]
fn oracle_ladder_never_decreases_savings() {
    let (scene, bvh) = build(SceneId::FireplaceRoom, 32);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    let mut last = f64::MIN;
    for oracle in [
        OracleMode::None,
        OracleMode::Lookup,
        OracleMode::UnboundedTraining,
        OracleMode::ImmediateUpdates,
    ] {
        let sim = FunctionalSim::new(
            PredictorConfig::paper_default().with_oracle(oracle),
            SimOptions::default(),
        );
        let savings = run_ao(&sim, &bvh, &rays).memory_savings();
        assert!(
            savings >= last - 0.02,
            "{oracle:?} regressed the ladder: {savings} after {last}"
        );
        last = savings;
    }
}

#[test]
fn equation_one_tracks_measured_savings_on_suite() {
    let (scene, bvh) = build(SceneId::LivingRoom, 40);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
    let report = run_ao(&sim, &bvh, &rays);
    let est = report.eq1_model().estimated_nodes_skipped();
    let actual = report.actual_nodes_skipped_per_ray();
    // The paper's Table 5 shows ~15% model error; allow generous slack.
    assert!(
        (est - actual).abs() <= 0.5 * actual.abs().max(1.0),
        "Equation 1 estimate {est} vs measured {actual}"
    );
}

#[test]
fn energy_model_reports_savings_when_cycles_drop() {
    let (scene, bvh) = build(SceneId::CrytekSponza, 40);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    let base = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
    let pred = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
    let model = EnergyModel::paper_45nm();
    let eb = model.breakdown(&base);
    let ep = model.breakdown(&pred);
    assert!(eb.total_nj_per_ray() > 0.0);
    if pred.cycles < base.cycles {
        assert!(
            ep.total_nj_per_ray() < eb.total_nj_per_ray(),
            "shorter execution must save energy: {} vs {}",
            ep.total_nj_per_ray(),
            eb.total_nj_per_ray()
        );
    }
}

#[test]
fn sorted_rays_reduce_predictor_benefit() {
    // Figure 12's secondary observation: Morton-sorted rays trace similar
    // rays back-to-back, before the table can be trained by them.
    let (scene, bvh) = build(SceneId::CrytekSponza, 48);
    let workload = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
    let sorted = workload.sorted(&bvh);
    let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
    let unsorted_savings = run_ao(&sim, &bvh, &workload.rays).node_savings();
    let sorted_savings = run_ao(&sim, &bvh, &sorted.rays).node_savings();
    assert!(
        sorted_savings <= unsorted_savings + 0.05,
        "sorted ({sorted_savings}) should not beat unsorted ({unsorted_savings}) materially"
    );
}

#[test]
fn obj_round_trip_preserves_traversal_results() {
    // The OBJ path exists so the original paper models can be dropped in;
    // verify geometry survives a round trip bit-exactly enough to traverse.
    let (scene, bvh) = build(SceneId::Sibenik, 16);
    let mut buffer = Vec::new();
    ray_intersection_predictor::scene::obj::write_obj(&scene.mesh, &mut buffer).unwrap();
    let reloaded = ray_intersection_predictor::scene::obj::read_obj(buffer.as_slice()).unwrap();
    assert_eq!(reloaded.triangle_count(), scene.mesh.triangle_count());
    let tris: Vec<Triangle> = reloaded.triangles().collect();
    let bvh2 = Bvh::build(&tris);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    for ray in rays.iter().take(500) {
        assert_eq!(
            bvh.intersect(ray, TraversalKind::AnyHit).hit.is_some(),
            bvh2.intersect(ray, TraversalKind::AnyHit).hit.is_some(),
        );
    }
}
