//! Quickstart: build a benchmark scene, trace ambient-occlusion rays
//! through the ray intersection predictor and print the headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use ray_intersection_predictor::prelude::*;

fn main() {
    // 1. Build a procedural analog of the Crytek Sponza atrium and its BVH.
    let scene = SceneId::CrytekSponza.build_with_viewport(SceneScale::Tiny, 64, 64);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);
    println!(
        "scene: {} ({} triangles, BVH depth {})",
        scene.id,
        bvh.triangle_count(),
        bvh.depth()
    );

    // 2. Generate the paper's AO workload: one primary closest-hit ray per
    //    pixel, then four cosine-sampled hemisphere rays per hit point with
    //    lengths of 25-40% of the scene diagonal (§5.2).
    let workload = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
    println!(
        "workload: {} occlusion rays from {} hit points",
        workload.rays.len(),
        workload.primary_hits
    );

    // 3. Functional simulation: how much traversal does the predictor skip?
    let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
    let report = sim
        .run(&bvh, &workload.batch(), TraversalKind::AnyHit, None, None)
        .expect("no trace to reject");
    println!(
        "predictor: {:.1}% predicted, {:.1}% verified, {:.1}% fewer node fetches, {:.1}% fewer memory accesses",
        report.prediction.predicted_rate() * 100.0,
        report.prediction.verified_rate() * 100.0,
        report.node_savings() * 100.0,
        report.memory_savings() * 100.0,
    );

    // 4. Cycle-level timing: speedup over the baseline RT unit (Table 2 GPU).
    let baseline = Simulator::new(GpuConfig::baseline()).run(&bvh, &workload.rays);
    let predicted = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &workload.rays);
    println!(
        "timing: {} vs {} cycles -> {:.2}x speedup",
        baseline.cycles,
        predicted.cycles,
        predicted.speedup_over(&baseline)
    );

    // 5. Energy: the Table 4 breakdown.
    let model = EnergyModel::paper_45nm();
    let eb = model.breakdown(&baseline);
    let ep = model.breakdown(&predicted);
    println!(
        "energy: {:.1} nJ/ray baseline, {:+.1} nJ/ray with predictor",
        eb.total_nj_per_ray(),
        ep.total_nj_per_ray() - eb.total_nj_per_ray()
    );
}
