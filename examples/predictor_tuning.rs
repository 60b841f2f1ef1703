//! Explore the predictor design space interactively: sweep Go Up Level,
//! hash tightness and table shape on one scene and print how the Equation 1
//! terms move — a miniature of the paper's §6.1–6.2 studies.
//!
//! Run with: `cargo run --release --example predictor_tuning`

use ray_intersection_predictor::prelude::*;

fn run(config: PredictorConfig, bvh: &Bvh, rays: &[Ray]) -> String {
    let sim = FunctionalSim::new(config, SimOptions::default());
    let batch = RayBatch::from_rays(rays);
    let report = sim
        .run(bvh, &batch, TraversalKind::AnyHit, None, None)
        .expect("no trace to reject");
    let eq1 = report.eq1_model();
    format!(
        "p={:.2} v={:.2} k={:.1} m={:.2} | est. skip {:.2} vs actual {:.2} nodes/ray | mem savings {:+.1}%",
        eq1.p,
        eq1.v,
        eq1.k,
        eq1.m,
        eq1.estimated_nodes_skipped(),
        report.actual_nodes_skipped_per_ray(),
        report.memory_savings() * 100.0
    )
}

fn main() {
    let scene = SceneId::CountryKitchen.build_with_viewport(SceneScale::Tiny, 64, 64);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    println!("scene: {} | {} AO rays\n", scene.id, rays.len());

    println!("Go Up Level sweep (Figure 14):");
    for gul in 0..=5 {
        let config = PredictorConfig {
            go_up_level: gul,
            ..PredictorConfig::paper_default()
        };
        println!("  level {gul}: {}", run(config, &bvh, &rays));
    }

    println!("\nHash tightness (Table 8a):");
    for (ob, db) in [(3u32, 3u32), (4, 3), (5, 3), (5, 5)] {
        let config = PredictorConfig {
            hash: HashFunction::GridSpherical {
                origin_bits: ob,
                direction_bits: db,
            },
            ..PredictorConfig::paper_default()
        };
        println!(
            "  {ob} origin / {db} direction bits: {}",
            run(config, &bvh, &rays)
        );
    }

    println!("\nTable shape (Tables 6 & 7):");
    for (entries, ways) in [(512usize, 4usize), (1024, 4), (1024, 1), (2048, 8)] {
        let config = PredictorConfig {
            entries,
            ways,
            ..PredictorConfig::paper_default()
        };
        println!(
            "  {entries} entries, {ways}-way ({} bytes): {}",
            config.table_bytes(),
            run(config, &bvh, &rays)
        );
    }

    println!("\nOracle ladder (Figure 2):");
    for oracle in [
        OracleMode::None,
        OracleMode::Lookup,
        OracleMode::UnboundedTraining,
        OracleMode::ImmediateUpdates,
    ] {
        let config = PredictorConfig::paper_default().with_oracle(oracle);
        println!(
            "  {:>9}: {}",
            format!("{oracle:?}"),
            run(config, &bvh, &rays)
        );
    }
}
