//! Render an ambient-occlusion image with and without the predictor and
//! verify both produce identical visibility — the predictor is exact, it
//! only reorders work.
//!
//! Writes `ao_<scene>.pgm` to the working directory.
//!
//! Run with: `cargo run --release --example ambient_occlusion [-- <scene-code>]`

use ray_intersection_predictor::prelude::*;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "FR".to_string());
    let id = SCENE_IDS
        .iter()
        .copied()
        .find(|s| s.code().eq_ignore_ascii_case(&wanted))
        .unwrap_or(SceneId::FireplaceRoom);

    let scene = id.build_with_viewport(SceneScale::Tiny, 96, 96);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);
    let workload = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
    println!("{}: {} AO rays", id, workload.rays.len());

    // Baseline: plain any-hit traversal per ray.
    let baseline_flags: Vec<bool> = workload
        .rays
        .iter()
        .map(|r| bvh.intersect(r, TraversalKind::AnyHit).hit.is_some())
        .collect();

    // Predictor path: same rays through the §3 flow.
    let config = PredictorConfig {
        update_delay: 32,
        ..PredictorConfig::paper_default()
    };
    let mut predictor = Predictor::new(config, bvh.bounds());
    let mut predicted_flags = Vec::with_capacity(workload.rays.len());
    let mut skipped_fetches = 0i64;
    for ray in &workload.rays {
        let trace = trace(&mut predictor, &bvh, ray, TraversalKind::AnyHit);
        predicted_flags.push(trace.hit.is_some());
        if trace.outcome == RayOutcome::Verified {
            skipped_fetches += 1;
        }
    }
    assert_eq!(
        baseline_flags, predicted_flags,
        "prediction must never change visibility results"
    );
    println!(
        "visibility identical; {} rays verified ({:.1}%), {:.1}% of rays hit",
        skipped_fetches,
        predictor.stats().verified_rate() * 100.0,
        predictor.stats().hit_rate() * 100.0
    );

    let image = workload.occlusion_image(&predicted_flags);
    let path = format!("ao_{}.pgm", id.code().to_lowercase());
    image.write_pgm(BufWriter::new(File::create(&path)?))?;
    println!("wrote {path} (mean brightness {:.3})", image.mean());
    Ok(())
}
