//! §6.4 in action: apply the predictor to closest-hit global-illumination
//! paths, where predicted intersections trim each ray's maximum length
//! before the authoritative traversal.
//!
//! Run with: `cargo run --release --example global_illumination`

use ray_intersection_predictor::prelude::*;

fn main() {
    let scene = SceneId::LivingRoom.build_with_viewport(SceneScale::Tiny, 48, 48);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);

    let gi = GiWorkload::generate(
        &scene,
        &bvh,
        &GiConfig {
            bounces: 3,
            seed: 7,
        },
    );
    println!(
        "GI path workload: {} segments over generations {:?}",
        gi.rays.len(),
        gi.generation_sizes
    );

    // Closest-hit rays predict the leaf itself (Go Up Level 0) — the
    // prediction only supplies a conservative t bound.
    let config = PredictorConfig {
        go_up_level: 0,
        update_delay: 32,
        ..PredictorConfig::paper_default()
    };
    let mut predictor = Predictor::new(config, bvh.bounds());
    let mut exact_matches = 0usize;
    let mut trimmed = 0usize;
    for ray in &gi.rays {
        let reference = bvh.intersect(ray, TraversalKind::ClosestHit).hit;
        let trace = trace(&mut predictor, &bvh, ray, TraversalKind::ClosestHit);
        match (reference, trace.hit) {
            (None, None) => exact_matches += 1,
            (Some(a), Some(b)) if (a.t - b.t).abs() <= 1e-3 * (1.0 + a.t) => {
                exact_matches += 1;
            }
            (a, b) => panic!("closest-hit mismatch: reference {a:?} vs predicted {b:?}"),
        }
        if trace.outcome == RayOutcome::Verified {
            trimmed += 1;
        }
    }
    let stats = predictor.stats();
    println!(
        "all {} segments produced exact closest hits; {} rays ({:.1}%) were trimmed by a prediction",
        exact_matches,
        trimmed,
        100.0 * trimmed as f64 / gi.rays.len() as f64
    );
    println!(
        "predicted {:.1}% / verified {:.1}% (paper: the occlusion-oriented predictor still gives ~4% GI speedup)",
        stats.predicted_rate() * 100.0,
        stats.verified_rate() * 100.0
    );
}
