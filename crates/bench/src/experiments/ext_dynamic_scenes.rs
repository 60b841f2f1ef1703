//! Extension (§8 future work): dynamic scenes and animation.
//!
//! The paper's conclusion suggests that "predictor states could
//! potentially be preserved between frames and the predictor retrained
//! only for dynamic elements". This experiment evaluates that hypothesis:
//! a benchmark scene animates a subset of its triangles over several
//! frames, the BVH is *refitted* each frame (node ids stable), and the
//! predictor runs under two policies — flushed every frame versus
//! persisted across frames.

use crate::{fmt_pct, Context, Report, Table};
use rip_bvh::TraversalKind;
use rip_core::{trace, PredictionStats, Predictor, PredictorConfig};
use rip_render::{AnimatedScene, AoConfig, AoWorkload};

/// Frames simulated per scene.
const FRAMES: u32 = 4;

/// Runs the cross-frame persistence study on a subset of scenes.
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Extension (§8): predictor persistence across animated frames");
    let scene_ids = ctx.scene_ids();
    let subset = &scene_ids[..scene_ids.len().min(3)];
    let mut table = Table::new(&[
        "Scene",
        "Policy",
        "Frame-0 v",
        "Later-frame v (mean)",
        "Warm-up gain",
    ]);
    let mut gains = Vec::new();
    let results = ctx.map_scenes("ext_dynamic_scenes", subset, |id| {
        let case = ctx.build_case_with_viewport(id, ctx.sweep_viewport());
        let scene = &case.scene;
        [false, true].map(|persist| {
            let mut animated = AnimatedScene::new(scene, 0.08, 0.02);
            let mut predictor =
                Predictor::new(PredictorConfig::paper_default(), animated.bvh().bounds());
            let mut per_frame_v = Vec::new();
            for frame in 0..FRAMES {
                if frame > 0 {
                    animated.advance_frame();
                    if !persist {
                        predictor.clear_learned_state();
                    }
                }
                let before = predictor.stats();
                let workload = AoWorkload::generate(
                    scene,
                    animated.bvh(),
                    &AoConfig {
                        seed: 0xF0 + frame as u64,
                        ..AoConfig::default()
                    },
                );
                for ray in workload.batch().iter() {
                    trace(&mut predictor, animated.bvh(), &ray, TraversalKind::AnyHit);
                }
                per_frame_v.push(frame_verified_rate(&before, &predictor.stats()));
            }
            let later = per_frame_v[1..].iter().sum::<f64>() / (FRAMES - 1) as f64;
            (per_frame_v[0], later)
        })
    });
    for (&id, per_policy) in subset.iter().zip(results) {
        for (persist, (frame0, later)) in [false, true].into_iter().zip(per_policy) {
            let gain = later - frame0;
            table.row(&[
                id.code().to_string(),
                if persist { "persist" } else { "flush" }.to_string(),
                fmt_pct(frame0),
                fmt_pct(later),
                format!("{:+.1}pp", gain * 100.0),
            ]);
            if persist {
                gains.push(gain);
                report.metric(format!("persist_gain_{}", id.code()), gain);
            }
        }
    }
    report.line(table.render());
    let mean_gain = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
    report.line(format!(
        "Persisting predictor state across refitted frames raises later-frame verified \
         rates by a mean of {:+.1} percentage points over frame 0; flushing resets the \
         warm-up every frame. This supports the paper's §8 hypothesis (BVH refit keeps \
         node ids — and therefore trained entries — valid).",
        mean_gain * 100.0
    ));
    report.metric("mean_persist_gain", mean_gain);
    report
}

/// Verified rate over just the rays traced between two stat snapshots.
fn frame_verified_rate(before: &PredictionStats, after: &PredictionStats) -> f64 {
    let rays = after.rays - before.rays;
    if rays == 0 {
        0.0
    } else {
        (after.verified - before.verified) as f64 / rays as f64
    }
}
