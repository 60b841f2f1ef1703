//! §6.4: the predictor applied to global illumination (closest-hit rays),
//! where predicted intersections trim each ray's maximum length.

use crate::{fmt_pct, Context, Report, Table};
use rip_bvh::TraversalKind;
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};
use rip_render::{GiConfig, GiWorkload};

/// Regenerates the §6.4 GI study with three bounces (paper: 4% average
/// speedup despite the predictor being designed for occlusion rays).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("§6.4: global illumination (3 bounces, closest-hit)");
    let mut table = Table::new(&[
        "Scene",
        "Rays",
        "Node savings",
        "Memory savings",
        "Verified",
    ]);
    let mut node_savings = Vec::new();
    let mut mem_savings = Vec::new();
    let results = ctx.map_scenes("sec64_gi", &ctx.scene_ids(), |id| {
        let case = ctx.build_case_with_viewport(id, ctx.sweep_viewport());
        let gi = GiWorkload::generate(&case.scene, &case.bvh, &GiConfig::default());
        // Closest-hit rays predict the leaf itself (Go Up Level 0): the
        // prediction only supplies a trim bound, so cheap probes beat the
        // wider ancestors that occlusion rays prefer.
        let config = PredictorConfig {
            go_up_level: 0,
            ..PredictorConfig::paper_default()
        };
        let sim = FunctionalSim::new(
            config,
            SimOptions {
                classify_accesses: false,
                ..SimOptions::default()
            },
        );
        let batch = gi.batch();
        let r = sim
            .run(&case.bvh, &batch, TraversalKind::ClosestHit, None, None)
            .expect("no trace to reject");
        (
            gi.rays.len(),
            r.node_savings(),
            r.memory_savings(),
            r.prediction.verified_rate(),
        )
    });
    for (id, (rays, node, mem, verify)) in ctx.scene_ids().into_iter().zip(results) {
        table.row(&[
            id.code().to_string(),
            format!("{rays}"),
            fmt_pct(node),
            fmt_pct(mem),
            fmt_pct(verify),
        ]);
        node_savings.push(node);
        mem_savings.push(mem);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.line(table.render());
    report.line(format!(
        "Average node-fetch savings {} / memory savings {} from prediction-based ray \
         trimming (paper: ~4% end-to-end speedup for GI; closest-hit rays cannot elide \
         traversal, only shorten it).",
        fmt_pct(mean(&node_savings)),
        fmt_pct(mean(&mem_savings)),
    ));
    report.metric("mean_node_savings", mean(&node_savings));
    report.metric("mean_memory_savings", mean(&mem_savings));
    report
}
