//! Extension (§7): the predictor composed over every traversal kernel.
//!
//! §7 anticipates that wide-BVH traversal "should also work in parallel
//! with our proposed ray intersection predictor". With the predictor
//! packaged as a wrapper kernel ([`rip_core::Predicted`]) that claim is
//! directly testable: this experiment runs the AO workload through the
//! bare and predicted variants of all three BVH kernels — while-while,
//! stackless restart-trail, and 4-wide — and reports fetches per ray,
//! memory savings, and verified rates side by side.

use crate::{fmt_pct, Context, Report, Table};
use rip_bvh::{
    Bvh, RayBatch, StacklessKernel, TraversalKernel, WhileWhileKernel, WideBvh, WideKernel,
};
use rip_core::{Predicted, PredictorConfig};

/// Per-kernel outcome: bare fetches/ray, predicted fetches/ray, verified.
struct KernelRow {
    bare_per_ray: f64,
    predicted_per_ray: f64,
    verified: f64,
}

/// Traces `batch` through a bare kernel and its predicted wrapper, checking
/// that prediction never changes an occlusion answer.
fn eval<B: TraversalKernel, W: TraversalKernel>(
    batch: &RayBatch,
    mut bare: B,
    mut wrapped: Predicted<'_, W>,
) -> KernelRow {
    let bare_results = bare.any_hit_batch(batch);
    let pred_results = wrapped.any_hit_batch(batch);
    let mut bare_fetches = 0u64;
    let mut pred_fetches = 0u64;
    for (i, (b, p)) in bare_results.iter().zip(&pred_results).enumerate() {
        assert_eq!(
            b.hit.is_some(),
            p.hit.is_some(),
            "{}: prediction changed the occlusion answer for ray {i}",
            wrapped.name()
        );
        bare_fetches += b.stats.node_fetches();
        pred_fetches += p.stats.node_fetches();
    }
    let n = batch.len().max(1) as f64;
    KernelRow {
        bare_per_ray: bare_fetches as f64 / n,
        predicted_per_ray: pred_fetches as f64 / n,
        verified: wrapped.predictor().stats().verified_rate(),
    }
}

/// Kernel labels in presentation order.
const KERNELS: [&str; 3] = ["while-while", "stackless", "wide4"];

/// Runs the predictor × traversal-kernel cross on a subset of scenes.
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Extension (§7): predictor × traversal-kernel cross");
    let mut table = Table::new(&[
        "Scene",
        "Kernel",
        "Bare fetches/ray",
        "Predicted fetches/ray",
        "Savings",
        "Verified",
    ]);
    let scene_ids = ctx.scene_ids();
    let subset = &scene_ids[..scene_ids.len().min(3)];
    let mut per_kernel_savings = vec![Vec::new(); KERNELS.len()];
    let mut per_kernel_verified = vec![Vec::new(); KERNELS.len()];
    let results = ctx.map_scenes("ext_wide_predictor", subset, |id| {
        let case = ctx.build_case_with_viewport(id, ctx.sweep_viewport());
        let bvh: &Bvh = &case.bvh;
        let wide = WideBvh::from_binary(bvh);
        let batch = case.ao_batch();
        let config = PredictorConfig::paper_default;
        [
            eval(
                &batch,
                WhileWhileKernel::new(bvh),
                Predicted::new(bvh, config(), WhileWhileKernel::new(bvh)),
            ),
            eval(
                &batch,
                StacklessKernel::new(bvh),
                Predicted::new(bvh, config(), StacklessKernel::new(bvh)),
            ),
            eval(
                &batch,
                WideKernel::new(&wide, bvh),
                Predicted::new(bvh, config(), WideKernel::new(&wide, bvh)),
            ),
        ]
    });
    for (&id, rows) in subset.iter().zip(results) {
        for (i, (label, row)) in KERNELS.iter().zip(rows).enumerate() {
            let savings = 1.0 - row.predicted_per_ray / row.bare_per_ray.max(1e-12);
            table.row(&[
                id.code().to_string(),
                label.to_string(),
                format!("{:.2}", row.bare_per_ray),
                format!("{:.2}", row.predicted_per_ray),
                fmt_pct(savings),
                fmt_pct(row.verified),
            ]);
            per_kernel_savings[i].push(savings);
            per_kernel_verified[i].push(row.verified);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.line(table.render());
    for (i, label) in KERNELS.iter().enumerate() {
        let s = mean(&per_kernel_savings[i]);
        let v = mean(&per_kernel_verified[i]);
        report.line(format!(
            "Mean over scenes — predicted({label}): node-fetch savings {}, verified {}.",
            fmt_pct(s),
            fmt_pct(v)
        ));
        report.metric(format!("savings_{label}"), s);
        report.metric(format!("verified_{label}"), v);
    }
    let (while_while, wide4) = (&per_kernel_savings[0], &per_kernel_savings[2]);
    let relation = if mean(wide4) < mean(while_while) {
        "smaller than"
    } else {
        "at least as large as"
    };
    let positive = wide4.iter().filter(|&&s| s > 0.0).count();
    let verdict = if positive == wide4.len() {
        "the two techniques stack, as §7 anticipates"
    } else {
        "at this scale the two techniques do not stack on every scene"
    };
    report.line(format!(
        "The predictor composes with all three kernels without changing any occlusion \
         answer. Its mean node-fetch saving on wide4 is {relation} on while-while, and the \
         wide4 saving is positive on {positive} of {} scenes, so {verdict}.",
        wide4.len()
    ));
    report
}
