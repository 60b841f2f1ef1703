//! Extension (§4.2 future work): adaptive hash-function selection.
//!
//! Compares three predictors at the same 5.5 KB storage budget: the
//! paper's single 1024-entry Grid Spherical table, a single 1024-entry
//! Two Point table, and the tournament of two 512-entry tables with a
//! saturating selector ([`rip_core::AdaptivePredictor`]).

use crate::{fmt_pct, Context, Report, Table};
use rip_bvh::TraversalKind;
use rip_core::{
    trace, AdaptivePredictor, HashFunction, PredictionStats, Predictor, PredictorConfig,
};

/// Runs the tournament comparison on every selected scene.
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Extension (§4.2): adaptive hash selection at constant budget");
    let mut table = Table::new(&[
        "Scene",
        "Grid Spherical v",
        "Two Point v",
        "Adaptive v",
        "Switches",
    ]);
    let mut adaptive_wins = 0usize;
    let mut rows = 0usize;
    let results = ctx.map_scenes("ext_adaptive_hash", &ctx.scene_ids(), |id| {
        let case = ctx.build_case_with_viewport(id, ctx.sweep_viewport());
        let batch = case.ao_batch();

        let run_pure = |hash: HashFunction| -> PredictionStats {
            let config = PredictorConfig {
                hash,
                ..PredictorConfig::paper_default()
            };
            let mut predictor = Predictor::new(config, case.bvh.bounds());
            for ray in batch.iter() {
                trace(&mut predictor, &case.bvh, &ray, TraversalKind::AnyHit);
            }
            predictor.stats()
        };
        let grid = run_pure(HashFunction::default());
        let two_point = run_pure(HashFunction::TwoPoint {
            origin_bits: 4,
            length_ratio: 0.15,
        });

        let mut adaptive = AdaptivePredictor::paper_budget(case.bvh.bounds());
        for ray in batch.iter() {
            adaptive.trace_occlusion(&case.bvh, &ray);
        }
        (
            grid.verified_rate(),
            two_point.verified_rate(),
            adaptive.stats(),
            adaptive.switches(),
        )
    });
    for (id, (grid_v, two_point_v, a, switches)) in ctx.scene_ids().into_iter().zip(results) {
        table.row(&[
            id.code().to_string(),
            fmt_pct(grid_v),
            fmt_pct(two_point_v),
            fmt_pct(a.verified_rate()),
            format!("{switches}"),
        ]);
        report.metric(format!("adaptive_v_{}", id.code()), a.verified_rate());
        let best_pure = grid_v.max(two_point_v);
        if a.verified_rate() >= best_pure - 0.03 {
            adaptive_wins += 1;
        }
        rows += 1;
    }
    report.line(table.render());
    report.line(format!(
        "The tournament tracked within 3 points of the better pure hash on {adaptive_wins}/{rows} \
         scenes while halving each table — evidence that the paper's proposed hash combination \
         is implementable without extra storage.",
    ));
    report.metric("scenes_within_3pp", adaptive_wins as f64);
    report
}
