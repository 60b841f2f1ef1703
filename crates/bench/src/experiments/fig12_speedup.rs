//! Figure 12: the headline result — speedup of the proposed predictor
//! (with repacking) over the baseline RT unit, for unsorted and
//! Morton-sorted rays.

use crate::{Context, Report, Table};

/// Regenerates Figure 12 (paper: 26% geometric-mean speedup on unsorted
/// rays; sorted rays benefit less because similar rays are traced close
/// together and do not train the predictor).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Figure 12: predictor speedup over baseline RT unit");
    let mut table = Table::new(&[
        "Scene",
        "Unsorted speedup",
        "Sorted speedup",
        "v (unsorted)",
    ]);
    let mut unsorted_speedups = Vec::new();
    let mut sorted_speedups = Vec::new();
    let results = ctx.map_cases("fig12_speedup", |case| {
        let workload = case.ao_workload();
        let unsorted = workload.batch();
        let sorted = workload.sorted(&case.bvh).batch();

        let base_u = ctx
            .simulator(ctx.gpu_baseline())
            .run_batch(&case.bvh, &unsorted);
        let pred_u = ctx
            .simulator(ctx.gpu_predictor())
            .run_batch(&case.bvh, &unsorted);
        let base_s = ctx
            .simulator(ctx.gpu_baseline())
            .run_batch(&case.bvh, &sorted);
        let pred_s = ctx
            .simulator(ctx.gpu_predictor())
            .run_batch(&case.bvh, &sorted);

        assert_eq!(
            base_u.hits, pred_u.hits,
            "{}: prediction changed visibility",
            case.scene.id
        );
        (
            pred_u.speedup_over(&base_u),
            pred_s.speedup_over(&base_s),
            pred_u.prediction.verified_rate(),
        )
    });
    for (id, (su, ss, verified)) in ctx.scene_ids().into_iter().zip(results) {
        table.row(&[
            id.code().to_string(),
            format!("{su:.3}"),
            format!("{ss:.3}"),
            format!("{verified:.3}"),
        ]);
        report.metric(format!("speedup_{}", id.code()), su);
        unsorted_speedups.push(su);
        sorted_speedups.push(ss);
    }
    let gm_u = super::geomean_or_one(unsorted_speedups);
    let gm_s = super::geomean_or_one(sorted_speedups);
    report.line(table.render());
    report.line(format!(
        "Geomean speedup — unsorted: {gm_u:.3}, sorted: {gm_s:.3} (paper: 1.26 unsorted, \
         smaller gains sorted)."
    ));
    report.metric("geomean_unsorted", gm_u);
    report.metric("geomean_sorted", gm_s);
    report
}
