//! Table 5: Equation 1's estimated node-access reduction vs the measured
//! reduction.

use crate::{Context, Report, Table};
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};

/// Regenerates Table 5 (paper averages: v = 0.246, n = 28.382, p = 0.955,
/// k = 1, m = 2.810 → estimated 4.298 vs actual 3.726 nodes skipped/ray).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Table 5: Equation 1 estimate vs measured reduction");
    let mut v_sum = 0.0;
    let mut n_sum = 0.0;
    let mut p_sum = 0.0;
    let mut k_sum = 0.0;
    let mut m_sum = 0.0;
    let mut est_sum = 0.0;
    let mut act_sum = 0.0;
    let mut count = 0.0f64;
    let mut per_scene = Table::new(&["Scene", "v", "n", "p", "k", "m", "Estimated", "Actual"]);
    let results = ctx.map_cases("table5_eq1", |case| {
        let batch = case.ao_batch();
        let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
        let r = ctx.run_functional(&sim, case, &batch);
        (r.eq1_model(), r.actual_nodes_skipped_per_ray())
    });
    for (id, (model, actual)) in ctx.scene_ids().into_iter().zip(results) {
        per_scene.row(&[
            id.code().to_string(),
            format!("{:.3}", model.v),
            format!("{:.3}", model.n),
            format!("{:.3}", model.p),
            format!("{:.3}", model.k),
            format!("{:.3}", model.m),
            format!("{:.3}", model.estimated_nodes_skipped()),
            format!("{actual:.3}"),
        ]);
        v_sum += model.v;
        n_sum += model.n;
        p_sum += model.p;
        k_sum += model.k;
        m_sum += model.m;
        est_sum += model.estimated_nodes_skipped();
        act_sum += actual;
        count += 1.0;
    }
    report.line(per_scene.render());
    let c = count.max(1.0);
    let mut avg = Table::new(&["v", "n", "p", "k", "m", "Estimated", "Actual"]);
    avg.row(&[
        format!("{:.3}", v_sum / c),
        format!("{:.3}", n_sum / c),
        format!("{:.3}", p_sum / c),
        format!("{:.3}", k_sum / c),
        format!("{:.3}", m_sum / c),
        format!("{:.3}", est_sum / c),
        format!("{:.3}", act_sum / c),
    ]);
    report.line("Averages across scenes (paper: 0.246, 28.382, 0.955, 1, 2.810 → 4.298 vs 3.726):");
    report.line(avg.render());
    report.metric("estimated_mean", est_sum / c);
    report.metric("actual_mean", act_sum / c);
    report.metric("v_mean", v_sum / c);
    report.metric("p_mean", p_sum / c);
    report
}
