//! Figure 13: memory accesses and predictor overheads relative to the
//! baseline RT unit.

use crate::{fmt_pct, Context, Report, Table};
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};

/// Regenerates Figure 13 (paper: −13% net memory accesses, +9% predictor
/// overhead of which 5.5% is wasteful mispredictions, −12% interior node
/// accesses, −2% primitive accesses).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Figure 13: memory accesses and predictor overheads");
    let mut table = Table::new(&[
        "Scene",
        "Net accesses",
        "Node savings",
        "Tri savings",
        "Overhead",
        "Wasteful",
    ]);
    let mut nets = Vec::new();
    let mut nodes = Vec::new();
    let mut tris = Vec::new();
    let mut overheads = Vec::new();
    let mut wastes = Vec::new();
    let results = ctx.map_cases("fig13_memory_accesses", |case| {
        let batch = case.ao_batch();
        let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
        let r = ctx.run_functional(&sim, case, &batch);
        (
            r.memory_savings(),
            r.node_savings(),
            r.tri_savings(),
            r.prediction_overhead_fraction(),
            r.wasted_fraction(),
        )
    });
    for (id, (net, node, tri, overhead, waste)) in ctx.scene_ids().into_iter().zip(results) {
        table.row(&[
            id.code().to_string(),
            format!("{:.3}", 1.0 - net),
            fmt_pct(node),
            fmt_pct(tri),
            fmt_pct(overhead),
            fmt_pct(waste),
        ]);
        nets.push(net);
        nodes.push(node);
        tris.push(tri);
        overheads.push(overhead);
        wastes.push(waste);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.line(table.render());
    report.line(format!(
        "Averages — net access reduction {}, node fetch reduction {}, triangle reduction {}, \
         predictor overhead +{}, wasteful {} (paper: −13%, −12%, −2%, +9%, 5.5%).",
        fmt_pct(mean(&nets)),
        fmt_pct(mean(&nodes)),
        fmt_pct(mean(&tris)),
        fmt_pct(mean(&overheads)),
        fmt_pct(mean(&wastes)),
    ));
    report.metric("mean_net_savings", mean(&nets));
    report.metric("mean_node_savings", mean(&nodes));
    report.metric("mean_overhead", mean(&overheads));
    report.metric("mean_wasteful", mean(&wastes));
    report
}
