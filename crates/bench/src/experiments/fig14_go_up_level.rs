//! Figure 14: Go Up Level sweep — verified rate rises with the level while
//! memory savings peak and fall (§6.2.1).

use crate::{fmt_pct, Context, Report, Table};
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};

/// Regenerates Figure 14 over Go Up Levels 0–5 (paper: verified rate
/// increases monotonically; savings peak around level 3–5; level 3 gives
/// the best end-to-end performance).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Figure 14: Go Up Level tradeoff");
    let levels = [0u32, 1, 2, 3, 4, 5];
    let mut verified = vec![Vec::new(); levels.len()];
    let mut savings = vec![Vec::new(); levels.len()];
    let mut m_costs = vec![Vec::new(); levels.len()];
    let results = ctx.map_cases("fig14_go_up_level", |case| {
        let batch = case.ao_batch();
        levels
            .iter()
            .map(|&gul| {
                let config = PredictorConfig {
                    go_up_level: gul,
                    ..PredictorConfig::paper_default()
                };
                let sim = FunctionalSim::new(config, SimOptions::default());
                let r = ctx.run_functional(&sim, case, &batch);
                (
                    r.prediction.verified_rate(),
                    r.memory_savings(),
                    r.prediction.mean_m(),
                )
            })
            .collect::<Vec<_>>()
    });
    for per_scene in results {
        for (i, (verify, saving, m)) in per_scene.into_iter().enumerate() {
            verified[i].push(verify);
            savings[i].push(saving);
            m_costs[i].push(m);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut table = Table::new(&[
        "Go Up Level",
        "Verified rays",
        "Memory savings",
        "m (fetches/pred)",
    ]);
    for (i, &gul) in levels.iter().enumerate() {
        let v = mean(&verified[i]);
        let s = mean(&savings[i]);
        table.row(&[
            format!("{gul}"),
            fmt_pct(v),
            fmt_pct(s),
            format!("{:.2}", mean(&m_costs[i])),
        ]);
        report.metric(format!("verified_gul{gul}"), v);
        report.metric(format!("savings_gul{gul}"), s);
    }
    report.line(table.render());
    report.line(
        "Paper: verified rate rises with level (slightly different leaves share ancestors) \
         while each prediction costs more fetches (m); savings peak then flatten — level 3 \
         performs best end-to-end.",
    );
    report
}
