//! §6.2.5: GPU configurations with more SMs — per-SM predictors see fewer
//! rays, reducing prediction opportunities.

use crate::{fmt_pct, Context, Report, Table};
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};

/// Regenerates the §6.2.5 sweep (paper: 90% of the savings are retained
/// up to six SMs).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("§6.2.5: per-SM predictor count sweep");
    let sm_counts = [1usize, 2, 4, 6, 8];
    let mut savings = vec![Vec::new(); sm_counts.len()];
    let mut verified = vec![Vec::new(); sm_counts.len()];
    let results = ctx.map_cases("sec625_sm_sweep", |case| {
        let batch = case.ao_batch();
        sm_counts
            .iter()
            .map(|&sms| {
                let sim = FunctionalSim::new(
                    PredictorConfig::paper_default(),
                    SimOptions {
                        num_predictors: sms,
                        ..SimOptions::default()
                    },
                );
                let r = ctx.run_functional(&sim, case, &batch);
                (r.memory_savings(), r.prediction.verified_rate())
            })
            .collect::<Vec<_>>()
    });
    for per_scene in results {
        for (i, (saving, verify)) in per_scene.into_iter().enumerate() {
            savings[i].push(saving);
            verified[i].push(verify);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let one_sm = mean(&savings[0]);
    let mut table = Table::new(&["SMs", "Memory savings", "Retained vs 1 SM", "Verified"]);
    for (i, &sms) in sm_counts.iter().enumerate() {
        let s = mean(&savings[i]);
        let retained = if one_sm.abs() < 1e-12 {
            1.0
        } else {
            s / one_sm
        };
        table.row(&[
            format!("{sms}"),
            fmt_pct(s),
            fmt_pct(retained),
            fmt_pct(mean(&verified[i])),
        ]);
        report.metric(format!("savings_{sms}sm"), s);
        report.metric(format!("retained_{sms}sm"), retained);
    }
    report.line(table.render());
    report.line("Paper: ≥90% of the savings retained up to six SMs.");
    report
}
