//! Figure 2 / §6.3: the limit study — memory savings and verified rates
//! for the realistic predictor and the OL / OT / OU oracle ladder.

use crate::{fmt_pct, Context, Report, Table};
use rip_core::{FunctionalSim, OracleMode, PredictorConfig, SimOptions};

/// Regenerates the limit study (paper: Predictor ≈13% savings / 27%
/// verified; OL 24% / 38%; OT up to 58% savings; OU +0.25% more).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Figure 2 / §6.3: limit study (oracle ladder)");
    let modes = [
        OracleMode::None,
        OracleMode::Lookup,
        OracleMode::UnboundedTraining,
        OracleMode::ImmediateUpdates,
    ];
    let mut table = Table::new(&["Mode", "Memory savings", "Verified rays", "Predicted rays"]);
    let mut per_mode_savings = vec![Vec::new(); modes.len()];
    let mut per_mode_verified = vec![Vec::new(); modes.len()];
    let mut per_mode_predicted = vec![Vec::new(); modes.len()];
    let results = ctx.map_cases("fig02_limit_study", |case| {
        let batch = case.ao_batch();
        modes
            .iter()
            .map(|&mode| {
                let config = PredictorConfig::paper_default().with_oracle(mode);
                let sim = FunctionalSim::new(config, SimOptions::default());
                let r = ctx.run_functional(&sim, case, &batch);
                (
                    r.memory_savings(),
                    r.prediction.verified_rate(),
                    r.prediction.predicted_rate(),
                )
            })
            .collect::<Vec<_>>()
    });
    for per_scene in results {
        for (i, (saving, verify, predict)) in per_scene.into_iter().enumerate() {
            per_mode_savings[i].push(saving);
            per_mode_verified[i].push(verify);
            per_mode_predicted[i].push(predict);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    for (i, &mode) in modes.iter().enumerate() {
        let s = mean(&per_mode_savings[i]);
        let v = mean(&per_mode_verified[i]);
        let p = mean(&per_mode_predicted[i]);
        table.row(&[mode.label().to_string(), fmt_pct(s), fmt_pct(v), fmt_pct(p)]);
        report.metric(format!("savings_{}", mode.label()), s);
        report.metric(format!("verified_{}", mode.label()), v);
    }
    report.line(table.render());
    report.line(
        "Paper reference: Predictor 13% / 27%; OL doubles savings (24%) with 38% verified; \
         unbounded training (OT) reaches up to 58% savings; immediate updates (OU) add ~0.25%.",
    );
    report
}
