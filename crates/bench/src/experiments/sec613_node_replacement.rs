//! §6.1.3: node replacement policies (LFU / LRU / LRU-K) for multi-node
//! entries — an ablation the paper reports as insignificant.

use crate::{fmt_pct, Context, Report, Table};
use rip_core::{FunctionalSim, NodeReplacement, PredictorConfig, SimOptions};

/// Regenerates the §6.1.3 ablation with 4 nodes per entry (paper: the
/// differences between LFU, LRU and LRU-K are insignificant).
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("§6.1.3: node replacement policy ablation (4 nodes/entry)");
    let policies = [
        ("LRU", NodeReplacement::Lru),
        ("LFU", NodeReplacement::Lfu),
        ("LRU-2", NodeReplacement::LruK(2)),
        ("LRU-4", NodeReplacement::LruK(4)),
    ];
    let mut savings = vec![Vec::new(); policies.len()];
    let mut verified = vec![Vec::new(); policies.len()];
    let results = ctx.map_cases("sec613_node_replacement", |case| {
        let batch = case.ao_batch();
        policies
            .iter()
            .map(|&(_, policy)| {
                let config = PredictorConfig {
                    nodes_per_entry: 4,
                    node_replacement: policy,
                    ..PredictorConfig::paper_default()
                };
                let sim = FunctionalSim::new(config, SimOptions::default());
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
    let mut table = Table::new(&["Policy", "Memory savings", "Verified"]);
    let mut extremes = (f64::MAX, f64::MIN);
    for (i, &(label, _)) in policies.iter().enumerate() {
        let s = mean(&savings[i]);
        table.row(&[label.to_string(), fmt_pct(s), fmt_pct(mean(&verified[i]))]);
        report.metric(format!("savings_{label}"), s);
        extremes = (extremes.0.min(s), extremes.1.max(s));
    }
    report.line(table.render());
    report.line(format!(
        "Spread between policies: {:.2} percentage points (paper: insignificant).",
        (extremes.1 - extremes.0) * 100.0
    ));
    report.metric("policy_spread", extremes.1 - extremes.0);
    report
}
