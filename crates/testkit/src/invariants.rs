//! Predictor invariants: acceleration must never change the answer.
//!
//! The §3 predictor elides interior traversal when a table lookup verifies,
//! so three things must hold no matter how the table behaves:
//!
//! 1. **Transparency** — predictor-on returns the same hits as
//!    predictor-off, for occlusion (hit/miss) and closest-hit
//!    (exact `t` + triangle index) workloads alike.
//! 2. **Oracle dominance** — the §6.3 limit-study ladder
//!    (Predictor ≤ OL ≤ OT ≤ OU) upper-bounds the real predictor's
//!    verified rate, and oracles never mispredict.
//! 3. **Accounting** — Equation 1's terms balance against the measured
//!    counters of a [`FunctionalSim`] run.

use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_core::{
    trace, FunctionalReport, FunctionalSim, OracleMode, Predictor, PredictorConfig, SimOptions,
};
use rip_math::Ray;

/// Traces every ray twice — with a live predictor and with a plain
/// traversal — and asserts identical occlusion answers.
pub fn assert_occlusion_transparent(bvh: &Bvh, rays: &[Ray], config: PredictorConfig) {
    let mut predictor = Predictor::new(config, bvh.bounds());
    for (i, ray) in rays.iter().enumerate() {
        let with = trace(&mut predictor, bvh, ray, TraversalKind::AnyHit)
            .hit
            .is_some();
        let without = bvh.intersect(ray, TraversalKind::AnyHit).hit.is_some();
        assert_eq!(
            with, without,
            "occlusion transparency broken at ray {i}: predictor={with}, plain={without}"
        );
    }
}

/// Same check for closest-hit rays, where the predictor trims the fallback
/// traversal by the probe's hit: the final `(t, tri_index)` must still be
/// bit-for-bit the canonical closest hit.
pub fn assert_closest_transparent(bvh: &Bvh, rays: &[Ray], config: PredictorConfig) {
    let mut predictor = Predictor::new(config, bvh.bounds());
    for (i, ray) in rays.iter().enumerate() {
        let with = trace(&mut predictor, bvh, ray, TraversalKind::ClosestHit)
            .hit
            .map(|h| (h.tri_index, h.t.to_bits()));
        let without = bvh
            .intersect(ray, TraversalKind::ClosestHit)
            .hit
            .map(|h| (h.tri_index, h.t.to_bits()));
        assert_eq!(with, without, "closest-hit transparency broken at ray {i}");
    }
}

/// Runs the §6.3 ladder — real predictor, OL, OT, OU — over one workload.
pub fn oracle_ladder(bvh: &Bvh, rays: &[Ray], config: PredictorConfig) -> Vec<FunctionalReport> {
    [
        OracleMode::None,
        OracleMode::Lookup,
        OracleMode::UnboundedTraining,
        OracleMode::ImmediateUpdates,
    ]
    .into_iter()
    .map(|oracle| {
        let sim = FunctionalSim::new(config.with_oracle(oracle), SimOptions::default());
        let batch = RayBatch::from_rays(rays);
        sim.run(bvh, &batch, TraversalKind::AnyHit, None, None)
            .expect("no trace to reject")
    })
    .collect()
}

/// Asserts the ladder's dominance properties:
/// each rung's verified rate upper-bounds (within `eps`) the rung below,
/// and idealized lookups never mispredict.
pub fn assert_oracle_ladder_bounds(ladder: &[FunctionalReport], eps: f64) {
    assert_eq!(ladder.len(), 4, "expected Predictor/OL/OT/OU");
    let names = ["Predictor", "OL", "OT", "OU"];
    for window in 0..3 {
        let lower = ladder[window].prediction.verified_rate();
        let upper = ladder[window + 1].prediction.verified_rate();
        assert!(
            upper + eps >= lower,
            "{} verified rate {:.4} exceeds {} verified rate {:.4}",
            names[window],
            lower,
            names[window + 1],
            upper
        );
    }
    for (report, name) in ladder.iter().zip(names).skip(1) {
        assert_eq!(
            report.prediction.mispredicted(),
            0,
            "{name} is an oracle and must never mispredict"
        );
    }
}

/// Asserts the internal accounting of a functional report: counter
/// containment, rate ranges, the cross-module fetch tally, and the
/// Equation 1 identity `skipped + per_ray = n`.
pub fn assert_report_balances(report: &FunctionalReport) {
    let p = &report.prediction;
    assert!(p.hits <= p.rays, "more hits than rays");
    assert!(p.predicted <= p.rays, "more predictions than rays");
    assert!(p.verified <= p.predicted, "verified rays must be predicted");
    for rate in [p.predicted_rate(), p.verified_rate(), p.hit_rate()] {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
    }

    // The same quantity counted through two independent paths: per-ray
    // prediction stats accumulated by the sim, and the predictor's own
    // running tally.
    assert_eq!(
        p.prediction_eval_fetches,
        report.prediction_eval.node_fetches(),
        "prediction-evaluation fetches disagree between sim and stats"
    );
    assert!(
        report.wasted_prediction_eval.node_fetches() <= report.prediction_eval.node_fetches(),
        "wasted accesses must be a subset of prediction evaluation"
    );
    assert!(
        report.prediction_eval.node_fetches() <= report.with_predictor.node_fetches(),
        "prediction evaluation must be contained in the total paid cost"
    );

    // Equation 1: N = n + p·k·m − v·n ⇒ (n − N) + N = n must hold exactly
    // (up to float association) for the model built from measured rates.
    let eq1 = report.eq1_model();
    let balance = eq1.estimated_nodes_skipped() + eq1.estimated_nodes_per_ray();
    assert!(
        (balance - eq1.n).abs() <= 1e-9 * eq1.n.max(1.0),
        "Equation 1 does not balance: skipped {} + per-ray {} != n {}",
        eq1.estimated_nodes_skipped(),
        eq1.estimated_nodes_per_ray(),
        eq1.n
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn ladder_and_balances_smoke() {
        let tris = gen::SceneRecipe::Walls.triangles(60, 2);
        let bvh = Bvh::build(&tris);
        let rays = gen::hitting_rays(&tris, 120, 2);
        let config = PredictorConfig {
            update_delay: 0,
            ..PredictorConfig::paper_default()
        };
        let ladder = oracle_ladder(&bvh, &rays, config);
        assert_oracle_ladder_bounds(&ladder, 0.02);
        for report in &ladder {
            assert_report_balances(report);
        }
    }
}
