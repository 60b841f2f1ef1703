//! The §3 prediction / verification / fallback flow for a single ray.
//!
//! The flow is generic over the fallback [`TraversalKernel`]: prediction
//! probes always run on the steppable [`Traversal`] seeded via
//! `Traversal::from_nodes` (that *is* the hardware mechanism — predicted
//! nodes are pushed onto the ray's traversal stack, §3), while the full
//! root traversal paid by not-predicted and mispredicted rays goes through
//! whichever kernel the caller composes with — while-while, stackless or
//! wide. [`trace_with`] is the flow; [`trace`] binds the while-while
//! fallback, the ray's own hash and the live probe.

use crate::{OracleMode, Predictor};
use rip_bvh::{
    Bvh, Hit, NodeId, Traversal, TraversalKernel, TraversalKind, TraversalResult, TraversalStats,
    WhileWhileKernel,
};
use rip_math::Ray;

/// Per-ray predictor outcome (§3 terminology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RayOutcome {
    /// No table entry matched; the ray performed the full traversal.
    NotPredicted,
    /// The ray found an intersection starting from the predicted nodes —
    /// the interior traversal was elided.
    Verified,
    /// A prediction existed but did not verify; the ray paid the prediction
    /// evaluation *and* the full traversal.
    Mispredicted,
}

/// Result of tracing one ray through the predictor flow.
#[derive(Clone, Debug)]
pub struct PredictedTrace {
    /// Prediction outcome.
    pub outcome: RayOutcome,
    /// The final intersection (from the prediction or the fallback).
    pub hit: Option<Hit>,
    /// Work spent evaluating the prediction (the `k·m` term of Equation 1).
    pub prediction_stats: TraversalStats,
    /// Work spent on the full traversal (not-predicted and mispredicted
    /// rays; zero for verified rays).
    pub fallback_stats: TraversalStats,
    /// Number of predicted nodes evaluated (`k`).
    pub k: u32,
}

impl PredictedTrace {
    /// Total node fetches paid by this ray under the predictor.
    pub fn total_node_fetches(&self) -> u64 {
        self.prediction_stats.node_fetches() + self.fallback_stats.node_fetches()
    }

    /// Total memory accesses (nodes + triangles) paid by this ray.
    pub fn total_memory_accesses(&self) -> u64 {
        self.prediction_stats.memory_accesses() + self.fallback_stats.memory_accesses()
    }
}

/// Evaluates a predicted probe: a seeded any-hit traversal of the
/// predicted nodes (the hardware mechanism of §3 — predicted nodes are
/// pushed onto the ray's traversal stack). Pure in `(bvh, ray, nodes)`;
/// the replay path memoizes it per trace set.
pub fn eval_probe(bvh: &Bvh, ray: &Ray, nodes: &[NodeId]) -> TraversalResult {
    let mut ptrav = Traversal::from_nodes(TraversalKind::AnyHit, nodes);
    ptrav.run(bvh, ray)
}

/// Builds the leaf-to-root ancestor chain (`chain[0]` = the leaf).
pub(crate) fn ancestor_chain(bvh: &Bvh, leaf: NodeId) -> Vec<NodeId> {
    let mut chain = vec![leaf];
    while let Some(p) = bvh.node(*chain.last().expect("nonempty")).parent {
        chain.push(p);
    }
    chain
}

/// Traces one ray through the predictor flow with the while-while
/// fallback kernel, the ray's own hash and the live [`eval_probe`] —
/// [`trace_with`] for a caller holding a bare [`Predictor`].
///
/// # Examples
///
/// ```
/// use rip_bvh::{Bvh, TraversalKind};
/// use rip_core::{trace, Predictor, PredictorConfig, RayOutcome};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let config = PredictorConfig { update_delay: 0, ..PredictorConfig::paper_default() };
/// let mut p = Predictor::new(config, bvh.bounds());
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// let first = trace(&mut p, &bvh, &ray, TraversalKind::AnyHit);
/// assert_eq!(first.outcome, RayOutcome::NotPredicted);
/// let second = trace(&mut p, &bvh, &ray, TraversalKind::AnyHit);
/// assert_eq!(second.outcome, RayOutcome::Verified);
/// ```
pub fn trace(
    predictor: &mut Predictor,
    bvh: &Bvh,
    ray: &Ray,
    kind: TraversalKind,
) -> PredictedTrace {
    let hash = predictor.hash_ray(ray);
    let mut kernel = WhileWhileKernel::new(bvh);
    trace_with(predictor, bvh, &mut kernel, ray, kind, hash, &mut |nodes| {
        eval_probe(bvh, ray, nodes)
    })
}

/// Traces one ray through the predictor flow of Figure 4:
///
/// 1. table lookup under `hash`;
/// 2. if predicted, `probe` the predicted nodes — an intersection
///    verifies the ray. An occlusion ray (`AnyHit`) skips the interior
///    traversal; a closest-hit ray (§6.4) instead *trims its maximum
///    length* to the probe's hit before the full traversal, which then
///    culls far subtrees;
/// 3. otherwise (or on a misprediction) run the full root traversal
///    through `kernel`;
/// 4. on any intersection, train the table with the hit leaf's
///    Go-Up-Level ancestor under `hash`.
///
/// `hash` must be [`Predictor::hash_ray`] of `ray`: it is pure in the
/// hasher configuration, the scene bounds and the ray, so batch drivers
/// compute a workload's hash stream once and share it across a sweep.
/// `probe` must return exactly what [`eval_probe`] would; replay drivers
/// pass a memoizing wrapper.
///
/// Under an [`OracleMode`] other than `None`, occlusion lookups are
/// idealized as described in §6.3: the ground-truth traversal that drives
/// the oracle is not charged to a verified ray, and a verified ray is not
/// rewarded. Closest-hit rays always use the hashed lookup.
pub fn trace_with(
    predictor: &mut Predictor,
    bvh: &Bvh,
    kernel: &mut dyn TraversalKernel,
    ray: &Ray,
    kind: TraversalKind,
    hash: u32,
    probe: &mut dyn FnMut(&[NodeId]) -> TraversalResult,
) -> PredictedTrace {
    predictor.begin_ray();
    // The oracle's ground truth is also the full traversal a
    // not-predicted ray pays, so it runs on the composed kernel.
    let truth = (kind == TraversalKind::AnyHit && predictor.config().oracle != OracleMode::None)
        .then(|| kernel.trace(ray, kind));
    let prediction = match &truth {
        Some(truth) => truth
            .hit
            .and_then(|hit| predictor.oracle_lookup(ray, &ancestor_chain(bvh, hit.leaf))),
        None => predictor.lookup_hashed(hash),
    };
    let trace = match prediction {
        None => {
            let full = truth.unwrap_or_else(|| kernel.trace(ray, kind));
            PredictedTrace {
                outcome: RayOutcome::NotPredicted,
                hit: full.hit,
                prediction_stats: TraversalStats::default(),
                fallback_stats: full.stats,
                k: 0,
            }
        }
        Some(pred) => {
            let k = pred.nodes.len() as u32;
            let presult = probe(&pred.nodes);
            debug_assert!(
                truth.is_none() || presult.hit.is_some(),
                "oracle prediction must verify"
            );
            match presult.hit {
                Some(phit) => {
                    if truth.is_none() {
                        predictor.reward(pred.hash, phit.leaf);
                    }
                    let (hit, fallback_stats) = match kind {
                        TraversalKind::AnyHit => (phit, TraversalStats::default()),
                        // Any intersection at `t` upper-bounds the closest
                        // hit, so it is a conservative trim for the
                        // authoritative traversal.
                        TraversalKind::ClosestHit => {
                            let trimmed = ray.trimmed(phit.t * (1.0 + 1e-5));
                            let full = kernel.trace(&trimmed, kind);
                            match full.hit {
                                Some(fhit) if fhit.t <= phit.t => (fhit, full.stats),
                                _ => (phit, full.stats),
                            }
                        }
                    };
                    PredictedTrace {
                        outcome: RayOutcome::Verified,
                        hit: Some(hit),
                        prediction_stats: presult.stats,
                        fallback_stats,
                        k,
                    }
                }
                None => {
                    let full = kernel.trace(ray, kind);
                    PredictedTrace {
                        outcome: RayOutcome::Mispredicted,
                        hit: full.hit,
                        prediction_stats: presult.stats,
                        fallback_stats: full.stats,
                        k,
                    }
                }
            }
        }
    };
    record(predictor, &trace);
    if let Some(hit) = trace.hit {
        predictor.train(bvh, hash, hit.leaf);
    }
    trace
}

fn record(predictor: &mut Predictor, trace: &PredictedTrace) {
    let stats = predictor.stats_mut();
    stats.rays += 1;
    if trace.hit.is_some() {
        stats.hits += 1;
    }
    match trace.outcome {
        RayOutcome::NotPredicted => {}
        RayOutcome::Verified => {
            stats.predicted += 1;
            stats.verified += 1;
        }
        RayOutcome::Mispredicted => {
            stats.predicted += 1;
        }
    }
    stats.predicted_nodes_evaluated += trace.k as u64;
    stats.prediction_eval_fetches += trace.prediction_stats.node_fetches();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorConfig;
    use rip_math::{Triangle, Vec3};

    fn floor_bvh() -> Bvh {
        let mut tris = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        Bvh::build(&tris)
    }

    fn immediate() -> PredictorConfig {
        PredictorConfig {
            update_delay: 0,
            ..PredictorConfig::paper_default()
        }
    }

    #[test]
    fn verified_ray_skips_interior_nodes() {
        let bvh = floor_bvh();
        let mut p = Predictor::new(immediate(), bvh.bounds());
        let ray = Ray::new(Vec3::new(7.3, 2.0, 7.3), -Vec3::Y);
        let first = trace(&mut p, &bvh, &ray, TraversalKind::AnyHit);
        assert_eq!(first.outcome, RayOutcome::NotPredicted);
        let n_full = first.fallback_stats.node_fetches();
        let second = trace(&mut p, &bvh, &ray, TraversalKind::AnyHit);
        assert_eq!(second.outcome, RayOutcome::Verified);
        assert!(
            second.total_node_fetches() < n_full,
            "verified ray ({}) must beat full traversal ({n_full})",
            second.total_node_fetches()
        );
        assert_eq!(second.fallback_stats, TraversalStats::default());
    }

    #[test]
    fn similar_ray_reuses_training() {
        let bvh = floor_bvh();
        let mut p = Predictor::new(immediate(), bvh.bounds());
        let a = Ray::new(Vec3::new(7.30, 2.0, 7.30), -Vec3::Y);
        let b = Ray::new(Vec3::new(7.35, 2.0, 7.32), -Vec3::Y);
        trace(&mut p, &bvh, &a, TraversalKind::AnyHit);
        let tb = trace(&mut p, &bvh, &b, TraversalKind::AnyHit);
        assert_eq!(
            tb.outcome,
            RayOutcome::Verified,
            "similar ray should verify"
        );
    }

    #[test]
    fn mispredicted_ray_pays_both_costs() {
        let bvh = floor_bvh();
        let mut p = Predictor::new(immediate(), bvh.bounds());
        // Train with a downward ray, then query a similar-origin ray with a
        // direction that misses everything. To force a tag collision we use
        // the same hash cell but an upward direction may hash differently —
        // so instead query a *horizontal* ray above the floor from the same
        // cell after manually inserting its hash.
        let down = Ray::new(Vec3::new(7.3, 2.0, 7.3), -Vec3::Y);
        let t = trace(&mut p, &bvh, &down, TraversalKind::AnyHit);
        let leaf = t.hit.unwrap().leaf;
        // A ray that misses: same origin, pointing up and away.
        let up = Ray::new(Vec3::new(7.3, 2.0, 7.3), Vec3::Y);
        let hash_up = p.hash_ray(&up);
        p.train(&bvh, hash_up, leaf); // poison the entry for the up-ray hash
        let tu = trace(&mut p, &bvh, &up, TraversalKind::AnyHit);
        assert_eq!(tu.outcome, RayOutcome::Mispredicted);
        assert!(tu.prediction_stats.node_fetches() > 0);
        assert!(tu.fallback_stats.node_fetches() > 0);
        assert!(tu.hit.is_none());
    }

    #[test]
    fn oracle_lookup_never_mispredicts() {
        let bvh = floor_bvh();
        let config = immediate().with_oracle(OracleMode::UnboundedTraining);
        let mut p = Predictor::new(config, bvh.bounds());
        let mut rng_phase = 0.0f32;
        let mut verified = 0;
        for i in 0..200 {
            rng_phase += 0.37;
            let o = Vec3::new(
                (i % 13) as f32 + rng_phase.fract(),
                1.5,
                (i % 11) as f32 + (rng_phase * 2.0).fract(),
            );
            let t = trace(&mut p, &bvh, &Ray::new(o, -Vec3::Y), TraversalKind::AnyHit);
            assert_ne!(
                t.outcome,
                RayOutcome::Mispredicted,
                "oracle cannot mispredict"
            );
            if t.outcome == RayOutcome::Verified {
                verified += 1;
            }
        }
        assert!(verified > 50, "oracle should verify many rays: {verified}");
    }

    #[test]
    fn closest_hit_with_prediction_matches_plain_traversal() {
        let bvh = floor_bvh();
        let mut p = Predictor::new(immediate(), bvh.bounds());
        let ray = Ray::new(Vec3::new(5.2, 3.0, 5.2), -Vec3::Y);
        let reference = bvh.intersect(&ray, TraversalKind::ClosestHit).hit.unwrap();
        let first = trace(&mut p, &bvh, &ray, TraversalKind::ClosestHit);
        assert!((first.hit.unwrap().t - reference.t).abs() < 1e-4);
        let second = trace(&mut p, &bvh, &ray, TraversalKind::ClosestHit);
        assert_eq!(second.outcome, RayOutcome::Verified);
        assert!(
            (second.hit.unwrap().t - reference.t).abs() < 1e-4,
            "prediction-trimmed result must stay exact"
        );
    }

    #[test]
    fn stats_accumulate_across_rays() {
        let bvh = floor_bvh();
        let mut p = Predictor::new(immediate(), bvh.bounds());
        let ray = Ray::new(Vec3::new(7.3, 2.0, 7.3), -Vec3::Y);
        trace(&mut p, &bvh, &ray, TraversalKind::AnyHit);
        trace(&mut p, &bvh, &ray, TraversalKind::AnyHit);
        let s = p.stats();
        assert_eq!(s.rays, 2);
        assert_eq!(s.hits, 2);
        assert_eq!(s.predicted, 1);
        assert_eq!(s.verified, 1);
        assert!(s.prediction_eval_fetches >= 1);
    }
}
