//! The §3 prediction / verification / fallback flow for a single ray.
//!
//! [`PredictedRay`] holds the flow's decisions and advances one traversal
//! leg at a time; the caller owns the legs. [`trace_with`] runs it with
//! functional kernels, and `rip-gpusim` steps it one leg event per warp
//! iteration, so both simulators share one flow.
//!
//! Prediction probes always run on the steppable [`Traversal`] seeded via
//! `Traversal::from_nodes` (that *is* the hardware mechanism — predicted
//! nodes are pushed onto the ray's traversal stack, §3), while the full
//! root traversal paid by not-predicted and mispredicted rays goes through
//! whichever kernel the caller composes with — while-while, stackless or
//! wide. [`trace`] binds the while-while fallback, the ray's own hash and
//! the live probe; [`FunctionalSim`](crate::FunctionalSim) binds a kernel
//! that answers the full traversal from the one result it computed or
//! replayed for the ray's baseline.

use crate::{NodeCandidates, OracleMode, Prediction, PredictionStats, Predictor};
use rip_bvh::{
    Bvh, Hit, NodeId, Traversal, TraversalKernel, TraversalKind, TraversalResult, TraversalStats,
    WhileWhileKernel,
};
use rip_math::Ray;

/// Per-ray predictor outcome (§3 terminology).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RayOutcome {
    /// No table entry matched; the ray performed the full traversal.
    #[default]
    NotPredicted,
    /// The ray found an intersection starting from the predicted nodes —
    /// the interior traversal was elided.
    Verified,
    /// A prediction existed but did not verify; the ray paid the prediction
    /// evaluation *and* the full traversal.
    Mispredicted,
}

/// Result of tracing one ray through the predictor flow.
#[derive(Clone, Copy, Debug, Default)]
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
    /// All work this ray paid under the predictor: the prediction
    /// evaluation plus the fallback.
    pub fn total_stats(&self) -> TraversalStats {
        let mut stats = self.prediction_stats;
        stats += self.fallback_stats;
        stats
    }
}

/// Evaluates a predicted probe: a seeded any-hit traversal of the
/// predicted nodes (the hardware mechanism of §3 — predicted nodes are
/// pushed onto the ray's traversal stack). Pure in `(bvh, ray, nodes)`;
/// the replay path memoizes it per trace set.
pub fn eval_probe(bvh: &Bvh, ray: &Ray, nodes: &[NodeId]) -> TraversalResult {
    Traversal::from_nodes(TraversalKind::AnyHit, nodes).run(bvh, ray)
}

/// Builds the leaf-to-root ancestor chain (`chain[0]` = the leaf).
pub(crate) fn ancestor_chain(bvh: &Bvh, leaf: NodeId) -> Vec<NodeId> {
    let mut chain = vec![leaf];
    while let Some(p) = bvh.node(*chain.last().expect("nonempty")).parent() {
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

/// Traces one ray through the predictor flow of Figure 4 by running a
/// [`PredictedRay`] to completion: probes through `probe`, full legs
/// through `kernel`. A verified occlusion ray (`AnyHit`) skips the
/// interior traversal; a verified closest-hit ray (§6.4) instead *trims
/// its maximum length* to the probe's hit before a full traversal, which
/// then culls far subtrees.
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
/// rewarded. Closest-hit rays always use the hashed lookup. The oracle
/// and the trim are the functional simulator's own branches.
pub fn trace_with(
    predictor: &mut Predictor,
    bvh: &Bvh,
    kernel: &mut dyn TraversalKernel,
    ray: &Ray,
    kind: TraversalKind,
    hash: u32,
    probe: &mut dyn FnMut(&[NodeId]) -> TraversalResult,
) -> PredictedTrace {
    // The oracle's ground truth is also the full traversal a
    // not-predicted ray pays, so it runs on the composed kernel.
    let mut truth = None;
    let (mut flow, first) =
        if kind == TraversalKind::AnyHit && predictor.config().oracle != OracleMode::None {
            predictor.begin_ray();
            let full = kernel.trace(ray, kind);
            let prediction = full
                .hit
                .and_then(|hit| predictor.oracle_lookup(ray, &ancestor_chain(bvh, hit.leaf)));
            truth = Some(full);
            PredictedRay::start(hash, prediction, false)
        } else {
            PredictedRay::begin(Some(&mut *predictor), hash)
        };
    let mut next = Some(first);
    while let Some(leg) = next {
        let result = match leg {
            Leg::Probe(nodes) => {
                let result = probe(&nodes);
                debug_assert!(
                    truth.is_none() || result.hit.is_some(),
                    "oracle prediction must verify"
                );
                result
            }
            Leg::Full => truth.take().unwrap_or_else(|| kernel.trace(ray, kind)),
        };
        next = flow.end_leg(result.hit, result.stats);
    }
    let trace = &mut flow.trace;
    if let (TraversalKind::ClosestHit, RayOutcome::Verified, Some(phit)) =
        (kind, trace.outcome, trace.hit)
    {
        // Any intersection at `t` upper-bounds the closest hit, so it is
        // a conservative trim for the authoritative traversal.
        let full = kernel.trace(&ray.trimmed(phit.t * (1.0 + 1e-5)), kind);
        trace.fallback_stats = full.stats;
        trace.hit = full.hit.filter(|fhit| fhit.t <= phit.t).or(trace.hit);
    }
    let mut stats = predictor.stats();
    let trace = flow.finish(bvh, Some(predictor), &mut stats);
    *predictor.stats_mut() = stats;
    trace
}

/// The leg a [`PredictedRay`] runs next; the caller owns the traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Leg {
    /// An any-hit traversal seeded with the predicted nodes
    /// ([`eval_probe`]).
    Probe(NodeCandidates),
    /// A full traversal from the root.
    Full,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// A verified probe rewards its entry only when `rewards` (an
    /// oracle's prediction is not rewarded, §6.3).
    Probe {
        rewards: bool,
    },
    Full,
    Done,
}

/// One ray's §3 decisions, resumable one leg at a time: look up the
/// table, verify from the predicted nodes, fall back to the root on a
/// miss, then train on any hit. [`trace_with`] runs it to completion with
/// a kernel; the timing simulator advances it one leg event at a time.
#[derive(Clone, Copy, Debug)]
pub struct PredictedRay {
    hash: u32,
    phase: Phase,
    /// The leaf at which a rewarded prediction verified.
    reward: Option<NodeId>,
    /// The trace so far; a predicted ray reads `Mispredicted` until its
    /// probe verifies.
    trace: PredictedTrace,
}

impl PredictedRay {
    /// Starts a ray hashed to `hash` and returns its first leg. With a
    /// predictor this advances its ray clock ([`Predictor::begin_ray`])
    /// and looks the hash up; a baseline ray (`None`) runs a full leg.
    pub fn begin(predictor: Option<&mut Predictor>, hash: u32) -> (Self, Leg) {
        let prediction = predictor.and_then(|p| {
            p.begin_ray();
            p.lookup_hashed(hash)
        });
        Self::start(hash, prediction, true)
    }

    fn start(hash: u32, prediction: Option<Prediction>, rewards: bool) -> (Self, Leg) {
        let mut flow = PredictedRay {
            hash,
            phase: Phase::Full,
            reward: None,
            trace: PredictedTrace::default(),
        };
        let Some(prediction) = prediction else {
            return (flow, Leg::Full);
        };
        flow.phase = Phase::Probe { rewards };
        flow.trace.outcome = RayOutcome::Mispredicted;
        flow.trace.k = prediction.nodes.len() as u32;
        (flow, Leg::Probe(prediction.nodes))
    }

    /// Ends the running leg with its hit and statistics and returns the
    /// next leg, if any: a probe hit verifies the ray, a probe miss
    /// restarts from the root (§3), and a full leg finishes the ray.
    ///
    /// # Panics
    ///
    /// Panics when the ray is already done.
    pub fn end_leg(&mut self, hit: Option<Hit>, stats: TraversalStats) -> Option<Leg> {
        match self.phase {
            Phase::Probe { rewards } => {
                self.trace.prediction_stats = stats;
                let Some(verified) = hit else {
                    self.phase = Phase::Full;
                    return Some(Leg::Full);
                };
                self.trace.outcome = RayOutcome::Verified;
                self.reward = rewards.then_some(verified.leaf);
            }
            Phase::Full => self.trace.fallback_stats = stats,
            Phase::Done => panic!("end_leg on a finished ray"),
        }
        (self.trace.hit, self.phase) = (hit, Phase::Done);
        None
    }

    /// Whether the ray has run its last leg.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// The outcome so far; final once the ray is done.
    pub fn outcome(&self) -> RayOutcome {
        self.trace.outcome
    }

    /// Records the finished ray in `stats`; then, on a hit, rewards the
    /// entry a verified prediction came from and trains `predictor`
    /// under the ray's hash (with no predictor, neither).
    pub fn finish(
        self,
        bvh: &Bvh,
        predictor: Option<&mut Predictor>,
        stats: &mut PredictionStats,
    ) -> PredictedTrace {
        debug_assert!(self.is_done(), "finish before the last leg ended");
        let trace = self.trace;
        stats.rays += 1;
        stats.hits += u64::from(trace.hit.is_some());
        stats.predicted += u64::from(trace.outcome != RayOutcome::NotPredicted);
        stats.verified += u64::from(trace.outcome == RayOutcome::Verified);
        stats.predicted_nodes_evaluated += u64::from(trace.k);
        stats.prediction_eval_fetches += trace.prediction_stats.node_fetches();
        if let (Some(predictor), Some(hit)) = (predictor, trace.hit) {
            if let Some(leaf) = self.reward {
                predictor.reward(self.hash, leaf);
            }
            predictor.train(bvh, self.hash, hit.leaf);
        }
        trace
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::PredictorConfig;
    use rip_math::{Triangle, Vec3};

    /// A flat floor of `cells` × `cells` unit squares, two triangles each.
    pub(crate) fn floor_bvh_of(cells: usize) -> Bvh {
        let mut tris = Vec::new();
        for i in 0..cells {
            for j in 0..cells {
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

    fn floor_bvh() -> Bvh {
        floor_bvh_of(16)
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
            second.total_stats().node_fetches() < n_full,
            "verified ray ({}) must beat full traversal ({n_full})",
            second.total_stats().node_fetches()
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

    /// A downward ray's full traversal of the floor, and a predictor
    /// whose table predicts its hit under hash 7.
    fn trained_on_hash_7(bvh: &Bvh) -> (Predictor, TraversalResult) {
        let down = Ray::new(Vec3::new(7.3, 2.0, 7.3), -Vec3::Y);
        let full = bvh.intersect(&down, TraversalKind::AnyHit);
        let mut p = Predictor::new(immediate(), bvh.bounds());
        p.train(bvh, 7, full.hit.unwrap().leaf);
        (p, full)
    }

    #[test]
    fn lookup_transitions_and_misprediction_recovery() {
        let bvh = floor_bvh();
        let (mut p, full) = trained_on_hash_7(&bvh);
        let (flow, leg) = PredictedRay::begin(Some(&mut p), 8);
        assert_eq!((leg, flow.outcome()), (Leg::Full, RayOutcome::NotPredicted));
        let (mut flow, leg) = PredictedRay::begin(Some(&mut p), 7);
        assert!(matches!(leg, Leg::Probe(nodes) if nodes.len() == 1));
        // A predicted ray reads mispredicted until its probe verifies.
        assert_eq!(flow.outcome(), RayOutcome::Mispredicted);
        let probe = TraversalStats {
            leaf_fetches: 3,
            ..TraversalStats::default()
        };
        assert_eq!(flow.end_leg(None, probe), Some(Leg::Full));
        assert!(!flow.is_done());
        assert_eq!(flow.end_leg(full.hit, full.stats), None);
        assert!(flow.is_done());
        let mut s = PredictionStats::default();
        let t = flow.finish(&bvh, Some(&mut p), &mut s);
        assert_eq!(
            (t.outcome, t.hit, t.k),
            (RayOutcome::Mispredicted, full.hit, 1)
        );
        assert_eq!((t.prediction_stats, t.fallback_stats), (probe, full.stats));
        assert_eq!((s.rays, s.hits, s.predicted, s.verified), (1, 1, 1, 0));
        assert_eq!(
            (s.predicted_nodes_evaluated, s.prediction_eval_fetches),
            (1, 3)
        );
        // `finish` records into the sink it is given, not the predictor.
        assert_eq!(p.stats(), PredictionStats::default());
    }

    #[test]
    fn baseline_ray_skips_the_lookup_and_still_counts() {
        let bvh = floor_bvh();
        let (_, full) = trained_on_hash_7(&bvh);
        let (mut flow, leg) = PredictedRay::begin(None, 7);
        assert_eq!(leg, Leg::Full);
        assert_eq!(flow.end_leg(full.hit, full.stats), None);
        let mut s = PredictionStats::default();
        let t = flow.finish(&bvh, None, &mut s);
        assert_eq!((t.outcome, t.hit), (RayOutcome::NotPredicted, full.hit));
        assert_eq!(t.fallback_stats, full.stats);
        assert_eq!((s.rays, s.hits, s.predicted), (1, 1, 0));
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
