//! Trace-level (functional) simulation of a whole ray workload.
//!
//! Where the paper reports *memory-access* and *rate* metrics (Figures
//! 1-left, 2, 14; Tables 5–8 rates) it does not need cycle timing — only
//! faithful counting of traversal work with and without the predictor.
//! [`FunctionalSim`] provides exactly that; the cycle-level model lives in
//! `rip-gpusim`.

use crate::{
    eval_probe, trace_with, Eq1Model, PredictionStats, Predictor, PredictorConfig, RayHasher,
    RayOutcome,
};
use rip_bvh::ript::{RayTraceSet, RecordedKernel};
use rip_bvh::{Bvh, NodeId, RayBatch, Traversal, TraversalKind, TraversalStats, WhileWhileKernel};
use rip_math::Ray;

/// Options orthogonal to the predictor configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Independent predictors (one per SM, §6.2.5); warps are distributed
    /// round-robin across them.
    pub num_predictors: usize,
    /// Rays per warp (Table 2).
    pub warp_size: usize,
    /// Classify baseline accesses into first-touch vs repeated (Figure 1
    /// left). Costs one bit per node/triangle.
    pub classify_accesses: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            num_predictors: 1,
            warp_size: 32,
            classify_accesses: true,
        }
    }
}

/// Aggregate results of a functional simulation.
#[derive(Clone, Debug, Default)]
pub struct FunctionalReport {
    /// Rays traced.
    pub rays: u64,
    /// Prediction outcome statistics (p, v, k, m, …).
    pub prediction: PredictionStats,
    /// Total cost of full traversals for every ray (the baseline).
    pub baseline: TraversalStats,
    /// Total cost actually paid under the predictor
    /// (prediction evaluation + fallbacks).
    pub with_predictor: TraversalStats,
    /// Prediction-evaluation cost alone (the `p·k·m` term).
    pub prediction_eval: TraversalStats,
    /// Prediction-evaluation cost of mispredicted rays (wasteful accesses,
    /// Figure 13).
    pub wasted_prediction_eval: TraversalStats,
    /// Baseline node fetches touching a node for the first time in the
    /// render.
    pub first_touch_node_fetches: u64,
    /// Baseline node fetches to already-touched nodes ("Repeated BVH Node
    /// Accesses", ~88% in Figure 1).
    pub repeated_node_fetches: u64,
    /// Baseline triangle fetches touching a triangle for the first time.
    pub first_touch_tri_fetches: u64,
    /// Baseline triangle fetches to already-touched triangles.
    pub repeated_tri_fetches: u64,
}

impl FunctionalReport {
    /// Fractional reduction of total memory accesses
    /// (`1 − with/baseline`); ~13% in §6.
    pub fn memory_savings(&self) -> f64 {
        savings(
            self.with_predictor.memory_accesses(),
            self.baseline.memory_accesses(),
        )
    }

    /// Fractional reduction of BVH node fetches.
    pub fn node_savings(&self) -> f64 {
        savings(
            self.with_predictor.node_fetches(),
            self.baseline.node_fetches(),
        )
    }

    /// Fractional reduction of triangle fetches.
    pub fn tri_savings(&self) -> f64 {
        savings(self.with_predictor.tri_fetches, self.baseline.tri_fetches)
    }

    /// Measured node fetches skipped per ray (the "Actual" column of
    /// Table 5).
    pub fn actual_nodes_skipped_per_ray(&self) -> f64 {
        if self.rays == 0 {
            return 0.0;
        }
        (self.baseline.node_fetches() as f64 - self.with_predictor.node_fetches() as f64)
            / self.rays as f64
    }

    /// The Equation 1 model instantiated from this run's measured averages
    /// (the "Estimated" column of Table 5).
    pub fn eq1_model(&self) -> Eq1Model {
        Eq1Model {
            p: self.prediction.predicted_rate(),
            v: self.prediction.verified_rate(),
            n: if self.rays == 0 {
                0.0
            } else {
                self.baseline.node_fetches() as f64 / self.rays as f64
            },
            k: self.prediction.mean_k(),
            m: self.prediction.mean_m(),
        }
    }

    /// Extra accesses introduced by the predictor as a fraction of the
    /// baseline (the "+9%" of §6).
    pub fn prediction_overhead_fraction(&self) -> f64 {
        if self.baseline.memory_accesses() == 0 {
            0.0
        } else {
            self.prediction_eval.memory_accesses() as f64 / self.baseline.memory_accesses() as f64
        }
    }

    /// Wasteful (mispredicted) accesses as a fraction of the baseline
    /// (the "5.5%" of §6).
    pub fn wasted_fraction(&self) -> f64 {
        if self.baseline.memory_accesses() == 0 {
            0.0
        } else {
            self.wasted_prediction_eval.memory_accesses() as f64
                / self.baseline.memory_accesses() as f64
        }
    }

    /// Fraction of baseline memory accesses that are repeated BVH node
    /// fetches (Figure 1 left, ~88%).
    pub fn repeated_node_access_fraction(&self) -> f64 {
        let total = self.first_touch_node_fetches
            + self.repeated_node_fetches
            + self.first_touch_tri_fetches
            + self.repeated_tri_fetches;
        if total == 0 {
            0.0
        } else {
            self.repeated_node_fetches as f64 / total as f64
        }
    }
}

fn savings(with: u64, without: u64) -> f64 {
    if without == 0 {
        0.0
    } else {
        1.0 - with as f64 / without as f64
    }
}

/// Functional (trace-level) simulator.
#[derive(Clone, Debug)]
pub struct FunctionalSim {
    config: PredictorConfig,
    options: SimOptions,
}

impl FunctionalSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics when the predictor configuration is invalid or
    /// `num_predictors`/`warp_size` is zero.
    pub fn new(config: PredictorConfig, options: SimOptions) -> Self {
        config.validate().expect("invalid predictor configuration");
        assert!(options.num_predictors > 0, "need at least one predictor");
        assert!(options.warp_size > 0, "warp size must be positive");
        FunctionalSim { config, options }
    }

    /// Runs an occlusion (any-hit) workload; the paper's primary AO
    /// experiment. Convenience wrapper over [`FunctionalSim::run_batch`].
    pub fn run(&self, bvh: &Bvh, rays: &[Ray]) -> FunctionalReport {
        self.run_batch(bvh, &RayBatch::from_rays(rays))
    }

    /// Runs an occlusion (any-hit) workload over an SoA ray batch.
    pub fn run_batch(&self, bvh: &Bvh, batch: &RayBatch) -> FunctionalReport {
        self.run_kind(bvh, batch, TraversalKind::AnyHit, None, None)
    }

    /// The ray hasher this simulator's predictors use over `bvh`'s scene
    /// bounds. Exposed so batch drivers can precompute and memoize a
    /// workload's hash stream (see [`FunctionalSim::hash_batch`]) keyed
    /// by [`RayHasher::fingerprint`].
    pub fn hasher(&self, bvh: &Bvh) -> RayHasher {
        RayHasher::new(self.config.hash, bvh.bounds())
    }

    /// Hashes every ray of `batch` with this simulator's hasher — the
    /// stream accepted by the `*_hashed` run entry points. The hash is a
    /// pure per-ray function, so one stream serves every run of the same
    /// workload under the same hash configuration (a parameter sweep
    /// re-hashes nothing).
    pub fn hash_batch(&self, bvh: &Bvh, batch: &RayBatch) -> Vec<u32> {
        let hasher = self.hasher(bvh);
        (0..batch.len())
            .map(|i| hasher.hash(&batch.ray(i)))
            .collect()
    }

    /// [`FunctionalSim::run_batch`] with a precomputed hash stream from
    /// [`FunctionalSim::hash_batch`]. The report is byte-identical to the
    /// unhashed run.
    ///
    /// # Panics
    ///
    /// Panics when `hashes` does not cover the batch.
    pub fn run_batch_hashed(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        hashes: &[u32],
    ) -> FunctionalReport {
        self.check_hashes(bvh, batch, hashes);
        self.run_kind(bvh, batch, TraversalKind::AnyHit, None, Some(hashes))
    }

    fn check_hashes(&self, bvh: &Bvh, batch: &RayBatch, hashes: &[u32]) {
        assert_eq!(
            hashes.len(),
            batch.len(),
            "hash stream does not cover the batch"
        );
        // Spot-check the stream against this simulator's hasher; a full
        // check would cost what the precomputation saved.
        if let Some(first) = hashes.first() {
            debug_assert_eq!(
                *first,
                self.hasher(bvh).hash(&batch.ray(0)),
                "hash stream was computed by a different hasher"
            );
        }
    }

    /// [`FunctionalSim::run_batch`] with every full traversal — the
    /// baseline and the not-predicted / mispredicted fallbacks — replayed
    /// from a recorded [`RayTraceSet`] instead of stepping the BVH. The
    /// report is byte-identical to the live run (the trace records the
    /// exact node/triangle streams); only prediction probes and trimmed
    /// legs, which depend on live predictor state, still traverse.
    ///
    /// # Errors
    ///
    /// Returns the mismatch when `trace` was not captured for any-hit
    /// over exactly this BVH and batch.
    pub fn run_batch_replay(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        trace: &RayTraceSet,
    ) -> Result<FunctionalReport, String> {
        self.check_trace(bvh, batch, trace, TraversalKind::AnyHit)?;
        Ok(self.run_kind(bvh, batch, TraversalKind::AnyHit, Some(trace), None))
    }

    /// [`FunctionalSim::run_batch_replay`] with a precomputed hash stream
    /// (see [`FunctionalSim::run_batch_hashed`]).
    ///
    /// # Errors
    ///
    /// Returns the mismatch when `trace` was not captured for any-hit
    /// over exactly this BVH and batch.
    ///
    /// # Panics
    ///
    /// Panics when `hashes` does not cover the batch.
    pub fn run_batch_replay_hashed(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        trace: &RayTraceSet,
        hashes: &[u32],
    ) -> Result<FunctionalReport, String> {
        self.check_hashes(bvh, batch, hashes);
        self.check_trace(bvh, batch, trace, TraversalKind::AnyHit)?;
        Ok(self.run_kind(bvh, batch, TraversalKind::AnyHit, Some(trace), Some(hashes)))
    }

    /// Runs a closest-hit workload with prediction-based ray trimming
    /// (GI, §6.4). Convenience wrapper over
    /// [`FunctionalSim::run_closest_batch`].
    pub fn run_closest(&self, bvh: &Bvh, rays: &[Ray]) -> FunctionalReport {
        self.run_closest_batch(bvh, &RayBatch::from_rays(rays))
    }

    /// Runs a closest-hit workload over an SoA ray batch.
    pub fn run_closest_batch(&self, bvh: &Bvh, batch: &RayBatch) -> FunctionalReport {
        self.run_kind(bvh, batch, TraversalKind::ClosestHit, None, None)
    }

    /// [`FunctionalSim::run_closest_batch`] replaying full traversals
    /// from a recorded closest-hit [`RayTraceSet`] (see
    /// [`FunctionalSim::run_batch_replay`]). Trimmed verified legs carry
    /// a live-state-dependent `t_max` no trace can record; they fall back
    /// to live traversal inside the kernel, keeping the report
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Returns the mismatch when `trace` was not captured for closest-hit
    /// over exactly this BVH and batch.
    pub fn run_closest_batch_replay(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        trace: &RayTraceSet,
    ) -> Result<FunctionalReport, String> {
        self.check_trace(bvh, batch, trace, TraversalKind::ClosestHit)?;
        Ok(self.run_kind(bvh, batch, TraversalKind::ClosestHit, Some(trace), None))
    }

    fn check_trace(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        trace: &RayTraceSet,
        kind: TraversalKind,
    ) -> Result<(), String> {
        if trace.kind() != kind {
            return Err(format!(
                "trace records {:?} but the workload is {kind:?}",
                trace.kind()
            ));
        }
        trace.attach(bvh, batch)
    }

    fn run_kind(
        &self,
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
        replay: Option<&RayTraceSet>,
        hashes: Option<&[u32]>,
    ) -> FunctionalReport {
        let mut predictors: Vec<Predictor> = (0..self.options.num_predictors)
            .map(|_| Predictor::new(self.config, bvh.bounds()))
            .collect();
        let mut report = FunctionalReport {
            rays: batch.len() as u64,
            ..Default::default()
        };
        // First-touch tracking is only consulted when classification is
        // on; skip zeroing scene-sized buffers otherwise.
        let (mut node_seen, mut tri_seen) = if self.options.classify_accesses {
            (
                vec![false; bvh.node_count()],
                vec![false; bvh.triangle_count()],
            )
        } else {
            (Vec::new(), Vec::new())
        };
        // Triangles a live leaf step tested, reused across steps.
        let mut tested = Vec::new();

        for i in 0..batch.len() {
            let ray = &batch.ray(i);
            let warp = i / self.options.warp_size;
            let predictor = &mut predictors[warp % self.options.num_predictors];

            let hash = match hashes {
                Some(h) => h[i],
                None => predictor.hash_ray(ray),
            };
            let trace = match replay {
                None => {
                    let mut kernel = WhileWhileKernel::new(bvh);
                    trace_with(predictor, bvh, &mut kernel, ray, kind, hash, &mut |n| {
                        eval_probe(bvh, ray, n)
                    })
                }
                Some(set) => {
                    let mut kernel = RecordedKernel::new(bvh, set, i, ray);
                    trace_with(predictor, bvh, &mut kernel, ray, kind, hash, &mut |n| {
                        memoized_probe(set, i, bvh, ray, n)
                    })
                }
            };
            report.with_predictor += trace.prediction_stats;
            report.with_predictor += trace.fallback_stats;
            report.prediction_eval += trace.prediction_stats;
            if trace.outcome == RayOutcome::Mispredicted {
                report.wasted_prediction_eval += trace.prediction_stats;
            }

            // Baseline: the full traversal this ray would have done alone.
            // For non-verified occlusion rays the fallback *is* the full
            // traversal; verified rays (and all closest-hit rays, whose
            // fallback was trimmed) need a separate baseline run.
            let baseline_stats = if kind == TraversalKind::AnyHit
                && trace.outcome != RayOutcome::Verified
                && !self.options.classify_accesses
            {
                trace.fallback_stats
            } else if let Some(set) = replay {
                // The recorded streams are the baseline traversal: walk
                // them for first-touch classification without re-stepping.
                if self.options.classify_accesses {
                    let mut leaf_visit = 0usize;
                    let counts = set.leaf_prefix_counts(i);
                    for &raw in set.node_steps(i) {
                        let node_id = NodeId::new(raw);
                        let idx = node_id.index() as usize;
                        if node_seen[idx] {
                            report.repeated_node_fetches += 1;
                        } else {
                            node_seen[idx] = true;
                            report.first_touch_node_fetches += 1;
                        }
                        if bvh.node(node_id).is_leaf() {
                            let tested = counts[leaf_visit] as usize;
                            leaf_visit += 1;
                            for (t, _) in bvh.leaf_triangles(node_id).take(tested) {
                                if tri_seen[t as usize] {
                                    report.repeated_tri_fetches += 1;
                                } else {
                                    tri_seen[t as usize] = true;
                                    report.first_touch_tri_fetches += 1;
                                }
                            }
                        }
                    }
                }
                set.full_result(i).stats
            } else {
                let mut traversal = Traversal::new(kind);
                if self.options.classify_accesses {
                    while let Some(node_id) = traversal.current_request() {
                        let idx = node_id.index() as usize;
                        if node_seen[idx] {
                            report.repeated_node_fetches += 1;
                        } else {
                            node_seen[idx] = true;
                            report.first_touch_node_fetches += 1;
                        }
                        tested.clear();
                        traversal.step(bvh, ray, &mut tested);
                        for &t in &tested {
                            if tri_seen[t as usize] {
                                report.repeated_tri_fetches += 1;
                            } else {
                                tri_seen[t as usize] = true;
                                report.first_touch_tri_fetches += 1;
                            }
                        }
                    }
                    traversal.stats()
                } else {
                    traversal.run(bvh, ray).stats
                }
            };
            report.baseline += baseline_stats;
        }

        for p in predictors {
            report.prediction += p.stats();
        }
        report
    }
}

/// The replay-path probe evaluator: single-seed-node probes (the common
/// shape — training stores one Go-Up-Level ancestor) are memoized on the
/// trace set, because across a sweep the same ray is almost always handed
/// the same predicted node. Multi-node candidate sets evaluate directly.
/// Either way the returned result is exactly [`eval_probe`]'s, so
/// replayed reports stay byte-identical to live runs.
pub(crate) fn memoized_probe(
    set: &RayTraceSet,
    ray_index: usize,
    bvh: &Bvh,
    ray: &Ray,
    nodes: &[NodeId],
) -> rip_bvh::TraversalResult {
    match nodes {
        [node] => set.probe_cached(ray_index as u32, *node, || eval_probe(bvh, ray, nodes)),
        _ => eval_probe(bvh, ray, nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rip_math::{Triangle, Vec3};

    fn floor_bvh() -> Bvh {
        let mut tris = Vec::new();
        for i in 0..24 {
            for j in 0..24 {
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

    /// AO-like workload: 4 hemisphere rays per hit point, hit points packed
    /// into a region small enough that the 15-bit hash space is densely
    /// trained (the paper achieves density with 4.2M rays; tests shrink the
    /// region instead).
    fn ao_like_rays(n: usize, seed: u64) -> Vec<Ray> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rays = Vec::with_capacity(n);
        while rays.len() < n {
            let o = Vec3::new(
                rng.gen_range(4.0..10.0),
                rng.gen_range(0.3..0.8),
                rng.gen_range(4.0..10.0),
            );
            for _ in 0..4 {
                // Downward AO rays from a virtual surface above the floor.
                let d =
                    rip_math::sampling::cosine_hemisphere_around(-Vec3::Y, rng.gen(), rng.gen());
                rays.push(Ray::segment(o, d, 6.0));
                if rays.len() == n {
                    break;
                }
            }
        }
        rays
    }

    fn quick_config() -> PredictorConfig {
        PredictorConfig {
            update_delay: 8,
            ..PredictorConfig::paper_default()
        }
    }

    #[test]
    fn predictor_saves_node_fetches_on_coherent_ao() {
        let bvh = floor_bvh();
        let rays = ao_like_rays(3000, 7);
        let sim = FunctionalSim::new(quick_config(), SimOptions::default());
        let report = sim.run(&bvh, &rays);
        assert!(
            report.prediction.verified_rate() > 0.1,
            "v = {}",
            report.prediction.verified_rate()
        );
        assert!(
            report.node_savings() > 0.0,
            "node savings {}",
            report.node_savings()
        );
        assert!(report.with_predictor.node_fetches() < report.baseline.node_fetches());
    }

    #[test]
    fn repeated_accesses_dominate_baseline() {
        // The Figure-1 observation: most accesses are to already-seen nodes.
        let bvh = floor_bvh();
        let rays = ao_like_rays(3000, 11);
        let sim = FunctionalSim::new(quick_config(), SimOptions::default());
        let report = sim.run(&bvh, &rays);
        assert!(
            report.repeated_node_access_fraction() > 0.5,
            "repeated fraction {}",
            report.repeated_node_access_fraction()
        );
    }

    #[test]
    fn eq1_estimate_tracks_actual() {
        let bvh = floor_bvh();
        let rays = ao_like_rays(4000, 13);
        let sim = FunctionalSim::new(quick_config(), SimOptions::default());
        let report = sim.run(&bvh, &rays);
        let est = report.eq1_model().estimated_nodes_skipped();
        let actual = report.actual_nodes_skipped_per_ray();
        assert!(
            (est - actual).abs() < 0.5 * actual.abs().max(1.0),
            "Equation 1 estimate {est} too far from actual {actual}"
        );
    }

    #[test]
    fn oracle_ladder_is_monotone() {
        let bvh = floor_bvh();
        let rays = ao_like_rays(2500, 17);
        let mut savings = Vec::new();
        for oracle in [
            crate::OracleMode::None,
            crate::OracleMode::Lookup,
            crate::OracleMode::UnboundedTraining,
            crate::OracleMode::ImmediateUpdates,
        ] {
            let sim = FunctionalSim::new(quick_config().with_oracle(oracle), SimOptions::default());
            let report = sim.run(&bvh, &rays);
            savings.push(report.memory_savings());
        }
        // Each idealization step should not hurt (allow small noise).
        for w in savings.windows(2) {
            assert!(
                w[1] >= w[0] - 0.02,
                "oracle ladder not monotone: {savings:?}"
            );
        }
    }

    #[test]
    fn more_predictors_reduce_sharing() {
        // §6.2.5: segregating rays across more per-SM predictors reduces
        // prediction opportunities.
        let bvh = floor_bvh();
        let rays = ao_like_rays(4000, 23);
        let one = FunctionalSim::new(quick_config(), SimOptions::default()).run(&bvh, &rays);
        let many = FunctionalSim::new(
            quick_config(),
            SimOptions {
                num_predictors: 8,
                ..SimOptions::default()
            },
        )
        .run(&bvh, &rays);
        assert!(
            many.prediction.verified_rate() <= one.prediction.verified_rate() + 0.02,
            "8 SMs ({}) should not verify more than 1 SM ({})",
            many.prediction.verified_rate(),
            one.prediction.verified_rate()
        );
    }

    #[test]
    fn replay_report_is_byte_identical_to_live() {
        let bvh = floor_bvh();
        let rays = ao_like_rays(2000, 31);
        let batch = RayBatch::from_rays(&rays);
        for classify in [false, true] {
            let sim = FunctionalSim::new(
                quick_config(),
                SimOptions {
                    classify_accesses: classify,
                    ..SimOptions::default()
                },
            );
            let live = sim.run_batch(&bvh, &batch);
            let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
            let replayed = sim.run_batch_replay(&bvh, &batch, &set).unwrap();
            assert_eq!(
                format!("{live:?}"),
                format!("{replayed:?}"),
                "replay diverged (classify_accesses: {classify})"
            );

            let live_closest = sim.run_closest_batch(&bvh, &batch);
            let set = RayTraceSet::capture(&bvh, &batch, TraversalKind::ClosestHit);
            let replayed = sim.run_closest_batch_replay(&bvh, &batch, &set).unwrap();
            assert_eq!(
                format!("{live_closest:?}"),
                format!("{replayed:?}"),
                "closest-hit replay diverged (classify_accesses: {classify})"
            );
        }
    }

    #[test]
    fn replay_rejects_mismatched_trace() {
        let bvh = floor_bvh();
        let batch = RayBatch::from_rays(&ao_like_rays(256, 37));
        let other = RayBatch::from_rays(&ao_like_rays(256, 38));
        let sim = FunctionalSim::new(quick_config(), SimOptions::default());
        let wrong_rays = RayTraceSet::capture(&bvh, &other, TraversalKind::AnyHit);
        assert!(sim.run_batch_replay(&bvh, &batch, &wrong_rays).is_err());
        let wrong_kind = RayTraceSet::capture(&bvh, &batch, TraversalKind::ClosestHit);
        let err = sim.run_batch_replay(&bvh, &batch, &wrong_kind).unwrap_err();
        assert!(err.contains("ClosestHit"), "{err}");
    }

    #[test]
    fn closest_hit_workload_stays_exact() {
        let bvh = floor_bvh();
        let rays = ao_like_rays(500, 29);
        let sim = FunctionalSim::new(quick_config(), SimOptions::default());
        let report = sim.run_closest(&bvh, &rays);
        assert_eq!(report.rays, 500);
        // Trimming may only reduce work, never change hit counts vs
        // baseline hit counting (checked via rates being sane).
        assert!(report.prediction.hit_rate() > 0.5);
    }
}
