//! The predictor as a composable wrapper kernel.
//!
//! [`Predicted<K>`] wraps any [`TraversalKernel`] with the §3 prediction /
//! verification / fallback flow: lookups and verification probes run the
//! seeded stack traversal (the hardware mechanism), while the full root
//! traversal paid by not-predicted and mispredicted rays is delegated to
//! the wrapped kernel. That composes Grid-Spherical / Two-Point prediction
//! with while-while, stackless and wide traversal alike — the wide-BVH ×
//! predictor cross experiment the paper's §7 anticipates ("these
//! techniques should also work in parallel with our proposed ray
//! intersection predictor").
//!
//! Because the wrapper implements [`TraversalKernel`] itself, a
//! `Predicted<K>` drops into any batch pipeline; transparency (same hits
//! as the bare kernel, bit for bit) is enforced by `rip-testkit`'s
//! invariants for all three BVH kernels.

use crate::traverse::{eval_probe, trace_with, PredictedTrace};
use crate::{ConcurrentPredictorTable, PredictionStats, Predictor, PredictorConfig};
use rip_bvh::{Bvh, TraversalKernel, TraversalKind, TraversalResult};
use rip_math::Ray;
use std::sync::Arc;

/// A traversal kernel accelerated by the intersection predictor.
///
/// # Examples
///
/// ```
/// use rip_bvh::{Bvh, RayBatch, StacklessKernel, TraversalKernel};
/// use rip_core::{Predicted, PredictorConfig};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let config = PredictorConfig { update_delay: 0, ..PredictorConfig::paper_default() };
/// let mut kernel = Predicted::new(&bvh, config, StacklessKernel::new(&bvh));
/// let batch = RayBatch::from_rays(&[Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z)]);
/// // First pass trains, second pass verifies — hits identical throughout.
/// let cold = kernel.any_hit_batch(&batch);
/// let warm = kernel.any_hit_batch(&batch);
/// assert_eq!(cold[0].hit, warm[0].hit);
/// assert!(warm[0].stats.node_fetches() <= cold[0].stats.node_fetches());
/// ```
#[derive(Debug)]
pub struct Predicted<'a, K> {
    bvh: &'a Bvh,
    predictor: Predictor,
    kernel: K,
    obs: Arc<rip_obs::Obs>,
    /// Predictor stats already mirrored into the registry, so each
    /// trace adds exactly its own delta (registry == stats always).
    mirrored: PredictionStats,
}

impl<'a, K: TraversalKernel> Predicted<'a, K> {
    /// Wraps `kernel` with a fresh predictor configured by `config`. The
    /// `bvh` is the tree predictions are trained on and probed against —
    /// for the wide kernel, the binary tree it was collapsed from.
    pub fn new(bvh: &'a Bvh, config: PredictorConfig, kernel: K) -> Self {
        Predicted::with_predictor(bvh, Predictor::new(config, bvh.bounds()), kernel)
    }

    /// Wraps `kernel` with a predictor that learns into `table`, a
    /// [`ConcurrentPredictorTable`] concurrently driven by other
    /// predictors — the `rip-serve` shape, where in-flight requests from
    /// different tenants train one sharded table and benefit from each
    /// other's ray locality.
    pub fn with_shared_table(
        bvh: &'a Bvh,
        config: PredictorConfig,
        table: Arc<ConcurrentPredictorTable>,
        kernel: K,
    ) -> Self {
        Predicted::with_predictor(
            bvh,
            Predictor::with_shared_table(config, bvh.bounds(), table),
            kernel,
        )
    }

    /// Wraps `kernel` around an existing (possibly pre-trained) predictor.
    pub fn with_predictor(bvh: &'a Bvh, predictor: Predictor, kernel: K) -> Self {
        let mirrored = predictor.stats();
        Predicted {
            predictor,
            bvh,
            kernel,
            obs: Arc::clone(rip_obs::Obs::global()),
            mirrored,
        }
    }

    /// Routes this kernel's `predictor.*` counters to `obs` instead of
    /// the process-wide default instance.
    pub fn with_obs(mut self, obs: Arc<rip_obs::Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Traces one ray, returning the full per-ray predictor accounting
    /// (outcome, split prediction/fallback stats, `k`).
    ///
    /// After every trace the predictor's cumulative
    /// [`PredictionStats`] are mirrored field-for-field into the
    /// attached [`Obs`](rip_obs::Obs) registry under `predictor.*`.
    pub fn trace_detailed(&mut self, ray: &Ray, kind: TraversalKind) -> PredictedTrace {
        let hash = self.predictor.hash_ray(ray);
        let bvh = self.bvh;
        let trace = trace_with(
            &mut self.predictor,
            bvh,
            &mut self.kernel,
            ray,
            kind,
            hash,
            &mut |nodes| eval_probe(bvh, ray, nodes),
        );
        self.mirror_stats();
        trace
    }

    /// Adds the not-yet-mirrored slice of the predictor's stats to the
    /// registry (saturating, so a caller resetting stats via
    /// [`Predicted::predictor_mut`] re-baselines instead of panicking).
    fn mirror_stats(&mut self) {
        let now = self.predictor.stats();
        let last = self.mirrored;
        let obs = &self.obs;
        obs.add("predictor.rays", now.rays.saturating_sub(last.rays));
        obs.add("predictor.hits", now.hits.saturating_sub(last.hits));
        obs.add(
            "predictor.predicted",
            now.predicted.saturating_sub(last.predicted),
        );
        obs.add(
            "predictor.verified",
            now.verified.saturating_sub(last.verified),
        );
        obs.add(
            "predictor.predicted_nodes_evaluated",
            now.predicted_nodes_evaluated
                .saturating_sub(last.predicted_nodes_evaluated),
        );
        obs.add(
            "predictor.prediction_eval_fetches",
            now.prediction_eval_fetches
                .saturating_sub(last.prediction_eval_fetches),
        );
        self.mirrored = now;
    }

    /// The predictor state (tables, prediction statistics).
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Mutable predictor access (for pre-training or stat resets).
    pub fn predictor_mut(&mut self) -> &mut Predictor {
        &mut self.predictor
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The BVH predictions are trained on.
    pub fn bvh(&self) -> &'a Bvh {
        self.bvh
    }
}

impl<K: TraversalKernel> TraversalKernel for Predicted<'_, K> {
    fn name(&self) -> String {
        format!("predicted({})", self.kernel.name())
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        let trace = self.trace_detailed(ray, kind);
        TraversalResult {
            hit: trace.hit,
            stats: trace.total_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RayOutcome;
    use rip_bvh::{RayBatch, StacklessKernel, WhileWhileKernel, WideBvh, WideKernel};
    use rip_math::{Triangle, Vec3};

    fn floor() -> Vec<Triangle> {
        let mut tris = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        tris
    }

    fn down_rays(n: usize) -> Vec<Ray> {
        (0..n)
            .map(|i| {
                let x = 0.3 + (i % 11) as f32;
                let z = 0.7 + (i % 7) as f32;
                Ray::new(Vec3::new(x, 2.0, z), -Vec3::Y)
            })
            .collect()
    }

    fn eager() -> PredictorConfig {
        PredictorConfig {
            update_delay: 0,
            ..PredictorConfig::paper_default()
        }
    }

    #[test]
    fn composes_with_all_three_bvh_kernels() {
        let tris = floor();
        let bvh = Bvh::build(&tris);
        let wide = WideBvh::from_binary(&bvh);
        let batch = RayBatch::from_rays(&down_rays(80));

        let mut reference = WhileWhileKernel::new(&bvh);
        let plain = reference.any_hit_batch(&batch);

        let mut ww = Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh));
        let mut sl = Predicted::new(&bvh, eager(), StacklessKernel::new(&bvh));
        let mut wd = Predicted::new(&bvh, eager(), WideKernel::new(&wide, &bvh));
        for (name, kernel) in [
            ("ww", &mut ww as &mut dyn TraversalKernel),
            ("sl", &mut sl),
            ("wd", &mut wd),
        ] {
            // Two passes: train, then verify. Hits must match the bare
            // kernel on both.
            for pass in 0..2 {
                let got = kernel.any_hit_batch(&batch);
                for (i, (g, p)) in got.iter().zip(&plain).enumerate() {
                    assert_eq!(
                        g.hit.map(|h| h.tri_index.min(1)),
                        p.hit.map(|h| h.tri_index.min(1)),
                        "{name} pass {pass} ray {i}: occlusion answer changed"
                    );
                }
            }
        }
        for wrapped in [
            ww.predictor().stats().verified,
            sl.predictor().stats().verified,
            wd.predictor().stats().verified,
        ] {
            assert!(wrapped > 0, "second pass should verify rays");
        }
    }

    #[test]
    fn verified_rays_elide_fallback() {
        let bvh = Bvh::build(&floor());
        let mut k = Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh));
        let ray = Ray::new(Vec3::new(5.3, 2.0, 5.3), -Vec3::Y);
        let first = k.trace_detailed(&ray, TraversalKind::AnyHit);
        assert_eq!(first.outcome, RayOutcome::NotPredicted);
        let second = k.trace_detailed(&ray, TraversalKind::AnyHit);
        assert_eq!(second.outcome, RayOutcome::Verified);
        assert_eq!(second.fallback_stats.node_fetches(), 0);
    }

    #[test]
    fn name_reflects_composition() {
        let bvh = Bvh::build(&floor());
        let k = Predicted::new(&bvh, eager(), StacklessKernel::new(&bvh));
        assert_eq!(k.name(), "predicted(stackless)");
    }

    #[test]
    fn closest_hit_stays_exact_under_wide_composition() {
        let tris = floor();
        let bvh = Bvh::build(&tris);
        let wide = WideBvh::from_binary(&bvh);
        let rays = down_rays(60);
        let mut k = Predicted::new(&bvh, eager(), WideKernel::new(&wide, &bvh));
        for pass in 0..2 {
            for (i, ray) in rays.iter().enumerate() {
                let got = k.trace(ray, TraversalKind::ClosestHit);
                let want = bvh.intersect(ray, TraversalKind::ClosestHit);
                assert_eq!(
                    got.hit.map(|h| (h.t.to_bits(), h.tri_index)),
                    want.hit.map(|h| (h.t.to_bits(), h.tri_index)),
                    "pass {pass} ray {i}: closest hit drifted"
                );
            }
        }
    }
}
