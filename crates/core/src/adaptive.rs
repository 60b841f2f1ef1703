//! Extension (§4.2 future work): adaptive hash-function selection.
//!
//! The paper leaves "combining multiple hash functions or adaptively
//! selecting the number of bits" to future work. This module implements a
//! tournament predictor in the spirit of combining branch predictors
//! (McFarling, whose gshare fold §4.1 already borrows): two half-size
//! predictor tables — one keyed by Grid Spherical, one by Two Point — and
//! a saturating selector counter that routes each ray's prediction to the
//! currently better-performing hash. Both tables train on every hit, so
//! the loser keeps learning and can win back the selector.
//!
//! The total storage matches the baseline budget: two 512-entry tables
//! cost the same 5.5 KB as the paper's single 1024-entry table.

use crate::{trace, PredictedTrace, Predictor, PredictorConfig, RayOutcome};
use rip_bvh::{Bvh, TraversalKind};
use rip_math::{Aabb, Ray};

/// Selector saturation bound (±).
const SELECTOR_MAX: i32 = 8;

/// A two-way tournament over hash functions at constant storage budget.
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_core::AdaptivePredictor;
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let mut adaptive = AdaptivePredictor::paper_budget(bvh.bounds());
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// let trace = adaptive.trace_occlusion(&bvh, &ray);
/// assert!(trace.hit.is_some());
/// ```
#[derive(Debug)]
pub struct AdaptivePredictor {
    grid: Predictor,
    two_point: Predictor,
    /// Positive favors the Grid Spherical table, negative Two Point.
    selector: i32,
    switches: u64,
}

impl AdaptivePredictor {
    /// Builds the tournament from two explicit configurations.
    ///
    /// # Panics
    ///
    /// Panics when either configuration is invalid.
    pub fn new(grid: PredictorConfig, two_point: PredictorConfig, scene_bounds: Aabb) -> Self {
        AdaptivePredictor {
            grid: Predictor::new(grid, scene_bounds),
            two_point: Predictor::new(two_point, scene_bounds),
            selector: 1, // mild initial bias toward the paper's default hash
            switches: 0,
        }
    }

    /// Two half-size (512-entry) tables within the paper's 5.5 KB budget:
    /// Grid Spherical 5/3 and Two Point 4 bits / ratio 0.15 (the two best
    /// configurations of Table 8).
    pub fn paper_budget(scene_bounds: Aabb) -> Self {
        let grid = PredictorConfig {
            entries: 512,
            ..PredictorConfig::paper_default()
        };
        let two_point = PredictorConfig {
            entries: 512,
            hash: crate::HashFunction::TwoPoint {
                origin_bits: 4,
                length_ratio: 0.15,
            },
            ..PredictorConfig::paper_default()
        };
        Self::new(grid, two_point, scene_bounds)
    }

    /// Which table the selector currently favors.
    pub fn favors_grid(&self) -> bool {
        self.selector >= 0
    }

    /// How many times the selector has flipped preference.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Combined outcome statistics (the favored table records each ray).
    pub fn stats(&self) -> crate::PredictionStats {
        let mut s = self.grid.stats();
        s.accumulate(&self.two_point.stats());
        s
    }

    /// Traces one occlusion ray through the favored table (full §3 flow),
    /// trains **both** tables from the result, and nudges the selector by
    /// the outcome: a verification reinforces the favored hash, a
    /// misprediction weakens it.
    pub fn trace_occlusion(&mut self, bvh: &Bvh, ray: &Ray) -> PredictedTrace {
        let favored_grid = self.favors_grid();
        let (favored, other) = if favored_grid {
            (&mut self.grid, &mut self.two_point)
        } else {
            (&mut self.two_point, &mut self.grid)
        };
        let trace = trace(favored, bvh, ray, TraversalKind::AnyHit);
        // Keep the loser learning: mirror the training (its own hash).
        other.begin_ray();
        if let Some(hit) = trace.hit {
            let hash = other.hash_ray(ray);
            other.train(bvh, hash, hit.leaf);
        }
        let delta = match trace.outcome {
            RayOutcome::Verified => 1,
            RayOutcome::Mispredicted => -1,
            RayOutcome::NotPredicted => 0,
        };
        // Reinforce toward the favored side, weaken away from it.
        let signed = if favored_grid { delta } else { -delta };
        let updated = (self.selector + signed).clamp(-SELECTOR_MAX, SELECTOR_MAX);
        if (updated >= 0) != (self.selector >= 0) {
            self.switches += 1;
        }
        self.selector = updated;
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::{Triangle, Vec3};

    fn ceiling_bvh() -> Bvh {
        let mut tris = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                if (i + j) % 4 == 0 {
                    continue;
                }
                let o = Vec3::new(i as f32, 2.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
            }
        }
        Bvh::build(&tris)
    }

    fn rays(n: usize) -> Vec<Ray> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        (0..n)
            .map(|_| {
                let o = Vec3::new(rng.gen_range(2.0..8.0), 0.1, rng.gen_range(2.0..8.0));
                let d = rip_math::sampling::cosine_hemisphere_around(Vec3::Y, rng.gen(), rng.gen());
                Ray::segment(o, d, 6.0)
            })
            .collect()
    }

    #[test]
    fn adaptive_is_exact() {
        let bvh = ceiling_bvh();
        let mut adaptive = AdaptivePredictor::paper_budget(bvh.bounds());
        for ray in rays(800) {
            let reference = bvh
                .intersect(&ray, rip_bvh::TraversalKind::AnyHit)
                .hit
                .is_some();
            let trace = adaptive.trace_occlusion(&bvh, &ray);
            assert_eq!(reference, trace.hit.is_some());
        }
        let s = adaptive.stats();
        assert_eq!(s.rays, 800);
        assert!(s.verified <= s.predicted);
    }

    #[test]
    fn selector_saturates_and_can_switch() {
        let bvh = ceiling_bvh();
        let mut adaptive = AdaptivePredictor::paper_budget(bvh.bounds());
        for ray in rays(2000) {
            adaptive.trace_occlusion(&bvh, &ray);
        }
        // The tournament ran; whichever side won, the counter stayed in
        // bounds and at least kept a consistent preference.
        assert!(adaptive.selector.abs() <= SELECTOR_MAX);
    }

    #[test]
    fn both_tables_learn() {
        let bvh = ceiling_bvh();
        let mut adaptive = AdaptivePredictor::paper_budget(bvh.bounds());
        for ray in rays(500) {
            adaptive.trace_occlusion(&bvh, &ray);
        }
        // The non-favored table must have been trained too (its table
        // stats show insertions even when it answered no lookups).
        let grid_inserts = adaptive.grid.table_stats().insertions;
        let tp_inserts = adaptive.two_point.table_stats().insertions;
        assert!(grid_inserts > 0, "grid table never trained");
        assert!(tp_inserts > 0, "two-point table never trained");
    }
}
