//! The unified traversal-kernel interface and its shared building blocks.
//!
//! Before this module existed the repo carried four near-duplicate scalar
//! traversal loops (the steppable while-while [`Traversal`], the stackless
//! restart-trail, the 4-wide BVH and the predicted traversal in
//! `rip-core`), each re-deriving per-ray setup (reciprocal direction,
//! best-hit trimming) and repeating the leaf-test / tie-break / stats
//! plumbing. This module hoists that shared code into one place and fronts
//! every kernel with the [`TraversalKernel`] trait, whose batch entry
//! points consume the SoA [`RayBatch`] of
//! [`stream`](crate::stream):
//!
//! * `effective_ray` — the closest-hit `t_max` trim every loop applies,
//! * `fetch_interior` — one binary interior-node fetch: stats charge plus
//!   both child slab tests,
//! * `test_leaf_triangles` — the leaf loop: per-triangle fetch/test
//!   accounting, inclusive re-trimming against the best hit so far, the
//!   [`Hit::closer_than`] tie-break, and any-hit early termination,
//! * `run_while_while` — a tight (non-steppable) transcription of
//!   Algorithm 1 used by [`WhileWhileKernel`]; it visits nodes in exactly
//!   the order of [`Traversal::run`] and produces bit-identical hits and
//!   statistics, but allocates nothing per step and reuses the batch's
//!   precomputed reciprocal direction.
//!
//! Every kernel agrees exactly (same `t` bits, same triangle index, per the
//! shared tie-break) and the batched paths are bit-exact with their scalar
//! counterparts — `rip-testkit`'s differential oracles enforce both.

use crate::node::{NodeId, NodeKind};
use crate::stack::TraversalStack;
use crate::stats::TraversalStats;
use crate::stream::RayBatch;
use crate::traversal::{Hit, Traversal, TraversalKind, TraversalResult};
use crate::{stackless, Bvh, WideBvh};
use rip_math::{Aabb, Ray, Triangle, Vec3};

/// A traversal kernel: anything that can answer ray queries against a
/// scene, one ray at a time or over an SoA batch.
///
/// Implementations take `&mut self` so stateful kernels (the predictor
/// wrapper in `rip-core` trains its hash tables as it traces) compose
/// behind the same interface as the stateless BVH loops.
///
/// The batch methods default to per-ray [`TraversalKernel::trace`] calls;
/// kernels override them to hoist per-batch setup (precomputed reciprocal
/// directions). Overrides must stay bit-exact with the scalar path —
/// result `i` of a batch call equals `trace(&batch.ray(i), kind)` exactly,
/// hits and statistics alike.
///
/// # Examples
///
/// ```
/// use rip_bvh::{Bvh, RayBatch, TraversalKernel, WhileWhileKernel};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let batch = RayBatch::from_rays(&[Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z)]);
/// let mut kernel = WhileWhileKernel::new(&bvh);
/// let results = kernel.any_hit_batch(&batch);
/// assert!(results[0].hit.is_some());
/// ```
pub trait TraversalKernel {
    /// Human-readable kernel name for reports and benches.
    fn name(&self) -> String;

    /// Traces a single ray.
    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult;

    /// Traces every ray of a batch, in batch order.
    fn trace_batch(&mut self, batch: &RayBatch, kind: TraversalKind) -> Vec<TraversalResult> {
        (0..batch.len())
            .map(|i| self.trace(&batch.ray(i), kind))
            .collect()
    }

    /// Closest-hit query over a batch.
    fn closest_hit_batch(&mut self, batch: &RayBatch) -> Vec<TraversalResult> {
        self.trace_batch(batch, TraversalKind::ClosestHit)
    }

    /// Any-hit (occlusion) query over a batch.
    fn any_hit_batch(&mut self, batch: &RayBatch) -> Vec<TraversalResult> {
        self.trace_batch(batch, TraversalKind::AnyHit)
    }
}

/// The ray interval still worth searching: `t_max` shrinks (inclusively)
/// to the best hit for closest-hit queries. The shared per-step ray setup
/// of all four kernels.
#[inline]
pub(crate) fn effective_ray(ray: &Ray, kind: TraversalKind, best: Option<Hit>) -> Ray {
    match (kind, best) {
        (TraversalKind::ClosestHit, Some(h)) => ray.trimmed(h.t),
        _ => *ray,
    }
}

/// Fetches one binary interior node: charges the node fetch plus both
/// child slab tests and returns the children's entry distances.
#[inline]
pub(crate) fn fetch_interior(
    stats: &mut TraversalStats,
    left_bounds: &Aabb,
    right_bounds: &Aabb,
    ray_eff: &Ray,
    inv_dir: Vec3,
) -> (Option<f32>, Option<f32>) {
    stats.interior_fetches += 1;
    stats.box_tests += 2;
    (
        left_bounds.intersect_with_inv(ray_eff, inv_dir),
        right_bounds.intersect_with_inv(ray_eff, inv_dir),
    )
}

/// What one leaf visit produced.
pub(crate) struct LeafOutcome {
    /// Best intersection found within this leaf (after the tie-break).
    pub found: Option<Hit>,
    /// Whether an any-hit query terminated inside the leaf.
    pub terminated: bool,
}

/// The shared leaf loop: charges the leaf fetch and per-triangle
/// fetch/test stats, re-trims (inclusively) against the best hit so far,
/// applies the [`Hit::closer_than`] tie-break, updates `best` in place and
/// stops at the first intersection for any-hit queries.
///
/// `leaf_for` maps a hit triangle to the leaf id reported in [`Hit`]; it
/// is only invoked on an actual intersection (the wide kernel resolves the
/// binary leaf lazily). `tested` optionally records every triangle index
/// fetched, in order, for the caller's buffer in [`Traversal::step`].
///
/// [`Traversal::step`]: crate::Traversal::step
pub(crate) fn test_leaf_triangles<'t>(
    tris: impl Iterator<Item = (u32, &'t Triangle)>,
    leaf_for: &mut dyn FnMut(u32) -> NodeId,
    kind: TraversalKind,
    best: &mut Option<Hit>,
    ray_eff: &Ray,
    stats: &mut TraversalStats,
    mut tested: Option<&mut Vec<u32>>,
) -> LeafOutcome {
    stats.leaf_fetches += 1;
    let mut found: Option<Hit> = None;
    let mut terminated = false;
    for (tri_index, tri) in tris {
        if let Some(record) = tested.as_deref_mut() {
            record.push(tri_index);
        }
        stats.tri_fetches += 1;
        stats.tri_tests += 1;
        // Re-trim against the best hit found so far, including hits from
        // earlier triangles of this same leaf. Trimming is inclusive, so a
        // candidate tying the current best is still tested and the
        // tie-break decides the winner.
        let bound = effective_ray(ray_eff, kind, *best);
        if let Some(h) = tri.intersect(&bound) {
            let hit = Hit {
                t: h.t,
                tri_index,
                leaf: leaf_for(tri_index),
            };
            found = Some(match found {
                Some(prev) if !hit.closer_than(&prev) => prev,
                _ => hit,
            });
            if best.is_none_or(|b| hit.closer_than(&b)) {
                *best = Some(hit);
            }
            if kind == TraversalKind::AnyHit {
                terminated = true; // Algorithm 1 line 13
                break;
            }
        }
    }
    LeafOutcome { found, terminated }
}

/// Tight while-while traversal: the non-steppable transcription of
/// [`Traversal::run`] used by [`WhileWhileKernel`].
///
/// Visits nodes in the identical order and produces bit-identical hits and
/// [`TraversalStats`] (stack spills included), but performs no per-step
/// allocation and takes the ray's reciprocal direction precomputed —
/// trimming `t_max` never changes the direction, so one reciprocal serves
/// the whole traversal.
pub(crate) fn run_while_while(
    bvh: &Bvh,
    ray: &Ray,
    inv_dir: Vec3,
    kind: TraversalKind,
) -> TraversalResult {
    let mut stack = TraversalStack::new();
    let mut current = Some(NodeId::ROOT);
    let mut best: Option<Hit> = None;
    let mut stats = TraversalStats::default();
    while let Some(node_id) = current.take() {
        let ray_eff = effective_ray(ray, kind, best);
        match bvh.node(node_id).kind {
            NodeKind::Interior {
                left,
                right,
                left_bounds,
                right_bounds,
            } => {
                let (t_left, t_right) =
                    fetch_interior(&mut stats, &left_bounds, &right_bounds, &ray_eff, inv_dir);
                match (t_left, t_right) {
                    (Some(tl), Some(tr)) => {
                        // Visit the closer child first (§2.4).
                        let (near, far) = if tl <= tr {
                            (left, right)
                        } else {
                            (right, left)
                        };
                        stack.push(far);
                        current = Some(near);
                    }
                    (Some(_), None) => current = Some(left),
                    (None, Some(_)) => current = Some(right),
                    (None, None) => current = stack.pop(),
                }
            }
            NodeKind::Leaf { .. } => {
                let outcome = test_leaf_triangles(
                    bvh.leaf_triangles(node_id),
                    &mut |_| node_id,
                    kind,
                    &mut best,
                    &ray_eff,
                    &mut stats,
                    None,
                );
                current = if outcome.terminated {
                    None // Algorithm 1 line 15
                } else {
                    stack.pop()
                };
            }
        }
    }
    stats.stack_spills = stack.spills();
    TraversalResult { hit: best, stats }
}

/// The while-while kernel of Algorithm 1 (tight loop over the binary BVH).
///
/// Scalar calls and batch calls are bit-exact with the steppable
/// [`Traversal`] the cycle simulator uses; the batch path additionally
/// reuses the [`RayBatch`]'s precomputed reciprocal directions.
#[derive(Clone, Copy, Debug)]
pub struct WhileWhileKernel<'a> {
    bvh: &'a Bvh,
}

impl<'a> WhileWhileKernel<'a> {
    /// A kernel tracing against `bvh`.
    pub fn new(bvh: &'a Bvh) -> Self {
        WhileWhileKernel { bvh }
    }

    /// The BVH this kernel traces against.
    pub fn bvh(&self) -> &'a Bvh {
        self.bvh
    }
}

impl TraversalKernel for WhileWhileKernel<'_> {
    fn name(&self) -> String {
        "while-while".to_owned()
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        run_while_while(self.bvh, ray, ray.inv_direction(), kind)
    }

    fn trace_batch(&mut self, batch: &RayBatch, kind: TraversalKind) -> Vec<TraversalResult> {
        (0..batch.len())
            .map(|i| run_while_while(self.bvh, &batch.ray(i), batch.inv_direction(i), kind))
            .collect()
    }
}

/// The stackless restart-trail kernel (Laine 2010) over the binary BVH.
///
/// Restart refetches inflate `interior_fetches`; the per-run restart count
/// itself is available from [`stackless::traverse`].
#[derive(Clone, Copy, Debug)]
pub struct StacklessKernel<'a> {
    bvh: &'a Bvh,
}

impl<'a> StacklessKernel<'a> {
    /// A kernel tracing against `bvh`.
    pub fn new(bvh: &'a Bvh) -> Self {
        StacklessKernel { bvh }
    }

    /// The BVH this kernel traces against.
    pub fn bvh(&self) -> &'a Bvh {
        self.bvh
    }
}

impl TraversalKernel for StacklessKernel<'_> {
    fn name(&self) -> String {
        "stackless".to_owned()
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        let r = stackless::traverse_with_inv(self.bvh, ray, ray.inv_direction(), kind);
        TraversalResult {
            hit: r.hit,
            stats: r.stats,
        }
    }

    fn trace_batch(&mut self, batch: &RayBatch, kind: TraversalKind) -> Vec<TraversalResult> {
        (0..batch.len())
            .map(|i| {
                let r = stackless::traverse_with_inv(
                    self.bvh,
                    &batch.ray(i),
                    batch.inv_direction(i),
                    kind,
                );
                TraversalResult {
                    hit: r.hit,
                    stats: r.stats,
                }
            })
            .collect()
    }
}

/// The 4-wide BVH kernel. Holds the wide tree plus the binary BVH that
/// supplies shared triangle storage and leaf identity.
#[derive(Clone, Copy, Debug)]
pub struct WideKernel<'a> {
    wide: &'a WideBvh,
    bvh: &'a Bvh,
}

impl<'a> WideKernel<'a> {
    /// A kernel tracing `wide`, with `bvh` as the backing binary tree it
    /// was collapsed from.
    pub fn new(wide: &'a WideBvh, bvh: &'a Bvh) -> Self {
        WideKernel { wide, bvh }
    }

    /// The backing binary BVH.
    pub fn bvh(&self) -> &'a Bvh {
        self.bvh
    }

    /// The wide tree.
    pub fn wide(&self) -> &'a WideBvh {
        self.wide
    }
}

impl TraversalKernel for WideKernel<'_> {
    fn name(&self) -> String {
        "wide4".to_owned()
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        let r = self
            .wide
            .intersect_with_inv(self.bvh, ray, ray.inv_direction(), kind);
        TraversalResult {
            hit: r.hit,
            stats: r.stats,
        }
    }

    fn trace_batch(&mut self, batch: &RayBatch, kind: TraversalKind) -> Vec<TraversalResult> {
        (0..batch.len())
            .map(|i| {
                let r = self.wide.intersect_with_inv(
                    self.bvh,
                    &batch.ray(i),
                    batch.inv_direction(i),
                    kind,
                );
                TraversalResult {
                    hit: r.hit,
                    stats: r.stats,
                }
            })
            .collect()
    }
}

/// The steppable [`Traversal`] exposed as a kernel, for differential
/// testing of the tight loop against the simulator's reference state
/// machine.
#[derive(Clone, Copy, Debug)]
pub struct SteppableKernel<'a> {
    bvh: &'a Bvh,
}

impl<'a> SteppableKernel<'a> {
    /// A kernel tracing against `bvh`.
    pub fn new(bvh: &'a Bvh) -> Self {
        SteppableKernel { bvh }
    }
}

impl TraversalKernel for SteppableKernel<'_> {
    fn name(&self) -> String {
        "while-while-steppable".to_owned()
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        Traversal::new(kind).run(self.bvh, ray)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rip_math::Vec3;

    fn soup(n: usize, seed: u64) -> Vec<Triangle> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let base = Vec3::new(
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                );
                let e1 = Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                let e2 = Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                Triangle::new(base, base + e1, base + e2)
            })
            .collect()
    }

    fn rays(n: usize, seed: u64) -> Vec<Ray> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let o = Vec3::new(
                    rng.gen_range(-8.0..8.0),
                    rng.gen_range(-8.0..8.0),
                    rng.gen_range(-8.0..8.0),
                );
                let d = rip_math::sampling::uniform_sphere(rng.gen(), rng.gen());
                Ray::segment(o, d, 20.0)
            })
            .collect()
    }

    #[test]
    fn tight_loop_matches_steppable_bit_exactly() {
        for seed in 0..4 {
            let bvh = Bvh::build(&soup(180, seed));
            for ray in rays(80, seed ^ 0x55) {
                for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
                    let tight = run_while_while(&bvh, &ray, ray.inv_direction(), kind);
                    let steppable = Traversal::new(kind).run(&bvh, &ray);
                    assert_eq!(
                        tight.hit.map(|h| (h.t.to_bits(), h.tri_index, h.leaf)),
                        steppable.hit.map(|h| (h.t.to_bits(), h.tri_index, h.leaf)),
                        "hit mismatch (seed {seed}, {kind:?})"
                    );
                    assert_eq!(
                        tight.stats, steppable.stats,
                        "stats mismatch (seed {seed}, {kind:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_paths_match_scalar_paths() {
        let tris = soup(200, 7);
        let bvh = Bvh::build(&tris);
        let wide = WideBvh::from_binary(&bvh);
        let batch = RayBatch::from_rays(&rays(120, 9));
        let mut kernels: Vec<Box<dyn TraversalKernel + '_>> = vec![
            Box::new(WhileWhileKernel::new(&bvh)),
            Box::new(StacklessKernel::new(&bvh)),
            Box::new(WideKernel::new(&wide, &bvh)),
        ];
        for kernel in &mut kernels {
            for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
                let batched = kernel.trace_batch(&batch, kind);
                for (i, b) in batched.iter().enumerate() {
                    let scalar = kernel.trace(&batch.ray(i), kind);
                    assert_eq!(*b, scalar, "{} ray {i} ({kind:?})", kernel.name());
                }
            }
        }
    }

    #[test]
    fn convenience_batch_methods_dispatch_kinds() {
        let bvh = Bvh::build(&soup(40, 3));
        let batch = RayBatch::from_rays(&rays(30, 3));
        let mut kernel = WhileWhileKernel::new(&bvh);
        assert_eq!(
            kernel.closest_hit_batch(&batch),
            kernel.trace_batch(&batch, TraversalKind::ClosestHit)
        );
        assert_eq!(
            kernel.any_hit_batch(&batch),
            kernel.trace_batch(&batch, TraversalKind::AnyHit)
        );
    }
}
