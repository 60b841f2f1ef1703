//! The while-while traversal loop of Algorithm 1, as a steppable state
//! machine.
//!
//! One *step* = fetch one BVH node record and run its intersection tests:
//! exactly one iteration of the RT unit's fetch/decode/test loop (§5.1.2).
//! The cycle-level simulator drives steps one at a time, interleaving rays
//! across warps; functional callers use [`Traversal::run`]. This is the
//! crate's only copy of the loop: the while-while kernel runs it to
//! completion and RIPT capture records its steps.

use crate::kernel;
use crate::node::{NodeId, NodeKind};
use crate::stack::TraversalStack;
use crate::stats::TraversalStats;
use crate::Bvh;
use rip_math::{Ray, Vec3};

/// Whether traversal stops at the first intersection (occlusion rays,
/// §2.3) or finds the nearest one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraversalKind {
    /// Stop at any intersection — ambient occlusion / shadow rays.
    AnyHit,
    /// Find the closest intersection — primary / reflection / GI rays.
    ClosestHit,
}

/// A found ray-triangle intersection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Ray parameter of the intersection.
    pub t: f32,
    /// Original index of the intersected triangle.
    pub tri_index: u32,
    /// The leaf node containing it.
    pub leaf: NodeId,
}

impl Hit {
    /// The shared closest-hit tie-break rule: smaller `t` wins, and an
    /// exactly equal `t` (shared edges/vertices produce these) resolves to
    /// the smaller original triangle index.
    ///
    /// Every closest-hit kernel — the while-while [`Traversal`], the
    /// stackless restart-trail traversal, the wide BVH, and the brute-force
    /// reference — applies this rule, so they agree *exactly* (same `t`
    /// bits, same `tri_index`) regardless of visitation order. That works
    /// because `t_max` trimming is inclusive: a candidate tying the current
    /// best is still tested, and this predicate decides the winner.
    #[inline]
    pub fn closer_than(&self, other: &Hit) -> bool {
        self.t < other.t || (self.t == other.t && self.tri_index < other.tri_index)
    }
}

/// Outcome of a completed traversal.
#[derive(Clone, Debug, PartialEq)]
pub struct TraversalResult {
    /// The intersection, if any.
    pub hit: Option<Hit>,
    /// Work performed.
    pub stats: TraversalStats,
}

/// What one traversal step did. A leaf step reports *how many*
/// triangles it tested; callers that also need their indices (the cycle
/// simulator's triangle fetches, first-touch classification) pass a
/// buffer to [`Traversal::step`], everyone else calls
/// [`Traversal::step_lean`]. Neither allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LeanStep {
    /// Fetched an interior node and ray-box-tested both children.
    Interior {
        /// The fetched node.
        node: NodeId,
        /// How many of the two children the ray's interval overlaps (0–2).
        child_hits: u8,
    },
    /// Fetched a leaf node and tested triangles until a hit (any-hit) or
    /// exhaustion.
    Leaf {
        /// The fetched node.
        node: NodeId,
        /// How many triangles were fetched and tested.
        tris_tested: u32,
        /// Intersection found in this leaf, if any.
        found: Option<Hit>,
    },
    /// The traversal had already finished; no work was done.
    Finished,
}

/// Steppable BVH traversal state for one ray.
///
/// # Examples
///
/// ```
/// use rip_bvh::{Bvh, Traversal, TraversalKind};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// let mut tr = Traversal::new(TraversalKind::AnyHit);
/// let mut tested = Vec::new();
/// while let Some(_node) = tr.current_request() {
///     tr.step(&bvh, &ray, &mut tested);
/// }
/// assert_eq!(tested, vec![0]);
/// assert!(tr.best_hit().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Traversal {
    kind: TraversalKind,
    stack: TraversalStack,
    current: Option<NodeId>,
    best: Option<Hit>,
    stats: TraversalStats,
    /// The ray's reciprocal direction, computed on the first step and
    /// reused after that: a traversal serves exactly one ray, and `t_max`
    /// trimming never changes the direction, so one reciprocal (three
    /// divides) serves every box test.
    inv_dir: Option<Vec3>,
}

impl Traversal {
    /// Starts a traversal at the root.
    pub fn new(kind: TraversalKind) -> Self {
        Traversal {
            kind,
            stack: TraversalStack::new(),
            current: Some(NodeId::ROOT),
            best: None,
            stats: TraversalStats::default(),
            inv_dir: None,
        }
    }

    /// Starts a traversal from predictor-supplied nodes instead of the root
    /// (§3: "the predicted nodes are pushed to the top of the ray's
    /// Traversal Stack"). Nodes are visited in the order given.
    pub fn from_nodes(kind: TraversalKind, nodes: &[NodeId]) -> Self {
        let mut stack = TraversalStack::new();
        for &n in nodes.iter().rev() {
            stack.push(n);
        }
        let current = stack.pop();
        Traversal {
            kind,
            stack,
            current,
            best: None,
            stats: TraversalStats::default(),
            inv_dir: None,
        }
    }

    /// The node record the traversal needs next, or `None` when finished.
    #[inline]
    pub fn current_request(&self) -> Option<NodeId> {
        self.current
    }

    /// Whether the traversal has finished.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.current.is_none()
    }

    /// The best intersection found so far.
    #[inline]
    pub fn best_hit(&self) -> Option<Hit> {
        self.best
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> TraversalStats {
        let mut s = self.stats;
        s.stack_spills = self.stack.spills();
        s
    }

    /// The ray's reciprocal direction, resolved once per step (or once
    /// per [`Traversal::run`]) and then passed into the loop body.
    #[inline]
    fn inv_dir(&mut self, ray: &Ray) -> Vec3 {
        *self.inv_dir.get_or_insert_with(|| ray.inv_direction())
    }

    /// Processes the current node (its record is assumed to have arrived
    /// from memory) and advances to the next one. A leaf step appends the
    /// original indices of the triangles it fetched and tested, in order,
    /// to `tested`.
    #[inline]
    pub fn step(&mut self, bvh: &Bvh, ray: &Ray, tested: &mut Vec<u32>) -> LeanStep {
        let inv_dir = self.inv_dir(ray);
        self.advance(bvh, ray, inv_dir, Some(tested))
    }

    /// [`Traversal::step`] without recording the tested-triangle indices —
    /// identical state transitions, stats and hits.
    #[inline]
    pub fn step_lean(&mut self, bvh: &Bvh, ray: &Ray) -> LeanStep {
        let inv_dir = self.inv_dir(ray);
        self.advance(bvh, ray, inv_dir, None)
    }

    /// Runs the traversal to completion. Taking `self` by value lets the
    /// loop keep its scalar state (current node, best hit, counters) in
    /// registers.
    pub fn run(mut self, bvh: &Bvh, ray: &Ray) -> TraversalResult {
        let inv_dir = self.inv_dir(ray);
        while self.current.is_some() {
            self.advance(bvh, ray, inv_dir, None);
        }
        TraversalResult {
            hit: self.best,
            stats: self.stats(),
        }
    }

    /// One iteration of Algorithm 1's while-while loop — the only one in
    /// the crate. [`Traversal::step`], [`Traversal::step_lean`] and
    /// [`Traversal::run`] all drive it; `tested`, when present, records
    /// every triangle index the leaf arm fetches.
    #[inline(always)]
    fn advance(
        &mut self,
        bvh: &Bvh,
        ray: &Ray,
        inv_dir: Vec3,
        tested: Option<&mut Vec<u32>>,
    ) -> LeanStep {
        let Some(node_id) = self.current.take() else {
            return LeanStep::Finished;
        };
        let ray_eff = kernel::effective_ray(ray, self.kind, self.best);
        match bvh.node(node_id).kind() {
            NodeKind::Interior {
                left,
                right,
                left_bounds,
                right_bounds,
            } => {
                let (t_left, t_right) = kernel::fetch_interior(
                    &mut self.stats,
                    &left_bounds,
                    &right_bounds,
                    &ray_eff,
                    inv_dir,
                );
                let child_hits = t_left.is_some() as u8 + t_right.is_some() as u8;
                match (t_left, t_right) {
                    (Some(tl), Some(tr)) => {
                        // Visit the closer child first (§2.4).
                        let (near, far) = if tl <= tr {
                            (left, right)
                        } else {
                            (right, left)
                        };
                        self.stack.push(far);
                        self.current = Some(near);
                    }
                    (Some(_), None) => self.current = Some(left),
                    (None, Some(_)) => self.current = Some(right),
                    (None, None) => self.current = self.stack.pop(),
                }
                LeanStep::Interior {
                    node: node_id,
                    child_hits,
                }
            }
            NodeKind::Leaf { .. } => {
                let before = self.stats.tri_tests;
                let outcome = kernel::test_leaf_triangles(
                    bvh.leaf_triangles(node_id),
                    &mut |_| node_id,
                    self.kind,
                    &mut self.best,
                    &ray_eff,
                    &mut self.stats,
                    tested,
                );
                self.current = if outcome.terminated {
                    None // Algorithm 1 line 15
                } else {
                    self.stack.pop()
                };
                LeanStep::Leaf {
                    node: node_id,
                    tris_tested: (self.stats.tri_tests - before) as u32,
                    found: outcome.found,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ript::RayTraceSet;
    use crate::{BvhBuilder, RayBatch, SplitMethod, HW_STACK_CAPACITY};
    use rip_math::{Triangle, Vec3};

    /// Two parallel quads at z = 1 and z = 2 spanning x,y ∈ [0, 4].
    fn two_walls() -> Bvh {
        let mut tris = Vec::new();
        for z in [1.0f32, 2.0] {
            for i in 0..4 {
                for j in 0..4 {
                    let o = Vec3::new(i as f32, j as f32, z);
                    tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Y));
                    tris.push(Triangle::new(
                        o + Vec3::X,
                        o + Vec3::X + Vec3::Y,
                        o + Vec3::Y,
                    ));
                }
            }
        }
        Bvh::build(&tris)
    }

    #[test]
    fn closest_hit_finds_near_wall() {
        let bvh = two_walls();
        let ray = Ray::new(Vec3::new(2.2, 2.2, 0.0), Vec3::Z);
        let r = bvh.intersect(&ray, TraversalKind::ClosestHit);
        let hit = r.hit.expect("must hit the near wall");
        assert!((hit.t - 1.0).abs() < 1e-4, "t = {}", hit.t);
    }

    #[test]
    fn any_hit_terminates_early() {
        let bvh = two_walls();
        let ray = Ray::new(Vec3::new(2.2, 2.2, 0.0), Vec3::Z);
        let any = bvh.intersect(&ray, TraversalKind::AnyHit);
        let closest = bvh.intersect(&ray, TraversalKind::ClosestHit);
        assert!(any.hit.is_some());
        assert!(
            any.stats.node_fetches() <= closest.stats.node_fetches(),
            "any-hit ({}) must not out-fetch closest-hit ({})",
            any.stats.node_fetches(),
            closest.stats.node_fetches()
        );
    }

    #[test]
    fn from_nodes_visits_leaf_directly() {
        let bvh = two_walls();
        let ray = Ray::new(Vec3::new(2.2, 2.2, 0.0), Vec3::Z);
        // Find the leaf that the full traversal hits, then verify a seeded
        // traversal from that leaf touches only that one node.
        let full = bvh.intersect(&ray, TraversalKind::AnyHit);
        let leaf = full.hit.unwrap().leaf;
        let r = Traversal::from_nodes(TraversalKind::AnyHit, &[leaf]).run(&bvh, &ray);
        assert!(r.hit.is_some());
        assert_eq!(
            r.stats.node_fetches(),
            1,
            "prediction should skip interior nodes"
        );
        assert!(r.stats.node_fetches() < full.stats.node_fetches());
    }

    #[test]
    fn from_nodes_miss_leaves_state_reusable() {
        let bvh = two_walls();
        // A ray that misses everything.
        let ray = Ray::new(Vec3::new(2.2, 2.2, 0.0), -Vec3::Z);
        let some_leaf = bvh.leaf_of_triangle(0).unwrap();
        let r = Traversal::from_nodes(TraversalKind::AnyHit, &[some_leaf]).run(&bvh, &ray);
        assert!(r.hit.is_none());
        assert!(r.stats.node_fetches() >= 1);
    }

    #[test]
    fn leaf_steps_append_tested_triangles() {
        let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
        let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
        let mut tr = Traversal::new(TraversalKind::AnyHit);
        let mut tested = vec![7];
        match tr.step(&bvh, &ray, &mut tested) {
            LeanStep::Leaf {
                tris_tested, found, ..
            } => {
                assert_eq!(tris_tested, 1);
                assert!(found.is_some());
            }
            other => panic!("expected leaf step, got {other:?}"),
        }
        assert_eq!(tested, vec![7, 0], "indices are appended, not replaced");
        assert!(tr.is_done());
        assert_eq!(tr.step(&bvh, &ray, &mut tested), LeanStep::Finished);
        assert_eq!(tested, vec![7, 0]);
    }

    #[test]
    fn step_lean_matches_step_exactly() {
        let bvh = two_walls();
        let mut tested = Vec::new();
        for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
            for (ox, oy) in [(0.5f32, 0.5), (2.2, 2.2), (3.7, 1.1), (5.0, 5.0)] {
                let ray = Ray::new(Vec3::new(ox, oy, 0.0), Vec3::Z);
                let mut fat = Traversal::new(kind);
                let mut lean = Traversal::new(kind);
                loop {
                    tested.clear();
                    let fe = fat.step(&bvh, &ray, &mut tested);
                    let le = lean.step_lean(&bvh, &ray);
                    assert_eq!(fe, le);
                    match fe {
                        LeanStep::Interior { .. } => assert!(tested.is_empty()),
                        LeanStep::Leaf {
                            node, tris_tested, ..
                        } => {
                            assert_eq!(tested.len() as u32, tris_tested);
                            // The count-only encoding assumes tested
                            // triangles are a prefix of the leaf order.
                            let prefix: Vec<u32> = bvh
                                .leaf_triangles(node)
                                .take(tested.len())
                                .map(|(t, _)| t)
                                .collect();
                            assert_eq!(tested, prefix);
                        }
                        LeanStep::Finished => break,
                    }
                }
                assert_eq!(fat.best_hit(), lean.best_hit());
                assert_eq!(fat.stats(), lean.stats());
            }
        }
    }

    #[test]
    fn closest_hit_prunes_far_boxes() {
        // A ray hitting the near wall should not descend into the far wall's
        // subtree once its best-t bound excludes it... at minimum it must
        // never fetch more nodes than exist.
        let bvh = two_walls();
        let ray = Ray::new(Vec3::new(2.2, 2.2, 0.0), Vec3::Z);
        let r = bvh.intersect(&ray, TraversalKind::ClosestHit);
        assert!(r.stats.node_fetches() < bvh.node_count() as u64);
        assert_eq!(r.hit.unwrap().t.round(), 1.0);
    }

    #[test]
    fn stack_spills_agree_across_drivers() {
        // 1024 walls strung along the ray, one per leaf of a balanced
        // (median-split) tree: every box on the way down to the nearest
        // wall overlaps the ray, so the descent pushes one far sibling per
        // level — ten levels, past the hardware stack.
        let walls: Vec<Triangle> = (0..1024)
            .map(|i| {
                let x = i as f32;
                Triangle::new(
                    Vec3::new(x, -1.0, -1.0),
                    Vec3::new(x, 3.0, -1.0),
                    Vec3::new(x, -1.0, 3.0),
                )
            })
            .collect();
        let bvh = BvhBuilder::new()
            .split_method(SplitMethod::Median)
            .max_leaf_size(1)
            .build(&walls);
        let ray = Ray::new(Vec3::new(-1.0, 0.1, 0.1), Vec3::X);
        let kind = TraversalKind::ClosestHit;

        let run = Traversal::new(kind).run(&bvh, &ray);
        assert_eq!(run.hit.map(|h| h.tri_index), Some(0));
        assert!(
            run.stats.stack_spills > 0,
            "the descent must overflow the {HW_STACK_CAPACITY}-entry stack"
        );
        let mut stepped = Traversal::new(kind);
        let mut tested = Vec::new();
        while stepped.step(&bvh, &ray, &mut tested) != LeanStep::Finished {}
        assert_eq!(stepped.stats().stack_spills, run.stats.stack_spills);
        let set = RayTraceSet::capture(&bvh, &RayBatch::from_rays(&[ray]), kind);
        assert_eq!(
            set.full_result(0).stats.stack_spills,
            run.stats.stack_spills
        );
    }
}
