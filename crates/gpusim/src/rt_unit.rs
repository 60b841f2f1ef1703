//! RT-unit state: per-ray work items, warps and per-SM state (Figure 10).
//!
//! A ray's §3 decisions are `rip-core`'s [`PredictedRay`], which the
//! functional simulator drives too; a [`RayWork`] adds the stepped leg.

use crate::PartialWarpCollector;
use rip_bvh::ript::{RayTraceSet, RecordedLegs, LEAF_STEP};
use rip_bvh::{Bvh, Hit, LeanStep, NodeId, Traversal, TraversalKind, TraversalStats};
use rip_core::{Leg, PredictedRay, Predictor, RayOutcome};
use rip_math::Ray;

/// One traversal leg as the RT unit drives it: a live stepped
/// [`Traversal`], or a cursor over the ray's [`FedLeg`], a recorded full
/// traversal. Both give the same request/step/done/hit/stats answers
/// ([`RayWork`] dispatches), so the warp machinery is oblivious to which
/// one it is feeding.
///
/// Predicted legs are always [`Live`](TraversalLeg::Live) (they start
/// from predictor-supplied nodes, which nothing records); full legs —
/// the baseline leg, the not-predicted leg and misprediction recovery —
/// are virgin root traversals and replay their fed leg when one is
/// loaded.
// The leg lives inline in a pooled ray-buffer slot that a live leg fills
// anyway; boxing the traversal would allocate once per live leg.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub(crate) enum TraversalLeg {
    Live(Traversal),
    /// Replay progress: steps, leaf visits and tested triangles consumed.
    Fed {
        pos: u32,
        leaf: u32,
        tri: u32,
    },
}

/// A ray's recorded virgin full traversal, copied into its ray-buffer
/// slot at dispatch: steps (node indices, leaves flagged with
/// [`LEAF_STEP`]), each leaf visit's tested triangles, and the outcome.
/// Replaying it reads no BVH node record. The buffers outlive the ray, so
/// a recycled slot reuses them.
#[derive(Clone, Debug, Default)]
pub(crate) struct FedLeg {
    loaded: bool,
    steps: Vec<u32>,
    leaf_counts: Vec<u32>,
    triangles: Vec<u32>,
    hit: Option<Hit>,
    stack_spills: u64,
}

impl FedLeg {
    /// Loads the `i`-th ray of a warp's recorded legs.
    pub fn load_recorded(&mut self, legs: &RecordedLegs, i: usize) {
        self.steps.clear();
        self.steps.extend_from_slice(legs.steps(i));
        self.leaf_counts.clear();
        self.leaf_counts.extend_from_slice(legs.leaf_counts(i));
        self.triangles.clear();
        self.triangles.extend_from_slice(legs.triangles(i));
        self.hit = legs.hit(i);
        self.stack_spills = legs.stack_spills(i);
        self.loaded = true;
    }

    /// Loads ray `i` of an attached trace, which stores bare node indices
    /// and counts: the node kinds and the tested triangles come from the
    /// BVH the trace was checked against.
    pub fn load_trace(&mut self, set: &RayTraceSet, i: usize, bvh: &Bvh) {
        self.steps.clear();
        self.leaf_counts.clear();
        self.triangles.clear();
        let mut counts = set.leaf_prefix_counts(i).iter();
        for &n in set.node_steps(i) {
            let node = NodeId::new(n);
            if !bvh.node(node).is_leaf() {
                self.steps.push(n);
                continue;
            }
            let count = *counts.next().expect("attach checked the leaf counts");
            self.steps.push(n | LEAF_STEP);
            self.leaf_counts.push(count);
            self.triangles.extend(
                bvh.leaf_triangles(node)
                    .take(count as usize)
                    .map(|(t, _)| t),
            );
        }
        self.hit = set.hit(i);
        self.stack_spills = set.stack_spills(i);
        self.loaded = true;
    }
}

/// Per-ray bookkeeping inside the RT unit (one ray buffer slot).
#[derive(Clone, Debug)]
pub(crate) struct RayWork {
    pub ray: Ray,
    pub traversal: TraversalLeg,
    /// The ray's §3 state, from its lookup (a baseline ray's: from its
    /// admission) on.
    pub flow: Option<PredictedRay>,
    /// Warp slot within the SM (updated on repacking).
    pub slot: u32,
    /// The recorded full leg, when one was loaded before the ray's flow
    /// began.
    pub fed: FedLeg,
}

impl RayWork {
    /// Creates a ray work item whose flow has not begun.
    pub fn new(ray: Ray) -> Self {
        RayWork {
            ray,
            traversal: TraversalLeg::Live(Traversal::new(TraversalKind::AnyHit)),
            flow: None,
            slot: 0,
            fed: FedLeg::default(),
        }
    }

    /// Turns a recycled slot into a fresh work item for `ray`, keeping
    /// the fed leg's buffers (and unloading it). The leg and the warp
    /// slot are set when the ray begins and is placed.
    pub fn reset(&mut self, ray: Ray) {
        (self.ray, self.flow, self.fed.loaded) = (ray, None, false);
    }

    /// Begins the ray's flow — looking `hash` up in `predictor`, or
    /// nothing for a baseline ray — and starts its first leg.
    pub fn begin(&mut self, predictor: Option<&mut Predictor>, hash: u32) {
        let (flow, leg) = PredictedRay::begin(predictor, hash);
        self.flow = Some(flow);
        self.start(leg);
    }

    /// Ends the finished current leg in the ray's flow and starts the
    /// next one, if any.
    pub fn end_leg(&mut self) {
        let (hit, stats) = (self.leg_hit(), self.leg_stats());
        let flow = self.flow.as_mut().expect("a stepped ray has begun");
        if let Some(leg) = flow.end_leg(hit, stats) {
            self.start(leg);
        }
    }

    /// Starts `leg`: a probe runs live; a full leg replays the fed leg
    /// when one is loaded.
    fn start(&mut self, leg: Leg) {
        self.traversal = match leg {
            Leg::Probe(nodes) => {
                TraversalLeg::Live(Traversal::from_nodes(TraversalKind::AnyHit, &nodes))
            }
            Leg::Full if self.fed.loaded => TraversalLeg::Fed {
                pos: 0,
                leaf: 0,
                tri: 0,
            },
            Leg::Full => TraversalLeg::Live(Traversal::new(TraversalKind::AnyHit)),
        };
    }

    /// Whether the ray's lookup returned a prediction.
    pub fn is_predicted(&self) -> bool {
        self.flow
            .as_ref()
            .is_some_and(|flow| flow.outcome() != RayOutcome::NotPredicted)
    }

    /// The node the current leg needs next, or `None` when it is done.
    #[inline]
    pub fn current_request(&self) -> Option<NodeId> {
        match &self.traversal {
            TraversalLeg::Live(t) => t.current_request(),
            TraversalLeg::Fed { pos, .. } => self
                .fed
                .steps
                .get(*pos as usize)
                .map(|&step| NodeId::new(step & !LEAF_STEP)),
        }
    }

    /// Steps the current leg once, appending a leaf's tested triangle
    /// indices to `tested`.
    pub fn step(&mut self, bvh: &Bvh, tested: &mut Vec<u32>) -> LeanStep {
        let (pos, leaf, tri) = match &mut self.traversal {
            TraversalLeg::Live(t) => return t.step(bvh, &self.ray, tested),
            TraversalLeg::Fed { pos, leaf, tri } => (pos, leaf, tri),
        };
        let fed = &self.fed;
        let Some(&step) = fed.steps.get(*pos as usize) else {
            return LeanStep::Finished;
        };
        *pos += 1;
        let node = NodeId::new(step & !LEAF_STEP);
        if step & LEAF_STEP == 0 {
            return LeanStep::Interior {
                node,
                child_hits: 0,
            };
        }
        let count = fed.leaf_counts[*leaf as usize];
        *leaf += 1;
        let start = *tri as usize;
        tested.extend_from_slice(&fed.triangles[start..start + count as usize]);
        *tri += count;
        // Like a live any-hit leg, the hit surfaces with the final step.
        let done = *pos as usize == fed.steps.len();
        LeanStep::Leaf {
            node,
            tris_tested: count,
            found: fed.hit.filter(|h| done && h.leaf == node),
        }
    }

    /// Whether the current leg has finished.
    pub fn leg_done(&self) -> bool {
        match &self.traversal {
            TraversalLeg::Live(t) => t.is_done(),
            TraversalLeg::Fed { pos, .. } => *pos as usize >= self.fed.steps.len(),
        }
    }

    /// The current leg's intersection, once it has finished.
    pub fn leg_hit(&self) -> Option<Hit> {
        match &self.traversal {
            TraversalLeg::Live(t) => t.best_hit(),
            TraversalLeg::Fed { .. } => self.fed.hit.filter(|_| self.leg_done()),
        }
    }

    /// The current leg's statistics so far (a fed leg counts its recorded
    /// stack spills from the start; the engine reads them when the leg
    /// has finished).
    pub fn leg_stats(&self) -> TraversalStats {
        match &self.traversal {
            TraversalLeg::Live(t) => t.stats(),
            &TraversalLeg::Fed { pos, leaf, tri } => {
                let interior = u64::from(pos - leaf);
                TraversalStats {
                    interior_fetches: interior,
                    leaf_fetches: u64::from(leaf),
                    tri_fetches: u64::from(tri),
                    box_tests: 2 * interior,
                    tri_tests: u64::from(tri),
                    stack_spills: self.fed.stack_spills,
                }
            }
        }
    }

    /// Whether the ray still needs RT-unit service.
    pub fn is_active(&self) -> bool {
        !self.flow.as_ref().is_some_and(PredictedRay::is_done)
    }
}

/// One resident warp of the RT unit. Rays progress independently (the RT
/// unit is a variable-latency unit with per-ray status, §5.1.1); the warp
/// gates dispatch and completion.
#[derive(Clone, Debug)]
pub(crate) struct WarpState {
    /// The warp's rays, as slots of the owning SM's in-flight ray pool.
    pub rays: Vec<u32>,
    /// Rays not yet retired (warp completes at zero).
    pub active: u32,
    /// Whether this warp was formed by the partial warp collector.
    pub repacked: bool,
}

/// Per-SM state: warp slots, predictor, collector.
#[derive(Debug)]
pub(crate) struct SmState {
    /// Active warp slots (base + extra-repack capacity).
    pub slots: Vec<Option<WarpState>>,
    /// Per-SM predictor (None for the baseline RT unit).
    pub predictor: Option<Predictor>,
    /// Partial warp collector (repacking configurations only).
    pub collector: Option<PartialWarpCollector>,
    /// Next cycle the SM's L1 port is free (one request per cycle).
    pub issue_free_at: u64,
    /// Base warp limit (slots beyond this are reserved for repacked warps).
    pub base_warp_limit: usize,
}

impl SmState {
    /// Active warps currently resident.
    pub fn active_warps(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Finds a free slot for a normal warp (respecting the base limit) or
    /// a repacked warp (any slot).
    pub fn free_slot(&self, repacked: bool) -> Option<usize> {
        let limit = if repacked {
            self.slots.len()
        } else {
            self.base_warp_limit
        };
        let active = self.active_warps();
        if active >= limit {
            return None;
        }
        self.slots.iter().position(|s| s.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sm_slot_accounting_respects_base_limit() {
        let sm = SmState {
            slots: vec![None, None, None],
            predictor: None,
            collector: None,
            issue_free_at: 0,
            base_warp_limit: 2,
        };
        assert_eq!(sm.free_slot(false), Some(0));
        assert_eq!(sm.free_slot(true), Some(0));
        let mut sm2 = sm;
        sm2.slots[0] = Some(WarpState {
            rays: vec![],
            active: 0,
            repacked: false,
        });
        sm2.slots[1] = Some(WarpState {
            rays: vec![],
            active: 0,
            repacked: false,
        });
        assert_eq!(sm2.free_slot(false), None, "base limit reached");
        assert_eq!(
            sm2.free_slot(true),
            Some(2),
            "extra slot open to repacked warps"
        );
    }
}
