//! RT-unit state: per-ray work items, warps and per-SM state (Figure 10).

use crate::PartialWarpCollector;
use rip_bvh::ript::{RayTraceSet, RecordedLegs, LEAF_STEP};
use rip_bvh::{Bvh, Hit, LeanStep, NodeId, Traversal, TraversalKind, TraversalStats};
use rip_core::{Prediction, Predictor};
use rip_math::Ray;

/// Which leg of the §3 flow a ray is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RayPhase {
    /// Waiting for its predictor table lookup.
    AwaitingLookup,
    /// Verifying a prediction (traversing from predicted nodes).
    Predicted,
    /// Full traversal from the root (baseline, not-predicted, or
    /// misprediction recovery).
    Full,
    /// Retired.
    Done,
}

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
    pub phase: RayPhase,
    pub hash: u32,
    /// Warp slot within the SM (updated on repacking).
    pub slot: u32,
    pub was_predicted: bool,
    pub was_verified: bool,
    pub prediction_k: u32,
    /// Node fetches spent during the Predicted phase (`k·m` term).
    pub prediction_fetches: u64,
    pub hit: Option<Hit>,
    /// Stats of completed traversal legs (accumulated at leg boundaries).
    pub finished_stats: TraversalStats,
    /// The recorded full leg, when one was fed ([`RayWork::load_fed`]).
    fed: FedLeg,
}

impl RayWork {
    /// Creates a ray work item that will start with a full traversal
    /// (baseline) unless a lookup phase intervenes.
    pub fn new(ray: Ray, needs_lookup: bool) -> Self {
        Self::with_fed(ray, needs_lookup, FedLeg::default())
    }

    /// Turns a recycled slot into a fresh work item for `ray`, keeping
    /// the fed leg's buffers (and unloading it).
    pub fn reset(&mut self, ray: Ray, needs_lookup: bool) {
        let fed = std::mem::take(&mut self.fed);
        *self = Self::with_fed(
            ray,
            needs_lookup,
            FedLeg {
                loaded: false,
                ..fed
            },
        );
    }

    fn with_fed(ray: Ray, needs_lookup: bool, fed: FedLeg) -> Self {
        RayWork {
            ray,
            traversal: TraversalLeg::Live(Traversal::new(TraversalKind::AnyHit)),
            phase: if needs_lookup {
                RayPhase::AwaitingLookup
            } else {
                RayPhase::Full
            },
            hash: 0,
            slot: 0,
            was_predicted: false,
            was_verified: false,
            prediction_k: 0,
            prediction_fetches: 0,
            hit: None,
            finished_stats: TraversalStats::default(),
            fed,
        }
    }

    /// Loads the ray's recorded full traversal with `load`; a baseline
    /// ray starts its full leg on it at once.
    pub fn load_fed(&mut self, load: impl FnOnce(&mut FedLeg)) {
        load(&mut self.fed);
        if self.phase == RayPhase::Full {
            self.traversal = self.fresh_full_leg();
        }
    }

    /// A virgin full-traversal leg: the fed leg when one is loaded, a
    /// live root traversal otherwise.
    pub fn fresh_full_leg(&self) -> TraversalLeg {
        if self.fed.loaded {
            TraversalLeg::Fed {
                pos: 0,
                leaf: 0,
                tri: 0,
            }
        } else {
            TraversalLeg::Live(Traversal::new(TraversalKind::AnyHit))
        }
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

    /// Applies a lookup result, transitioning into Predicted or Full.
    pub fn apply_lookup(&mut self, hash: u32, prediction: Option<Prediction>) {
        debug_assert_eq!(self.phase, RayPhase::AwaitingLookup);
        self.hash = hash;
        match prediction {
            Some(pred) => {
                self.was_predicted = true;
                self.prediction_k = pred.nodes.len() as u32;
                self.traversal =
                    TraversalLeg::Live(Traversal::from_nodes(TraversalKind::AnyHit, &pred.nodes));
                self.phase = RayPhase::Predicted;
            }
            None => {
                self.traversal = self.fresh_full_leg();
                self.phase = RayPhase::Full;
            }
        }
    }

    /// Whether the ray still needs RT-unit service.
    pub fn is_active(&self) -> bool {
        self.phase != RayPhase::Done
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
    use rip_math::Vec3;

    #[test]
    fn ray_work_lookup_transitions() {
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let mut w = RayWork::new(ray, true);
        assert_eq!(w.phase, RayPhase::AwaitingLookup);
        w.apply_lookup(7, None);
        assert_eq!(w.phase, RayPhase::Full);
        assert!(!w.was_predicted);

        let mut p = RayWork::new(ray, true);
        p.apply_lookup(
            7,
            Some(Prediction {
                hash: 7,
                nodes: vec![rip_bvh::NodeId::ROOT].into(),
            }),
        );
        assert_eq!(p.phase, RayPhase::Predicted);
        assert!(p.was_predicted);
        assert_eq!(p.prediction_k, 1);
    }

    #[test]
    fn baseline_rays_skip_lookup() {
        let w = RayWork::new(Ray::new(Vec3::ZERO, Vec3::Z), false);
        assert_eq!(w.phase, RayPhase::Full);
        assert!(w.is_active());
    }

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
