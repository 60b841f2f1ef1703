//! RT-unit state: per-ray work items, warps and per-SM state (Figure 10).

use crate::PartialWarpCollector;
use rip_bvh::ript::{RayTraceSet, ReplayCursor};
use rip_bvh::{Bvh, Hit, LeanStep, NodeId, Traversal, TraversalKind, TraversalStats};
use rip_core::{Prediction, Predictor};
use rip_math::Ray;
use std::sync::Arc;

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

/// One traversal leg as the RT unit drives it: either a live stepped
/// [`Traversal`] or a [`ReplayCursor`] over a recorded full traversal.
/// Both expose the same request/step/done/hit/stats surface, so the warp
/// machinery is oblivious to which one it is feeding.
///
/// Predicted legs are always [`Live`](TraversalLeg::Live) (they start
/// from predictor-supplied nodes, which no trace records); full legs —
/// the baseline leg, the not-predicted leg and misprediction recovery —
/// are virgin root traversals and replay from the trace when one is
/// attached.
#[derive(Clone, Debug)]
pub(crate) enum TraversalLeg {
    Live(Traversal),
    Replay(ReplayCursor),
}

impl TraversalLeg {
    pub fn current_request(&self) -> Option<NodeId> {
        match self {
            TraversalLeg::Live(t) => t.current_request(),
            TraversalLeg::Replay(c) => c.current_request(),
        }
    }

    /// Steps the leg once, appending a leaf's tested triangle indices to
    /// `tested`.
    pub fn step(&mut self, bvh: &Bvh, ray: &Ray, tested: &mut Vec<u32>) -> LeanStep {
        match self {
            TraversalLeg::Live(t) => t.step(bvh, ray, tested),
            TraversalLeg::Replay(c) => c.step(bvh, tested),
        }
    }

    pub fn is_done(&self) -> bool {
        match self {
            TraversalLeg::Live(t) => t.is_done(),
            TraversalLeg::Replay(c) => c.is_done(),
        }
    }

    pub fn best_hit(&self) -> Option<Hit> {
        match self {
            TraversalLeg::Live(t) => t.best_hit(),
            TraversalLeg::Replay(c) => c.best_hit(),
        }
    }

    pub fn stats(&self) -> TraversalStats {
        match self {
            TraversalLeg::Live(t) => t.stats(),
            TraversalLeg::Replay(c) => c.stats(),
        }
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
    /// Recorded trace backing this ray's full legs (replay mode), with
    /// the ray's index into the set.
    pub trace: Option<(Arc<RayTraceSet>, usize)>,
}

impl RayWork {
    /// Creates a ray work item that will start with a full traversal
    /// (baseline) unless a lookup phase intervenes.
    pub fn new(ray: Ray, needs_lookup: bool) -> Self {
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
            trace: None,
        }
    }

    /// Backs this ray's full legs with a recorded trace. Replaces the
    /// current leg when it is an (unstarted) full traversal.
    pub fn attach_trace(&mut self, set: Arc<RayTraceSet>, index: usize) {
        self.trace = Some((set, index));
        if self.phase == RayPhase::Full {
            self.traversal = self.fresh_full_leg();
        }
    }

    /// A virgin full-traversal leg: a replay cursor when a trace is
    /// attached, a live root traversal otherwise.
    pub fn fresh_full_leg(&self) -> TraversalLeg {
        match &self.trace {
            Some((set, index)) => TraversalLeg::Replay(ReplayCursor::new(Arc::clone(set), *index)),
            None => TraversalLeg::Live(Traversal::new(TraversalKind::AnyHit)),
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
