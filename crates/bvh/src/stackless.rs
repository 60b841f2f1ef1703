//! Stackless BVH traversal with a restart trail (Laine 2010).
//!
//! §2.4 notes that depth-first traversal "often requires a per-thread
//! traversal stack or potentially a bit trail for binary trees". This
//! module implements that alternative: a 64-bit *trail* encodes, per tree
//! level, whether the near child has already been fully processed. On
//! reaching a dead end the traversal **restarts from the root** and uses
//! the trail to skip directly to the next unvisited subtree — no per-ray
//! stack memory at all, at the cost of re-descending interior nodes.
//!
//! It exists as an ablation partner for the stack-based
//! [`Traversal`](crate::Traversal): identical results, different
//! memory/compute tradeoff (more node fetches, zero stack storage).

use crate::kernel;
use crate::node::{NodeId, NodeKind};
use crate::{Bvh, Hit, TraversalKind, TraversalStats};
use rip_math::{Ray, Vec3};

/// Result of a stackless traversal run.
#[derive(Clone, Debug, PartialEq)]
pub struct StacklessResult {
    /// The intersection found, if any.
    pub hit: Option<Hit>,
    /// Work performed (restarts inflate `interior_fetches`).
    pub stats: TraversalStats,
    /// Number of root restarts performed.
    pub restarts: u64,
}

/// Maximum supported tree depth (bits in the trail word).
pub const MAX_TRAIL_DEPTH: u32 = 63;

/// Runs a restart-trail traversal to completion.
///
/// Produces the same hit/miss answer as the stack-based traversal for
/// any-hit queries, and the same closest distance for closest-hit queries.
///
/// # Panics
///
/// Panics when the BVH is deeper than [`MAX_TRAIL_DEPTH`] levels.
///
/// # Examples
///
/// ```
/// use rip_bvh::{stackless, Bvh, TraversalKind};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// let result = stackless::traverse(&bvh, &ray, TraversalKind::AnyHit);
/// assert!(result.hit.is_some());
/// ```
pub fn traverse(bvh: &Bvh, ray: &Ray, kind: TraversalKind) -> StacklessResult {
    traverse_with_inv(bvh, ray, ray.inv_direction(), kind)
}

/// [`traverse`] with the ray's reciprocal direction supplied by the caller
/// (batch pipelines precompute it once per ray; trimming `t_max` between
/// restarts never changes the direction, so one reciprocal serves every
/// restart).
///
/// # Panics
///
/// Panics when the BVH is deeper than [`MAX_TRAIL_DEPTH`] levels.
pub fn traverse_with_inv(
    bvh: &Bvh,
    ray: &Ray,
    inv_dir: Vec3,
    kind: TraversalKind,
) -> StacklessResult {
    assert!(
        bvh.depth() <= MAX_TRAIL_DEPTH,
        "tree depth {} exceeds the {}-bit trail",
        bvh.depth(),
        MAX_TRAIL_DEPTH
    );
    let mut stats = TraversalStats::default();
    let mut best: Option<Hit> = None;
    let mut restarts = 0u64;

    // trail bit at `level`: 0 = take the near child, 1 = near child done,
    // take the far child. `popped` marks levels exhausted entirely.
    let mut trail: u64 = 0;
    'outer: loop {
        let ray_eff = kernel::effective_ray(ray, kind, best);
        let mut node_id = NodeId::ROOT;
        let mut level: u32 = 0;

        loop {
            let node = bvh.node(node_id);
            match node.kind() {
                NodeKind::Interior {
                    left,
                    right,
                    left_bounds,
                    right_bounds,
                } => {
                    let (t_left, t_right) = kernel::fetch_interior(
                        &mut stats,
                        &left_bounds,
                        &right_bounds,
                        &ray_eff,
                        inv_dir,
                    );
                    // Near/far ordering must be deterministic per ray so the
                    // trail stays meaningful across restarts.
                    let (near, far, t_near, t_far) = match (t_left, t_right) {
                        (Some(tl), Some(tr)) if tl <= tr => (left, right, Some(tl), Some(tr)),
                        (Some(tl), Some(tr)) => (right, left, Some(tr), Some(tl)),
                        (Some(tl), None) => (left, right, Some(tl), None),
                        (None, Some(tr)) => (right, left, Some(tr), None),
                        (None, None) => (left, right, None, None),
                    };
                    let bit = 1u64 << level;
                    let take_far = trail & bit != 0;
                    let (child, t_child) = if take_far {
                        (far, t_far)
                    } else {
                        (near, t_near)
                    };
                    match t_child {
                        Some(_) => {
                            node_id = child;
                            level += 1;
                            continue;
                        }
                        None => {
                            // Dead end at this level: advance the trail.
                            if !take_far && t_far.is_some() {
                                trail |= bit;
                                node_id = far;
                                level += 1;
                                continue;
                            }
                            if pop_trail(&mut trail, level) {
                                restarts += 1;
                                continue 'outer;
                            }
                            break 'outer;
                        }
                    }
                }
                NodeKind::Leaf { .. } => {
                    let outcome = kernel::test_leaf_triangles(
                        bvh.leaf_triangles(node_id),
                        &mut |_| node_id,
                        kind,
                        &mut best,
                        &ray_eff,
                        &mut stats,
                        None,
                    );
                    if outcome.terminated {
                        break 'outer;
                    }
                    if pop_trail(&mut trail, level) {
                        restarts += 1;
                        continue 'outer;
                    }
                    break 'outer;
                }
            }
        }
    }
    StacklessResult {
        hit: best,
        stats,
        restarts,
    }
}

/// Advances the trail after exhausting the subtree entered at `level`:
/// clears deeper bits, then finds the deepest remaining level still on its
/// near child and flips it to far. Returns `false` when the whole tree is
/// exhausted.
fn pop_trail(trail: &mut u64, level: u32) -> bool {
    // Clear bits at `level` and deeper (they belong to the finished path).
    let keep_mask = (1u64 << level) - 1;
    *trail &= keep_mask;
    // Find the deepest 0-bit among the kept levels and flip it; all deeper
    // state was just cleared. A level whose bit is already 1 is exhausted.
    let mut l = level;
    while l > 0 {
        l -= 1;
        let bit = 1u64 << l;
        if *trail & bit == 0 {
            *trail |= bit;
            // Deeper levels restart fresh.
            *trail &= (bit << 1) - 1;
            return true;
        }
        *trail &= !bit;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rip_math::{Triangle, Vec3};

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

    #[test]
    fn matches_stack_traversal_on_random_soup() {
        for seed in 0..6 {
            let bvh = Bvh::build(&soup(150, seed));
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xFF);
            for _ in 0..60 {
                let o = Vec3::new(
                    rng.gen_range(-8.0..8.0),
                    rng.gen_range(-8.0..8.0),
                    rng.gen_range(-8.0..8.0),
                );
                let d = rip_math::sampling::uniform_sphere(rng.gen(), rng.gen());
                let ray = Ray::segment(o, d, 20.0);
                for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
                    let stackless = traverse(&bvh, &ray, kind);
                    let stack = bvh.intersect(&ray, kind);
                    assert_eq!(
                        stackless.hit.is_some(),
                        stack.hit.is_some(),
                        "hit disagreement (seed {seed}, {kind:?})"
                    );
                    if kind == TraversalKind::ClosestHit {
                        if let (Some(a), Some(b)) = (stackless.hit, stack.hit) {
                            assert!(
                                (a.t - b.t).abs() < 1e-3 * (1.0 + b.t),
                                "closest t {} vs {}",
                                a.t,
                                b.t
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn restarts_cost_extra_interior_fetches() {
        let bvh = Bvh::build(&soup(300, 7));
        let mut rng = SmallRng::seed_from_u64(11);
        let mut extra = 0i64;
        let mut restarts = 0u64;
        for _ in 0..100 {
            let o = Vec3::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0), -10.0);
            let ray = Ray::segment(o, Vec3::Z, 25.0);
            let sl = traverse(&bvh, &ray, TraversalKind::ClosestHit);
            let st = bvh.intersect(&ray, TraversalKind::ClosestHit);
            extra += sl.stats.interior_fetches as i64 - st.stats.interior_fetches as i64;
            restarts += sl.restarts;
        }
        assert!(restarts > 0, "closest-hit rays should need restarts");
        assert!(
            extra >= 0,
            "stackless cannot fetch fewer interior nodes overall"
        );
    }

    #[test]
    fn any_hit_miss_terminates() {
        let bvh = Bvh::build(&soup(50, 3));
        let ray = Ray::new(Vec3::new(100.0, 100.0, 100.0), Vec3::Y);
        let r = traverse(&bvh, &ray, TraversalKind::AnyHit);
        assert!(r.hit.is_none());
    }

    #[test]
    fn pop_trail_enumerates_subtrees() {
        // Level-2 complete binary tree: the trail should enumerate near
        // branch first, then flip each level once.
        let mut trail = 0u64;
        assert!(pop_trail(&mut trail, 2)); // finished near/near
        assert_eq!(trail, 0b10);
        assert!(pop_trail(&mut trail, 2)); // finished near/far… pops to far
        assert_eq!(trail, 0b01);
        assert!(pop_trail(&mut trail, 2));
        assert_eq!(trail, 0b11);
        assert!(!pop_trail(&mut trail, 2), "tree exhausted");
    }

    #[test]
    fn single_leaf_tree_works() {
        let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
        let hit = traverse(
            &bvh,
            &Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z),
            TraversalKind::AnyHit,
        );
        assert!(hit.hit.is_some());
        assert_eq!(hit.restarts, 0);
        let miss = traverse(
            &bvh,
            &Ray::new(Vec3::new(5.0, 5.0, -1.0), Vec3::Z),
            TraversalKind::AnyHit,
        );
        assert!(miss.hit.is_none());
    }
}
