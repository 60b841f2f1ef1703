//! Four-wide BVH: the SIMD-friendly acceleration structure of the wide-BVH
//! line of work the paper cites in §7 ("Ylitie et al. explored wide BVH
//! trees to increase SIMD utilization… these techniques should also work
//! in parallel with our proposed ray intersection predictor").
//!
//! [`WideBvh`] collapses a binary [`Bvh`] bottom-up into compressed
//! [`CompressedWideNode`] records: each 64-byte node absorbs up to four
//! binary descendants and stores their bounds as 8-bit quantized slabs in
//! a per-node [`QuantFrame`], so one node fetch funds four *lockstep*
//! ray-box tests over the four-lane [`F32x4`](crate::simd::F32x4) layer
//! (SSE2 when the `simd` feature is on, a bit-identical scalar fallback
//! otherwise). Leaf triangles are packed at build time into
//! structure-of-arrays groups of four with precomputed Möller–Trumbore
//! edges, so leaf visits are batched four-lane triangle tests.
//!
//! Correctness contract, enforced by `rip-testkit`'s differential oracles:
//!
//! * quantized child boxes are **conservative** supersets of the exact
//!   bounds (see [`QuantFrame::encode_box`]), so the traversal visits a
//!   superset of the exact-box visits — and because every kernel shares
//!   the order-independent [`Hit::closer_than`] tie-break, closest hits
//!   stay **bit-exact** with the binary tree and the brute-force
//!   reference;
//! * the lane arithmetic replicates [`rip_math::Triangle::intersect`]
//!   operation for operation, so a lane's `t` equals the scalar `t` bit
//!   for bit, with or without the `simd` feature.
//!
//! Traversal runs on a bounded [`ShortStack`]; overflow (possible under
//! pathological quantized-overlap descent) is recoverable: the pass is
//! abandoned, one stack spill is charged, and the ray re-runs on an
//! unbounded stack.

use crate::node::{CompressedWideNode, NodeId, NodeKind, QuantFrame, EMPTY_WIDE_CHILD};
use crate::simd::F32x4;
use crate::stack::{ShortStack, SHORT_STACK_CAPACITY};
use crate::{Bvh, Hit, TraversalKind, TraversalStats};
use rip_math::{Ray, Vec3};

/// Maximum children per wide node.
pub const WIDE_ARITY: usize = 4;

/// One structure-of-arrays group of up to four leaf triangles with the
/// Möller–Trumbore setup precomputed: vertex `a`, edges `e1 = b − a` and
/// `e2 = c − a`, and the degeneracy scale `‖e1‖·‖e2‖` — each computed
/// with exactly the arithmetic [`rip_math::Triangle::intersect`] uses, so
/// lane results match the scalar test bit for bit.
///
/// Padding lanes carry `tri_index == u32::MAX` and all-zero geometry,
/// whose zero scale fails the degeneracy test in every backend.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub(crate) struct TriGroup {
    pub(crate) ax: [f32; 4],
    pub(crate) ay: [f32; 4],
    pub(crate) az: [f32; 4],
    pub(crate) e1x: [f32; 4],
    pub(crate) e1y: [f32; 4],
    pub(crate) e1z: [f32; 4],
    pub(crate) e2x: [f32; 4],
    pub(crate) e2y: [f32; 4],
    pub(crate) e2z: [f32; 4],
    pub(crate) l12: [f32; 4],
    pub(crate) tri_index: [u32; 4],
    pub(crate) leaf: u32,
}

// 40 f32 lanes + 4 indices + the leaf id: 180 packed bytes, which the
// layout pin digests as they are.
rip_pod::impl_pod!(TriGroup, size = 180, align = 4);

impl TriGroup {
    pub(crate) fn padding(leaf: u32) -> Self {
        TriGroup {
            ax: [0.0; 4],
            ay: [0.0; 4],
            az: [0.0; 4],
            e1x: [0.0; 4],
            e1y: [0.0; 4],
            e1z: [0.0; 4],
            e2x: [0.0; 4],
            e2y: [0.0; 4],
            e2z: [0.0; 4],
            l12: [0.0; 4],
            tri_index: [u32::MAX; 4],
            leaf,
        }
    }

    fn set_lane(&mut self, lane: usize, tri_index: u32, tri: &rip_math::Triangle) {
        let e1 = tri.b - tri.a;
        let e2 = tri.c - tri.a;
        self.ax[lane] = tri.a.x;
        self.ay[lane] = tri.a.y;
        self.az[lane] = tri.a.z;
        self.e1x[lane] = e1.x;
        self.e1y[lane] = e1.y;
        self.e1z[lane] = e1.z;
        self.e2x[lane] = e2.x;
        self.e2y[lane] = e2.y;
        self.e2z[lane] = e2.z;
        self.l12[lane] = e1.length() * e2.length();
        self.tri_index[lane] = tri_index;
    }
}

/// Result of a wide-BVH traversal.
#[derive(Clone, Debug, PartialEq)]
pub struct WideResult {
    /// The intersection, if any.
    pub hit: Option<Hit>,
    /// Work performed. `interior_fetches` counts wide-node fetches,
    /// `box_tests` the per-fetch lockstep slab tests (one per occupied
    /// slot), `tri_*` the lanes of batched triangle tests, and
    /// `stack_spills` the short-stack overflow restarts.
    pub stats: TraversalStats,
}

/// A four-wide bounding volume hierarchy of compressed, quantized nodes,
/// collapsed from a binary [`Bvh`].
///
/// The structure is self-contained: leaf triangles are re-packed into
/// SIMD-friendly groups at build time, so traversal touches no binary-BVH
/// storage.
///
/// # Examples
///
/// ```
/// use rip_bvh::{Bvh, TraversalKind, WideBvh};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let tris = vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)];
/// let binary = Bvh::build(&tris);
/// let wide = WideBvh::from_binary(&binary);
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// assert!(wide.intersect(&binary, &ray, TraversalKind::AnyHit).hit.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct WideBvh {
    nodes: Vec<CompressedWideNode>,
    groups: Vec<TriGroup>,
}

/// A packed traversal-stack entry: child reference in the low half,
/// triangle count in the high half (zero marks an interior child).
#[inline]
fn pack_entry(count: u16, child: u32) -> u64 {
    ((count as u64) << 32) | child as u64
}

/// Stack abstraction for the two traversal passes: the bounded
/// [`ShortStack`] fast path and the unbounded restart path.
trait EntryStack {
    /// Pushes an entry; `false` signals overflow.
    fn push_entry(&mut self, e: u64) -> bool;
    fn pop_entry(&mut self) -> Option<u64>;
}

impl EntryStack for ShortStack {
    #[inline]
    fn push_entry(&mut self, e: u64) -> bool {
        self.push(e)
    }
    #[inline]
    fn pop_entry(&mut self) -> Option<u64> {
        self.pop()
    }
}

impl EntryStack for Vec<u64> {
    #[inline]
    fn push_entry(&mut self, e: u64) -> bool {
        self.push(e);
        true
    }
    #[inline]
    fn pop_entry(&mut self) -> Option<u64> {
        self.pop()
    }
}

/// Per-ray lane-splatted traversal setup, computed once per ray.
struct RayCtx {
    ox: F32x4,
    oy: F32x4,
    oz: F32x4,
    dx: F32x4,
    dy: F32x4,
    dz: F32x4,
    ix: F32x4,
    iy: F32x4,
    iz: F32x4,
    tmin: F32x4,
    /// `ray.direction.length()`, for the scalar test's degeneracy scale.
    dir_len: f32,
    /// Ize padding factors of the conservative slab acceptance.
    pad_mul: F32x4,
    pad_add: F32x4,
}

impl RayCtx {
    fn new(ray: &Ray, inv_dir: Vec3) -> Self {
        RayCtx {
            ox: F32x4::splat(ray.origin.x),
            oy: F32x4::splat(ray.origin.y),
            oz: F32x4::splat(ray.origin.z),
            dx: F32x4::splat(ray.direction.x),
            dy: F32x4::splat(ray.direction.y),
            dz: F32x4::splat(ray.direction.z),
            ix: F32x4::splat(inv_dir.x),
            iy: F32x4::splat(inv_dir.y),
            iz: F32x4::splat(inv_dir.z),
            tmin: F32x4::splat(ray.t_min),
            dir_len: ray.direction.length(),
            pad_mul: F32x4::splat(1.0 + 1e-6),
            pad_add: F32x4::splat(1e-7),
        }
    }
}

/// The still-interesting `t_max`: trimmed (inclusively) to the best hit
/// for closest-hit queries, mirroring [`crate::kernel::effective_ray`].
#[inline]
fn bound_t_max(ray: &Ray, kind: TraversalKind, best: &Option<Hit>) -> f32 {
    match (kind, best) {
        (TraversalKind::ClosestHit, Some(h)) => ray.t_max.min(h.t),
        _ => ray.t_max,
    }
}

/// Lockstep slab test of a node's four quantized child boxes: lane `i`
/// answers for slot `i`. Returns the hit mask (for occupied slots — the
/// caller must mask out empties, whose inverted sentinels decode to
/// misleading slabs) and the per-lane entry distances for near-first
/// ordering.
///
/// Per lane this is exactly [`rip_math::Aabb::intersect_with_inv`] — same
/// minNum/maxNum fold order, same conservative Ize acceptance — applied
/// to the dequantized (conservative) child bounds.
#[inline]
fn slab4(node: &CompressedWideNode, ctx: &RayCtx, t_max: f32) -> (u8, [f32; 4]) {
    #[inline]
    fn axis(
        qlo: [u8; 4],
        qhi: [u8; 4],
        origin: f32,
        scale: f32,
        o: F32x4,
        inv: F32x4,
    ) -> (F32x4, F32x4) {
        let og = F32x4::splat(origin);
        let sc = F32x4::splat(scale);
        let lo = og + F32x4::new(qlo.map(|q| q as f32)) * sc;
        let hi = og + F32x4::new(qhi.map(|q| q as f32)) * sc;
        let t0 = (lo - o) * inv;
        let t1 = (hi - o) * inv;
        (t0.min_num(t1), t0.max_num(t1))
    }

    let (nx, fx) = axis(
        node.qlo[0],
        node.qhi[0],
        node.origin[0],
        QuantFrame::scale_for_exponent(node.exponents[0]),
        ctx.ox,
        ctx.ix,
    );
    let (ny, fy) = axis(
        node.qlo[1],
        node.qhi[1],
        node.origin[1],
        QuantFrame::scale_for_exponent(node.exponents[1]),
        ctx.oy,
        ctx.iy,
    );
    let (nz, fz) = axis(
        node.qlo[2],
        node.qhi[2],
        node.origin[2],
        QuantFrame::scale_for_exponent(node.exponents[2]),
        ctx.oz,
        ctx.iz,
    );
    let t_enter = nx.max_num(ny).max_num(nz).max_num(ctx.tmin);
    let t_exit = fx.min_num(fy).min_num(fz).min_num(F32x4::splat(t_max));
    let hit = t_enter.le(t_exit * ctx.pad_mul + ctx.pad_add);
    (hit, t_enter.to_array())
}

/// Batched Möller–Trumbore over one triangle group: lane `i` tests
/// triangle `i` against the ray, replicating the scalar
/// [`rip_math::Triangle::intersect`] operation for operation (same
/// products, same left-associated dot folds, same rejection predicates
/// with their NaN behavior), so accepted lanes carry bit-identical `t`.
#[inline]
fn mt4(group: &TriGroup, ctx: &RayCtx, t_max: f32, lane_mask: u8) -> (u8, [f32; 4]) {
    let zero = F32x4::splat(0.0);
    let one = F32x4::splat(1.0);

    let e1x = F32x4::new(group.e1x);
    let e1y = F32x4::new(group.e1y);
    let e1z = F32x4::new(group.e1z);
    let e2x = F32x4::new(group.e2x);
    let e2y = F32x4::new(group.e2y);
    let e2z = F32x4::new(group.e2z);

    // p = d × e2
    let px = ctx.dy * e2z - ctx.dz * e2y;
    let py = ctx.dz * e2x - ctx.dx * e2z;
    let pz = ctx.dx * e2y - ctx.dy * e2x;
    let det = e1x * px + e1y * py + e1z * pz;
    let scale = F32x4::new(group.l12) * F32x4::splat(ctx.dir_len);
    let degenerate = det.abs().le(F32x4::splat(1e-8) * scale) | scale.eq_mask(zero);

    let inv_det = one / det;
    // s = o − a
    let sx = ctx.ox - F32x4::new(group.ax);
    let sy = ctx.oy - F32x4::new(group.ay);
    let sz = ctx.oz - F32x4::new(group.az);
    let u = (sx * px + sy * py + sz * pz) * inv_det;
    let u_ok = u.ge(zero) & u.le(one);

    // q = s × e1
    let qx = sy * e1z - sz * e1y;
    let qy = sz * e1x - sx * e1z;
    let qz = sx * e1y - sy * e1x;
    let v = (ctx.dx * qx + ctx.dy * qy + ctx.dz * qz) * inv_det;
    let v_bad = v.lt(zero) | (u + v).gt(one);

    let t = (e2x * qx + e2y * qy + e2z * qz) * inv_det;
    let t_ok = t.ge(ctx.tmin) & t.le(F32x4::splat(t_max));

    let accept = lane_mask & !degenerate & u_ok & !v_bad & t_ok;
    (accept, t.to_array())
}

/// Outcome of one bounded traversal pass.
enum PassOutcome {
    Complete,
    Overflow,
}

impl WideBvh {
    /// Collapses a binary BVH into compressed 4-wide nodes and packs each
    /// leaf's triangles into SIMD groups.
    ///
    /// Each wide node takes a binary node's children; any interior child
    /// is expanded once more into its own two children while slots remain,
    /// so most wide nodes carry three or four slots. Leaf contents (and
    /// the binary leaf ids reported in hits) are preserved exactly.
    pub fn from_binary(bvh: &Bvh) -> Self {
        let mut wide = WideBvh {
            nodes: vec![CompressedWideNode::empty()],
            groups: Vec::new(),
        };
        wide.build_node(bvh, NodeId::ROOT, 0);
        wide
    }

    /// Number of wide nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of packed four-triangle leaf groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The compressed node and leaf-group records (layout pinning).
    #[cfg(test)]
    pub(crate) fn raw_parts(&self) -> (&[CompressedWideNode], &[TriGroup]) {
        (&self.nodes, &self.groups)
    }

    fn build_node(&mut self, bvh: &Bvh, binary: NodeId, slot: usize) {
        // Gather up to WIDE_ARITY binary descendants by splitting interior
        // children breadth-first.
        let mut members: Vec<NodeId> = vec![binary];
        while let Some(pos) = members
            .iter()
            .position(|&m| !bvh.node(m).is_leaf() && members.len() < WIDE_ARITY)
        {
            let node = bvh.node(members[pos]);
            let NodeKind::Interior { left, right, .. } = node.kind() else {
                unreachable!()
            };
            members.remove(pos);
            members.push(left);
            members.push(right);
        }

        let union = members.iter().fold(rip_math::Aabb::empty(), |u, &m| {
            u.union(&bvh.node_bounds(m))
        });
        let frame = QuantFrame::for_bounds(&union);
        let mut node = CompressedWideNode::empty();
        node.origin = [frame.origin.x, frame.origin.y, frame.origin.z];
        node.exponents = frame.exponents;

        let mut recurse: Vec<(NodeId, u32)> = Vec::new();
        for (i, &member) in members.iter().enumerate() {
            let (qlo, qhi) = frame.encode_box(&bvh.node_bounds(member));
            for axis in 0..3 {
                node.qlo[axis][i] = qlo[axis];
                node.qhi[axis][i] = qhi[axis];
            }
            match bvh.node(member).kind() {
                NodeKind::Leaf { count: 0, .. } => {
                    // A triangle-less leaf carries nothing: leave the slot
                    // empty so traversal never visits it.
                    node.children[i] = EMPTY_WIDE_CHILD;
                }
                NodeKind::Leaf { first, count } => {
                    assert!(
                        count <= u16::MAX as u32,
                        "leaf of {count} triangles exceeds the wide node's 16-bit count"
                    );
                    node.children[i] = self.pack_leaf(bvh, member, first, count);
                    node.counts[i] = count as u16;
                }
                NodeKind::Interior { .. } => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(CompressedWideNode::empty());
                    node.children[i] = idx;
                    recurse.push((member, idx));
                }
            }
        }
        self.nodes[slot] = node;
        for (member, idx) in recurse {
            self.build_node(bvh, member, idx as usize);
        }
    }

    /// Packs one binary leaf's triangles into groups of four; returns the
    /// first group index.
    fn pack_leaf(&mut self, bvh: &Bvh, leaf: NodeId, first: u32, count: u32) -> u32 {
        let start = self.groups.len() as u32;
        let mut slot = first;
        let end = first + count;
        while slot < end {
            let mut group = TriGroup::padding(leaf.index());
            for lane in 0..WIDE_ARITY {
                if slot >= end {
                    break;
                }
                let tri_index = bvh.tri_order_at(slot);
                group.set_lane(lane, tri_index, bvh.triangle(tri_index));
                slot += 1;
            }
            self.groups.push(group);
        }
        start
    }

    /// Traverses the wide tree. The `bvh` parameter is kept for API
    /// compatibility (the compressed tree is self-contained and does not
    /// read it).
    pub fn intersect(&self, bvh: &Bvh, ray: &Ray, kind: TraversalKind) -> WideResult {
        self.intersect_with_inv(bvh, ray, ray.inv_direction(), kind)
    }

    /// [`WideBvh::intersect`] with the ray's reciprocal direction supplied
    /// by the caller (batch pipelines precompute it once per ray; trimming
    /// `t_max` never changes the direction).
    pub fn intersect_with_inv(
        &self,
        bvh: &Bvh,
        ray: &Ray,
        inv_dir: Vec3,
        kind: TraversalKind,
    ) -> WideResult {
        let _ = bvh;
        self.intersect_with_stack_limit(ray, inv_dir, kind, SHORT_STACK_CAPACITY)
    }

    /// Traversal with an explicit short-stack depth limit, exposed so
    /// tests can force the overflow-restart path deterministically.
    ///
    /// Overflow is recoverable, never a panic: the bounded pass is
    /// abandoned, one [`TraversalStats::stack_spills`] is charged, and the
    /// ray re-runs from the root on an unbounded stack (keeping the best
    /// hit found so far, which can only prune work — the shared inclusive
    /// trim and tie-break make the final hit independent of the restart).
    pub fn intersect_with_stack_limit(
        &self,
        ray: &Ray,
        inv_dir: Vec3,
        kind: TraversalKind,
        stack_limit: usize,
    ) -> WideResult {
        let ctx = RayCtx::new(ray, inv_dir);
        let mut stats = TraversalStats::default();
        let mut best: Option<Hit> = None;
        let mut short = ShortStack::with_limit(stack_limit);
        if let PassOutcome::Overflow =
            self.run_pass(ray, &ctx, kind, &mut best, &mut stats, &mut short)
        {
            stats.stack_spills += 1;
            let mut unbounded: Vec<u64> = Vec::with_capacity(4 * SHORT_STACK_CAPACITY);
            let outcome = self.run_pass(ray, &ctx, kind, &mut best, &mut stats, &mut unbounded);
            debug_assert!(
                matches!(outcome, PassOutcome::Complete),
                "the unbounded restart pass cannot overflow"
            );
        }
        WideResult { hit: best, stats }
    }

    /// One traversal pass over the given stack, from the root. Returns
    /// [`PassOutcome::Overflow`] the moment a push is rejected.
    fn run_pass<S: EntryStack>(
        &self,
        ray: &Ray,
        ctx: &RayCtx,
        kind: TraversalKind,
        best: &mut Option<Hit>,
        stats: &mut TraversalStats,
        stack: &mut S,
    ) -> PassOutcome {
        // The root is wide node 0; an interior entry has a zero count.
        let mut entry: u64 = pack_entry(0, 0);
        loop {
            let count = (entry >> 32) as u16;
            let index = entry as u32;
            if count == 0 {
                let node = &self.nodes[index as usize];
                stats.interior_fetches += 1;
                let occupied = node.occupied_mask();
                stats.box_tests += u64::from(occupied.count_ones());
                let t_max = bound_t_max(ray, kind, best);
                let (hit, t_enter) = slab4(node, ctx, t_max);
                let mut m = hit & occupied;

                // Order the hit slots near-first (stable on ties, so both
                // backends and both stack passes agree).
                let mut order: [(f32, usize); WIDE_ARITY] = [(0.0, 0); WIDE_ARITY];
                let mut n = 0;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let te = t_enter[lane];
                    let mut i = n;
                    while i > 0 && te < order[i - 1].0 {
                        order[i] = order[i - 1];
                        i -= 1;
                    }
                    order[i] = (te, lane);
                    n += 1;
                }
                if n == 0 {
                    match stack.pop_entry() {
                        Some(e) => entry = e,
                        None => return PassOutcome::Complete,
                    }
                    continue;
                }
                // Push the far slots (far-to-near) and descend the nearest.
                for &(_, lane) in order[1..n].iter().rev() {
                    if !stack.push_entry(pack_entry(node.counts[lane], node.children[lane])) {
                        return PassOutcome::Overflow;
                    }
                }
                let lane = order[0].1;
                entry = pack_entry(node.counts[lane], node.children[lane]);
            } else {
                if self.test_leaf(index, count, kind, best, ray, ctx, stats) {
                    return PassOutcome::Complete; // any-hit termination
                }
                match stack.pop_entry() {
                    Some(e) => entry = e,
                    None => return PassOutcome::Complete,
                }
            }
        }
    }

    /// Visits one leaf child: batched four-lane triangle tests over its
    /// packed groups, with the shared inclusive best-hit trim (refreshed
    /// per group) and [`Hit::closer_than`] tie-break. Returns `true` when
    /// an any-hit query terminates here.
    #[allow(clippy::too_many_arguments)]
    fn test_leaf(
        &self,
        first_group: u32,
        count: u16,
        kind: TraversalKind,
        best: &mut Option<Hit>,
        ray: &Ray,
        ctx: &RayCtx,
        stats: &mut TraversalStats,
    ) -> bool {
        stats.leaf_fetches += 1;
        let mut remaining = count as usize;
        let mut g = first_group as usize;
        while remaining > 0 {
            let lanes = remaining.min(WIDE_ARITY);
            let group = &self.groups[g];
            stats.tri_fetches += lanes as u64;
            stats.tri_tests += lanes as u64;
            let lane_mask = ((1u16 << lanes) - 1) as u8;
            let t_max = bound_t_max(ray, kind, best);
            let (accept, t) = mt4(group, ctx, t_max, lane_mask);
            let mut m = accept;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let hit = Hit {
                    t: t[lane],
                    tri_index: group.tri_index[lane],
                    leaf: NodeId::new(group.leaf),
                };
                if best.is_none_or(|b| hit.closer_than(&b)) {
                    *best = Some(hit);
                }
                if kind == TraversalKind::AnyHit {
                    return true; // Algorithm 1 line 13
                }
            }
            remaining -= lanes;
            g += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TraversalKernel;
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

    fn sample_rays(n: usize, seed: u64) -> Vec<Ray> {
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

    /// Pins the compressed wide-tree layout: the node and group records
    /// of trees over fixed soups, digested byte for byte.
    #[test]
    fn wide_layout_is_pinned() {
        let digests = [(1, 0), (150, 7), (2_000, 3)].map(|(n, seed)| {
            let wide = WideBvh::from_binary(&Bvh::build(&soup(n, seed)));
            let (nodes, groups) = wide.raw_parts();
            let digest = rip_pod::fnv1a_extend(
                rip_pod::fnv1a(rip_pod::bytes_of_slice(nodes)),
                rip_pod::bytes_of_slice(groups),
            );
            (nodes.len(), groups.len(), digest)
        });
        assert_eq!(
            digests,
            [
                (1, 1, 0xf5c6_f08b_7ba1_2cff),
                (23, 52, 0xe691_433e_2152_7705),
                (319, 670, 0x56da_e5b3_9768_c9e0),
            ]
        );
    }

    #[test]
    fn wide_matches_binary_results_bit_exactly() {
        for seed in 0..5 {
            let binary = Bvh::build(&soup(200, seed));
            let wide = WideBvh::from_binary(&binary);
            for ray in sample_rays(60, seed ^ 0xAB) {
                let w = wide.intersect(&binary, &ray, TraversalKind::ClosestHit);
                let b = binary.intersect(&ray, TraversalKind::ClosestHit);
                assert_eq!(
                    w.hit.map(|h| (h.tri_index, h.leaf, h.t.to_bits())),
                    b.hit.map(|h| (h.tri_index, h.leaf, h.t.to_bits())),
                    "closest-hit divergence (seed {seed}, {ray:?})"
                );
                let w = wide.intersect(&binary, &ray, TraversalKind::AnyHit);
                let b = binary.intersect(&ray, TraversalKind::AnyHit);
                assert_eq!(
                    w.hit.is_some(),
                    b.hit.is_some(),
                    "any-hit divergence (seed {seed}, {ray:?})"
                );
            }
        }
    }

    #[test]
    fn wide_tree_is_smaller_and_fetches_fewer_interior_nodes() {
        let binary = Bvh::build(&soup(400, 9));
        let wide = WideBvh::from_binary(&binary);
        assert!(
            wide.node_count() * 2 < binary.node_count(),
            "4-wide tree should have well under half the nodes: {} vs {}",
            wide.node_count(),
            binary.node_count()
        );
        let mut rng = SmallRng::seed_from_u64(17);
        let mut wide_fetches = 0u64;
        let mut binary_fetches = 0u64;
        for _ in 0..100 {
            let o = Vec3::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0), -10.0);
            let ray = Ray::segment(o, Vec3::Z, 25.0);
            wide_fetches += wide
                .intersect(&binary, &ray, TraversalKind::ClosestHit)
                .stats
                .interior_fetches;
            binary_fetches += binary
                .intersect(&ray, TraversalKind::ClosestHit)
                .stats
                .interior_fetches;
        }
        assert!(
            wide_fetches * 3 < binary_fetches * 2,
            "wide traversal should fetch well under 2/3 of the interior nodes: {wide_fetches} vs {binary_fetches}"
        );
    }

    #[test]
    fn single_triangle_collapses_to_one_node() {
        let binary = Bvh::build(&soup(1, 1));
        let wide = WideBvh::from_binary(&binary);
        assert_eq!(wide.node_count(), 1);
        assert_eq!(wide.group_count(), 1);
    }

    #[test]
    fn quantized_leaf_boxes_contain_their_triangles() {
        // Conservatism end to end: every triangle packed under a leaf slot
        // must lie inside that slot's *decoded* (quantized) box, so the
        // slab test can never cull a box holding a reportable hit.
        let binary = Bvh::build(&soup(300, 21));
        let wide = WideBvh::from_binary(&binary);
        let mut leaf_slots = 0;
        for node in &wide.nodes {
            for i in 0..WIDE_ARITY {
                if node.counts[i] == 0 {
                    continue;
                }
                leaf_slots += 1;
                let decoded = node.child_bounds(i);
                let leaf = NodeId::new(wide.groups[node.children[i] as usize].leaf);
                let exact = binary.node_bounds(leaf);
                assert!(
                    decoded.contains_box(&exact),
                    "quantized leaf box {decoded:?} must contain exact bounds {exact:?}"
                );
            }
        }
        assert!(leaf_slots > 0, "scene must produce leaf slots");
    }

    #[test]
    fn overflow_restart_matches_unbounded_traversal() {
        let binary = Bvh::build(&soup(500, 33));
        let wide = WideBvh::from_binary(&binary);
        for (i, ray) in sample_rays(80, 77).iter().enumerate() {
            for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
                let full = wide.intersect(&binary, ray, kind);
                // A two-entry stack overflows on almost every ray; the
                // restart must recover the identical hit.
                let tiny = wide.intersect_with_stack_limit(ray, ray.inv_direction(), kind, 2);
                assert_eq!(
                    tiny.hit.map(|h| (h.tri_index, h.leaf, h.t.to_bits())),
                    full.hit.map(|h| (h.tri_index, h.leaf, h.t.to_bits())),
                    "ray {i} ({kind:?}): overflow restart changed the hit"
                );
                if tiny.stats.stack_spills > 0 {
                    assert!(
                        tiny.stats.interior_fetches >= full.stats.interior_fetches,
                        "restart re-does work, never less"
                    );
                }
            }
        }
        // The tiny stack must actually have overflowed somewhere, or the
        // test proves nothing.
        let spilled: u64 = sample_rays(80, 77)
            .iter()
            .map(|r| {
                wide.intersect_with_stack_limit(r, r.inv_direction(), TraversalKind::ClosestHit, 2)
                    .stats
                    .stack_spills
            })
            .sum();
        assert!(
            spilled > 0,
            "stack limit 2 should trigger at least one restart"
        );
    }

    #[test]
    fn kernel_name_is_stable() {
        let binary = Bvh::build(&soup(10, 3));
        let wide = WideBvh::from_binary(&binary);
        assert_eq!(crate::WideKernel::new(&wide, &binary).name(), "wide4");
    }
}
