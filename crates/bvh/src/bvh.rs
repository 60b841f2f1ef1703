//! The BVH container and whole-tree queries.

use crate::node::{BvhNode, NodeId, NodeKind};
use crate::traversal::{Traversal, TraversalKind, TraversalResult};
use crate::{BvhBuilder, MemoryLayout};
use rip_math::{Aabb, Ray, Triangle};
use rip_pod::PodBuf;

/// A built bounding volume hierarchy.
///
/// Holds the node array, the leaf-order triangle permutation, a copy of the
/// triangles themselves and the root's box, so traversal needs no external
/// lookups.
///
/// # Examples
///
/// ```
/// use rip_bvh::{Bvh, TraversalKind};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let tris = vec![
///     Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y),
///     Triangle::new(Vec3::Z * 3.0, Vec3::Z * 3.0 + Vec3::X, Vec3::Z * 3.0 + Vec3::Y),
/// ];
/// let bvh = Bvh::build(&tris);
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// let closest = bvh.intersect(&ray, TraversalKind::ClosestHit);
/// assert_eq!(closest.hit.unwrap().tri_index, 0);
/// ```
#[derive(Clone, Debug)]
pub struct Bvh {
    // The pod buffers may borrow shared artifact memory (RIPA zero-copy
    // load); every mutation path detaches a private copy.
    nodes: PodBuf<BvhNode>,
    tri_order: PodBuf<u32>,
    triangles: PodBuf<Triangle>,
    root_bounds: Aabb,
    depth: u32,
    layout: MemoryLayout,
}

impl Bvh {
    /// Builds a BVH with the default [`BvhBuilder`] configuration; zero
    /// triangles give the empty tree, which every ray misses.
    pub fn build(triangles: &[Triangle]) -> Self {
        BvhBuilder::new().build(triangles)
    }

    /// Assembles a BVH from builder output (crate-internal). The pod
    /// buffers may be owned or borrow shared artifact memory.
    pub(crate) fn from_parts(
        nodes: impl Into<PodBuf<BvhNode>>,
        root_bounds: Aabb,
        tri_order: impl Into<PodBuf<u32>>,
        triangles: impl Into<PodBuf<Triangle>>,
    ) -> Self {
        let nodes = nodes.into();
        let tri_order = tri_order.into();
        let triangles = triangles.into();
        let depth = nodes.iter().map(BvhNode::depth).max().unwrap_or(0);
        let layout = MemoryLayout::for_tree(nodes.len(), triangles.len());
        Bvh {
            nodes,
            tri_order,
            triangles,
            root_bounds,
            depth,
            layout,
        }
    }

    /// Whether all three buffers — nodes, leaf order and triangles —
    /// borrow shared artifact memory, as a tree loaded from disk does
    /// (diagnostics).
    pub fn is_shared(&self) -> bool {
        self.nodes.is_shared() && self.tri_order.is_shared() && self.triangles.is_shared()
    }

    /// Raw node/order/triangle buffers for serialization (crate-internal).
    pub(crate) fn raw_parts(&self) -> (&[BvhNode], &[u32], &[Triangle]) {
        (&self.nodes, &self.tri_order, &self.triangles)
    }

    /// Number of nodes (interior + leaf).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// All triangles in original (input) index order: the scene's
    /// triangles, in the order the tree was built from.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// Maximum node depth (root = 0); the "BVH Tree Depth" of Table 1.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Scene bounds (root bounds).
    pub fn bounds(&self) -> Aabb {
        self.root_bounds
    }

    /// Byte-address layout of the node/triangle buffers.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// All nodes in index order.
    pub fn nodes(&self) -> &[BvhNode] {
        &self.nodes
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &BvhNode {
        &self.nodes[id.index() as usize]
    }

    /// Bounds of everything under node `id`: the root's box, or the child
    /// slot its parent holds for it.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn node_bounds(&self, id: NodeId) -> Aabb {
        match self.node(id).parent() {
            None => self.root_bounds,
            Some(parent) => self.node(parent).bounds_of_child(id),
        }
    }

    /// The triangles of a leaf as `(original_index, triangle)` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a leaf.
    pub fn leaf_triangles(&self, id: NodeId) -> impl Iterator<Item = (u32, &Triangle)> + '_ {
        match self.node(id).kind() {
            NodeKind::Leaf { first, count } => self.tri_order
                [first as usize..(first + count) as usize]
                .iter()
                .map(move |&t| (t, &self.triangles[t as usize])),
            NodeKind::Interior { .. } => panic!("{id} is not a leaf"),
        }
    }

    /// A triangle by original index.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[inline]
    pub fn triangle(&self, index: u32) -> &Triangle {
        &self.triangles[index as usize]
    }

    /// The original triangle index stored at `slot` of the leaf-order
    /// permutation (used by alternative traversals such as
    /// [`WideBvh`](crate::WideBvh) that share this tree's leaf layout).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range.
    #[inline]
    pub fn tri_order_at(&self, slot: u32) -> u32 {
        self.tri_order[slot as usize]
    }

    /// The `k`-th ancestor of `id` (clamped at the root). With `k = 0` this
    /// is the node itself — exactly the Go Up Level semantics of §4.3.
    ///
    /// Because every node carries its parent index in its padded space, the
    /// walk costs no simulated memory accesses.
    pub fn ancestor(&self, id: NodeId, k: u32) -> NodeId {
        let mut cur = id;
        for _ in 0..k {
            match self.node(cur).parent() {
                Some(p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// The leaf containing triangle `tri_index`, found by walking down from
    /// the root (test helper; O(depth)).
    pub fn leaf_of_triangle(&self, tri_index: u32) -> Option<NodeId> {
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            match self.node(id).kind() {
                NodeKind::Leaf { first, count } => {
                    if self.tri_order[first as usize..(first + count) as usize].contains(&tri_index)
                    {
                        return Some(id);
                    }
                }
                NodeKind::Interior { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
        None
    }

    /// Runs a full traversal to completion (convenience wrapper around the
    /// steppable [`Traversal`]).
    pub fn intersect(&self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        Traversal::new(kind).run(self, ray)
    }

    /// Brute-force reference intersection over every triangle (for tests
    /// and validation; O(n) per ray).
    ///
    /// Closest-hit applies the shared tie-break rule of
    /// [`Hit::closer_than`](crate::Hit::closer_than): smaller `t` wins,
    /// equal `t` resolves to the smaller original triangle index. All three
    /// traversal kernels follow the same rule, so their closest hit matches
    /// this reference exactly.
    pub fn intersect_brute_force(&self, ray: &Ray, kind: TraversalKind) -> Option<(u32, f32)> {
        let mut best: Option<(u32, f32)> = None;
        for (i, tri) in self.triangles.iter().enumerate() {
            if let Some(h) = tri.intersect(ray) {
                match kind {
                    TraversalKind::AnyHit => return Some((i as u32, h.t)),
                    TraversalKind::ClosestHit => {
                        // Iteration is in index order, so strict `<` on t
                        // keeps the lowest-index triangle among equal-t hits.
                        if best.is_none_or(|(_, t)| h.t < t) {
                            best = Some((i as u32, h.t));
                        }
                    }
                }
            }
        }
        best
    }

    /// Refits the hierarchy to deformed geometry **without changing its
    /// topology**: every node keeps its [`NodeId`], only the bounds are
    /// recomputed bottom-up.
    ///
    /// This is the classic dynamic-scene update (animation, §8 of the
    /// paper): because node identities are stable, predictor state trained
    /// on previous frames remains *valid* — a stored node still denotes the
    /// same subtree, it merely bounds slightly different geometry. The
    /// paper's future-work hypothesis ("predictor states could potentially
    /// be preserved between frames") is evaluated on top of this primitive.
    ///
    /// # Errors
    ///
    /// Returns an error (leaving the BVH untouched) when `new_triangles`
    /// does not have exactly the original triangle count.
    pub fn refit(&mut self, new_triangles: &[Triangle]) -> Result<(), String> {
        if new_triangles.len() != self.triangles.len() {
            return Err(format!(
                "refit requires {} triangles, got {}",
                self.triangles.len(),
                new_triangles.len()
            ));
        }
        let triangles = self.triangles.to_mut();
        triangles.clear();
        triangles.extend_from_slice(new_triangles);
        // Nodes were allocated parent-before-child (the builder reserves a
        // slot, then pushes children), so a reverse index sweep visits
        // children before parents: each node's box is final when it is
        // written into its parent's child slot (or, for the root, the
        // tree's own box).
        let nodes = self.nodes.to_mut();
        for idx in (0..nodes.len()).rev() {
            let node = nodes[idx];
            let bounds = match node.kind() {
                NodeKind::Leaf { first, count } => self.tri_order
                    [first as usize..(first + count) as usize]
                    .iter()
                    .fold(Aabb::empty(), |b, &t| {
                        b.union(&triangles[t as usize].bounds())
                    }),
                NodeKind::Interior {
                    left_bounds,
                    right_bounds,
                    ..
                } => left_bounds.union(&right_bounds),
            };
            let id = NodeId::new(idx as u32);
            match node.parent() {
                None => self.root_bounds = bounds,
                Some(p) => {
                    let parent = &mut nodes[p.index() as usize];
                    parent.child_bounds[parent.slot_of(id)] = bounds;
                }
            }
        }
        Ok(())
    }

    /// Checks the structural invariants of the tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: index ranges
    /// (this method must never panic — deserialization relies on it to
    /// reject corrupt artifacts), child bounds containment, parent/child
    /// link consistency, triangle coverage (each triangle in exactly one
    /// leaf), and depth bookkeeping.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        if self.nodes[0].parent().is_some() {
            return Err("root has a parent".into());
        }
        let mut seen = vec![false; self.triangles.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            let id = NodeId::new(idx as u32);
            // A node's box is its parent's child slot, so the parent must
            // name it as a child before the box can be read.
            if let Some(p) = node.parent() {
                let named = self.nodes.get(p.index() as usize).is_some_and(|parent| {
                    matches!(parent.kind(), NodeKind::Interior { left, right, .. }
                        if left == id || right == id)
                });
                if !named {
                    return Err(format!("{id} parent link broken"));
                }
            }
            let bounds = inflate(self.node_bounds(id));
            match node.kind() {
                NodeKind::Leaf { first, count } => {
                    // Only the empty tree's root leaf holds no triangles.
                    if count == 0 && !(self.nodes.len() == 1 && self.triangles.is_empty()) {
                        return Err(format!("{id} is an empty leaf"));
                    }
                    let range = (first as usize)
                        .checked_add(count as usize)
                        .filter(|&end| end <= self.tri_order.len())
                        .map(|end| first as usize..end)
                        .ok_or_else(|| format!("{id} leaf range out of bounds"))?;
                    for &t in &self.tri_order[range] {
                        let slot = seen
                            .get_mut(t as usize)
                            .ok_or_else(|| format!("{id} references triangle {t} out of range"))?;
                        if *slot {
                            return Err(format!("triangle {t} appears in two leaves"));
                        }
                        *slot = true;
                        let tb = self.triangles[t as usize].bounds();
                        if !bounds.contains_box(&tb) {
                            return Err(format!("{id} does not bound triangle {t}"));
                        }
                    }
                }
                NodeKind::Interior {
                    left,
                    right,
                    left_bounds,
                    right_bounds,
                } => {
                    for (child, cb) in [(left, left_bounds), (right, right_bounds)] {
                        let cnode = self
                            .nodes
                            .get(child.index() as usize)
                            .ok_or_else(|| format!("{id} child {child} out of range"))?;
                        if cnode.parent() != Some(id) {
                            return Err(format!("{child} parent link broken"));
                        }
                        if cnode.depth() != node.depth() + 1 {
                            return Err(format!("{child} depth wrong"));
                        }
                        if !bounds.contains_box(&cb) {
                            return Err(format!("{id} does not contain child {child}"));
                        }
                    }
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("triangle {missing} not referenced by any leaf"));
        }
        Ok(())
    }
}

/// Inflates a box by a relative epsilon for containment checks.
fn inflate(b: Aabb) -> Aabb {
    let eps = rip_math::Vec3::splat(1e-4 * (1.0 + b.diagonal().max_component()));
    Aabb::new(b.min - eps, b.max + eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::Vec3;

    fn grid_scene(n: usize) -> Vec<Triangle> {
        let mut tris = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
            }
        }
        tris
    }

    #[test]
    fn build_and_validate() {
        let bvh = Bvh::build(&grid_scene(8));
        bvh.validate().unwrap();
        assert_eq!(bvh.triangle_count(), 64);
        assert!(bvh.leaf_count() >= 8);
        assert!(bvh.node_count() >= 2 * bvh.leaf_count() - 1);
    }

    #[test]
    fn ancestor_walk_clamps_at_root() {
        let bvh = Bvh::build(&grid_scene(4));
        let leaf = bvh.leaf_of_triangle(0).unwrap();
        assert_eq!(bvh.ancestor(leaf, 0), leaf);
        assert_eq!(bvh.ancestor(leaf, 100), NodeId::ROOT);
        let parent = bvh.ancestor(leaf, 1);
        assert_eq!(bvh.node(leaf).parent(), Some(parent));
    }

    #[test]
    fn leaf_of_triangle_finds_every_triangle() {
        let bvh = Bvh::build(&grid_scene(4));
        for t in 0..bvh.triangle_count() as u32 {
            let leaf = bvh.leaf_of_triangle(t).expect("triangle must be in a leaf");
            assert!(bvh.leaf_triangles(leaf).any(|(i, _)| i == t));
        }
    }

    #[test]
    fn intersect_down_matches_brute_force_for_grid() {
        let bvh = Bvh::build(&grid_scene(6));
        let ray = Ray::new(Vec3::new(2.5, 5.0, 3.5), -Vec3::Y);
        let fast = bvh.intersect(&ray, TraversalKind::ClosestHit);
        let brute = bvh.intersect_brute_force(&ray, TraversalKind::ClosestHit);
        assert_eq!(fast.hit.map(|h| h.tri_index), brute.map(|(i, _)| i));
    }

    #[test]
    fn miss_reports_no_hit() {
        let bvh = Bvh::build(&grid_scene(2));
        let ray = Ray::new(Vec3::new(0.0, 5.0, 0.0), Vec3::Y);
        assert!(bvh.intersect(&ray, TraversalKind::AnyHit).hit.is_none());
    }

    #[test]
    fn refit_preserves_topology_and_correctness() {
        let tris = grid_scene(6);
        let mut bvh = Bvh::build(&tris);
        let depth_before = bvh.depth();
        let node_count = bvh.node_count();
        // Deform: lift every vertex by a per-triangle amount.
        let deformed: Vec<Triangle> = tris
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let dy = Vec3::Y * ((i % 5) as f32 * 0.3);
                Triangle::new(t.a + dy, t.b + dy, t.c + dy)
            })
            .collect();
        bvh.refit(&deformed).unwrap();
        assert_eq!(bvh.node_count(), node_count, "topology must be unchanged");
        assert_eq!(bvh.depth(), depth_before);
        bvh.validate().unwrap();
        // Traversal over the refitted tree matches brute force.
        for i in 0..24 {
            let ray = Ray::new(
                Vec3::new(0.5 + (i % 6) as f32, 6.0, 0.5 + (i / 6) as f32),
                -Vec3::Y,
            );
            let fast = bvh
                .intersect(&ray, TraversalKind::ClosestHit)
                .hit
                .map(|h| h.tri_index);
            let brute = bvh
                .intersect_brute_force(&ray, TraversalKind::ClosestHit)
                .map(|(t, _)| t);
            assert_eq!(fast, brute, "refit broke traversal for ray {i}");
        }
    }

    #[test]
    fn refit_rejects_wrong_triangle_count() {
        let tris = grid_scene(3);
        let mut bvh = Bvh::build(&tris);
        assert!(bvh.refit(&tris[..4]).is_err());
        bvh.validate().unwrap();
    }

    #[test]
    fn refit_updates_cached_child_bounds() {
        let tris = grid_scene(4);
        let mut bvh = Bvh::build(&tris);
        let moved: Vec<Triangle> = tris
            .iter()
            .map(|t| Triangle::new(t.a + Vec3::Y, t.b + Vec3::Y, t.c + Vec3::Y))
            .collect();
        bvh.refit(&moved).unwrap();
        // validate() checks every child box lies in its parent's box.
        bvh.validate().unwrap();
        assert!(bvh.bounds().min.y >= 0.9, "bounds must follow the geometry");
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn leaf_triangles_on_interior_panics() {
        let bvh = Bvh::build(&grid_scene(4));
        // Root of a 16-triangle tree is interior.
        let _ = bvh.leaf_triangles(NodeId::ROOT).count();
    }
}
