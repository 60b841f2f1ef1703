//! Binned-SAH BVH construction.

use crate::node::{BvhNode, NodeId, NodeKind};
use crate::Bvh;
use rip_math::{Aabb, Triangle, Vec3};

/// Partitioning strategy used at each interior node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitMethod {
    /// Surface-area heuristic over binned centroids (16 bins). The
    /// production-quality default, matching what the paper's OptiX/Embree
    /// toolchain produces in spirit.
    #[default]
    BinnedSah,
    /// Median split along the largest centroid axis. Cheaper to build and
    /// useful as an ablation baseline.
    Median,
}

/// Configurable BVH builder.
///
/// # Examples
///
/// ```
/// use rip_bvh::{BvhBuilder, SplitMethod};
/// use rip_math::{Triangle, Vec3};
///
/// let tris: Vec<Triangle> = (0..64)
///     .map(|i| {
///         let o = Vec3::new(i as f32, 0.0, 0.0);
///         Triangle::new(o, o + Vec3::X, o + Vec3::Y)
///     })
///     .collect();
/// let bvh = BvhBuilder::new()
///     .split_method(SplitMethod::BinnedSah)
///     .max_leaf_size(2)
///     .build(&tris);
/// assert!(bvh.depth() >= 5);
/// ```
#[derive(Clone, Debug)]
pub struct BvhBuilder {
    split_method: SplitMethod,
    max_leaf_size: u32,
    bins: usize,
}

impl Default for BvhBuilder {
    fn default() -> Self {
        BvhBuilder {
            split_method: SplitMethod::BinnedSah,
            max_leaf_size: 4,
            bins: 16,
        }
    }
}

/// A triangle reference carried through the build.
#[derive(Clone, Copy)]
struct TriRef {
    index: u32,
    /// The SAH bin of the current node's binning pass.
    bin: u32,
    bounds: Aabb,
    centroid: Vec3,
}

impl BvhBuilder {
    /// Creates a builder with the default configuration (binned SAH,
    /// max 4 triangles per leaf, 16 bins).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the partitioning strategy.
    pub fn split_method(mut self, method: SplitMethod) -> Self {
        self.split_method = method;
        self
    }

    /// Sets the maximum number of triangles per leaf.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn max_leaf_size(mut self, n: u32) -> Self {
        assert!(n > 0, "leaf size must be positive");
        self.max_leaf_size = n;
        self
    }

    /// Sets the SAH bin count.
    ///
    /// # Panics
    ///
    /// Panics when `bins < 2`.
    pub fn bins(mut self, bins: usize) -> Self {
        assert!(bins >= 2, "need at least 2 bins");
        self.bins = bins;
        self
    }

    /// Builds a BVH over a copy of `triangles`.
    ///
    /// # Panics
    ///
    /// Panics when `triangles` is empty.
    pub fn build(&self, triangles: &[Triangle]) -> Bvh {
        self.build_owned(triangles.to_vec())
    }

    /// Builds a BVH over `triangles`, which move into the tree.
    ///
    /// # Panics
    ///
    /// Panics when `triangles` is empty.
    pub fn build_owned(&self, triangles: Vec<Triangle>) -> Bvh {
        assert!(
            !triangles.is_empty(),
            "cannot build a BVH over zero triangles"
        );
        let mut refs: Vec<TriRef> = triangles
            .iter()
            .enumerate()
            .map(|(i, t)| TriRef {
                index: i as u32,
                bin: 0,
                bounds: t.bounds(),
                centroid: t.centroid(),
            })
            .collect();

        let mut nodes: Vec<BvhNode> = Vec::with_capacity(triangles.len() * 2);
        let mut tri_order: Vec<u32> = Vec::with_capacity(triangles.len());

        // Reserve the root slot, then build recursively.
        nodes.push(BvhNode {
            bounds: Aabb::empty(),
            kind: NodeKind::Leaf { first: 0, count: 0 },
            parent: None,
            depth: 0,
        });
        let n = refs.len();
        self.build_node(&mut nodes, &mut tri_order, &mut refs, 0, n, 0, None, 0);
        drop(refs);

        Bvh::from_parts(nodes, tri_order, triangles)
    }

    /// Builds the subtree for `refs[start..end]` into `nodes[slot]`.
    ///
    /// An SAH split reads the node's refs three times: one pass folds the
    /// node and centroid bounds, one bins, one partitions.
    #[allow(clippy::too_many_arguments)]
    fn build_node(
        &self,
        nodes: &mut Vec<BvhNode>,
        tri_order: &mut Vec<u32>,
        refs: &mut [TriRef],
        start: usize,
        end: usize,
        slot: usize,
        parent: Option<NodeId>,
        depth: u32,
    ) {
        let (bounds, centroid_bounds) = refs[start..end]
            .iter()
            .fold((Aabb::empty(), Aabb::empty()), |(b, c), r| {
                (b.union(&r.bounds), c.grow(r.centroid))
            });
        let count = end - start;

        let split = if count <= self.max_leaf_size as usize {
            None
        } else {
            let refs = &mut refs[start..end];
            match self.split_method {
                SplitMethod::BinnedSah => self.sah_split(refs, &bounds, &centroid_bounds),
                SplitMethod::Median => median_split(refs, &centroid_bounds),
            }
        };

        match split {
            None => {
                let first = tri_order.len() as u32;
                tri_order.extend(refs[start..end].iter().map(|r| r.index));
                nodes[slot] = BvhNode {
                    bounds,
                    kind: NodeKind::Leaf {
                        first,
                        count: count as u32,
                    },
                    parent,
                    depth,
                };
            }
            Some(mid_rel) => {
                let mid = start + mid_rel;
                let left_slot = nodes.len();
                let right_slot = left_slot + 1;
                let placeholder = BvhNode {
                    bounds: Aabb::empty(),
                    kind: NodeKind::Leaf { first: 0, count: 0 },
                    parent: Some(NodeId::new(slot as u32)),
                    depth: depth + 1,
                };
                nodes.push(placeholder);
                nodes.push(placeholder);
                self.build_node(
                    nodes,
                    tri_order,
                    refs,
                    start,
                    mid,
                    left_slot,
                    Some(NodeId::new(slot as u32)),
                    depth + 1,
                );
                self.build_node(
                    nodes,
                    tri_order,
                    refs,
                    mid,
                    end,
                    right_slot,
                    Some(NodeId::new(slot as u32)),
                    depth + 1,
                );
                nodes[slot] = BvhNode {
                    bounds,
                    kind: NodeKind::Interior {
                        left: NodeId::new(left_slot as u32),
                        right: NodeId::new(right_slot as u32),
                        left_bounds: nodes[left_slot].bounds,
                        right_bounds: nodes[right_slot].bounds,
                    },
                    parent,
                    depth,
                };
            }
        }
    }

    /// Partitions `refs`, whose union is `bounds`, with binned SAH;
    /// returns the split point, or `None` to make a leaf. Falls back to a
    /// median split when centroids are degenerate, and makes a leaf only
    /// when SAH says splitting never pays.
    fn sah_split(
        &self,
        refs: &mut [TriRef],
        bounds: &Aabb,
        centroid_bounds: &Aabb,
    ) -> Option<usize> {
        let axis = centroid_bounds.diagonal().largest_axis();
        let extent = centroid_bounds.diagonal()[axis];
        if extent < 1e-12 {
            // All centroids coincide along every useful axis: median split
            // by index keeps the tree balanced.
            return median_split(refs, centroid_bounds);
        }

        let nbins = self.bins;
        let mut bin_bounds = vec![Aabb::empty(); nbins];
        let mut bin_counts = vec![0usize; nbins];
        let k = nbins as f32 * (1.0 - 1e-6) / extent;
        for r in refs.iter_mut() {
            let b = (((r.centroid[axis] - centroid_bounds.min[axis]) * k) as usize).min(nbins - 1);
            r.bin = b as u32;
            bin_bounds[b] = bin_bounds[b].union(&r.bounds);
            bin_counts[b] += 1;
        }

        // Sweep to find the cheapest split boundary.
        let mut right_area = vec![0.0f32; nbins];
        let mut acc = Aabb::empty();
        for i in (1..nbins).rev() {
            acc = acc.union(&bin_bounds[i]);
            right_area[i] = acc.surface_area();
        }
        let mut best: Option<(usize, f32)> = None;
        let mut left_acc = Aabb::empty();
        let mut left_count = 0usize;
        let total = refs.len();
        for boundary in 1..nbins {
            left_acc = left_acc.union(&bin_bounds[boundary - 1]);
            left_count += bin_counts[boundary - 1];
            let right_count = total - left_count;
            if left_count == 0 || right_count == 0 {
                continue;
            }
            let cost = left_acc.surface_area() * left_count as f32
                + right_area[boundary] * right_count as f32;
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((boundary, cost));
            }
        }
        let (boundary, split_cost) = best?;

        // Compare against the cost of not splitting (SAH with traversal
        // cost folded into a 1.2× relative intersection weight).
        let parent_area = bounds.surface_area();
        let leaf_cost = total as f32 * parent_area;
        if split_cost / parent_area.max(1e-20) + 1.2 >= leaf_cost / parent_area.max(1e-20)
            && total <= 2 * self.max_leaf_size as usize
        {
            return None;
        }

        // Partition by the bins the binning pass stored.
        let boundary = boundary as u32;
        let mut mid = 0;
        for j in 0..refs.len() {
            if refs[j].bin < boundary {
                refs.swap(mid, j);
                mid += 1;
            }
        }
        if mid == 0 || mid == refs.len() {
            return median_split(refs, centroid_bounds);
        }
        Some(mid)
    }
}

/// Median split of `refs`, whose centroids span `centroid_bounds`, along
/// the largest centroid axis.
fn median_split(refs: &mut [TriRef], centroid_bounds: &Aabb) -> Option<usize> {
    if refs.len() < 2 {
        return None;
    }
    let axis = centroid_bounds.diagonal().largest_axis();
    let mid = refs.len() / 2;
    refs.select_nth_unstable_by(mid, |a, b| {
        a.centroid[axis]
            .partial_cmp(&b.centroid[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Some(mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let o = Vec3::new(i as f32 * 2.0, 0.0, 0.0);
                Triangle::new(o, o + Vec3::X, o + Vec3::Y)
            })
            .collect()
    }

    #[test]
    fn single_triangle_is_root_leaf() {
        let bvh = BvhBuilder::new().build(&strip(1));
        assert_eq!(bvh.node_count(), 1);
        assert!(bvh.node(NodeId::ROOT).is_leaf());
    }

    #[test]
    fn leaf_size_respected() {
        for method in [SplitMethod::BinnedSah, SplitMethod::Median] {
            let bvh = BvhBuilder::new()
                .split_method(method)
                .max_leaf_size(3)
                .build(&strip(100));
            for node in bvh.nodes() {
                if let NodeKind::Leaf { count, .. } = node.kind {
                    assert!(count <= 6, "{method:?} leaf with {count} tris");
                }
            }
        }
    }

    #[test]
    fn sah_tree_is_roughly_logarithmic() {
        let bvh = BvhBuilder::new().max_leaf_size(1).build(&strip(256));
        assert!(bvh.depth() >= 8, "depth {}", bvh.depth());
        assert!(bvh.depth() <= 24, "depth {}", bvh.depth());
    }

    #[test]
    fn coincident_centroids_still_terminate() {
        // 64 identical triangles: centroid extent is zero on every axis.
        let tris: Vec<Triangle> = (0..64)
            .map(|_| Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y))
            .collect();
        let bvh = BvhBuilder::new().max_leaf_size(2).build(&tris);
        bvh.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "zero triangles")]
    fn empty_input_panics() {
        let _ = BvhBuilder::new().build(&[]);
    }
}
