//! Binned-SAH BVH construction.
//!
//! A build splits the top of the tree serially until its nodes are small
//! enough, then builds the subtrees below as independent jobs on a
//! caller-supplied [`JobMap`] and splices their nodes into the numbering a
//! serial build gives. Which nodes become jobs depends only on triangle
//! counts, so the tree is byte-identical however the jobs ran.

use std::sync::Mutex;

use crate::node::{BvhNode, NodeId, NO_PARENT};
use crate::Bvh;
use rip_math::{Aabb, Triangle, Vec3};

/// Nodes with at least this many triangles are split in a build's serial
/// top; smaller nodes under it become subtree jobs.
const JOB_MIN_TRIANGLES: usize = 32_768;

/// Depth of a build's serial top: a build runs at most `2^JOB_DEPTH`
/// subtree jobs.
const JOB_DEPTH: u32 = 4;

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

/// Runs the independent subtree jobs of a build
/// ([`BvhBuilder::build_on`]), for instance on a thread pool.
pub trait JobMap {
    /// Applies `f` to every item and returns the results in input order.
    fn map_jobs<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U>;
}

/// Runs every job on the calling thread: the serial build.
struct Inline;

impl JobMap for Inline {
    fn map_jobs<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        items.iter().map(f).collect()
    }
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

/// Bounds of a node's triangles and of their centroids.
#[derive(Clone, Copy)]
struct NodeBounds {
    bounds: Aabb,
    centroids: Aabb,
}

impl NodeBounds {
    /// Folds the bounds of `refs`.
    fn of(refs: &[TriRef]) -> Self {
        let empty = NodeBounds {
            bounds: Aabb::empty(),
            centroids: Aabb::empty(),
        };
        refs.iter().fold(empty, |acc, r| NodeBounds {
            bounds: acc.bounds.union(&r.bounds),
            centroids: acc.centroids.grow(r.centroid),
        })
    }
}

/// A node's refs split in two: the left child gets `refs[..mid]`. Both
/// children's bounds come with the split.
struct Split {
    mid: usize,
    left: NodeBounds,
    right: NodeBounds,
}

/// One SAH bin of a binning pass.
#[derive(Clone, Copy)]
struct Bin {
    bounds: Aabb,
    count: usize,
}

/// Per-thread scratch of a build: the SAH bins and the unions of their
/// suffixes, reused by every node the thread splits.
#[derive(Default)]
struct Scratch {
    bins: Vec<Bin>,
    suffix: Vec<Aabb>,
}

/// A node to build: its refs, where they sit in the build, its depth and
/// the bounds its parent's split gave it.
struct Node<'a> {
    refs: &'a mut [TriRef],
    /// Offset of `refs[0]` in the build's ref (and leaf order) array.
    first: usize,
    depth: u32,
    bounds: NodeBounds,
}

impl<'a> Node<'a> {
    /// The two children `split` makes of this node.
    fn children(self, split: Split) -> [Node<'a>; 2] {
        let (left, right) = self.refs.split_at_mut(split.mid);
        let depth = self.depth + 1;
        [
            Node {
                refs: left,
                first: self.first,
                depth,
                bounds: split.left,
            },
            Node {
                refs: right,
                first: self.first + split.mid,
                depth,
                bounds: split.right,
            },
        ]
    }
}

/// The serial top of a build: nodes it split, down to the subtree jobs,
/// which are numbered in depth-first (left to right) order. Each carries
/// its bounds, which its parent's record holds.
struct Top {
    bounds: Aabb,
    /// The two children of a split node; `None` for a job.
    children: Option<Box<[Top; 2]>>,
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
    pub fn build(&self, triangles: &[Triangle]) -> Bvh {
        self.build_owned(triangles.to_vec())
    }

    /// Builds a BVH over `triangles`, which move into the tree.
    pub fn build_owned(&self, triangles: Vec<Triangle>) -> Bvh {
        self.build_on(triangles, &Inline)
    }

    /// Builds a BVH over `triangles`, which move into the tree, running
    /// its subtree jobs on `jobs`. The tree is byte-identical to
    /// [`BvhBuilder::build_owned`]'s, whatever order or threads the jobs
    /// ran on.
    ///
    /// The top of the tree is split serially: nodes of at least 32,768
    /// triangles, down to depth 4, so a build has at most 16 jobs and a
    /// small one a single job, which runs on the calling thread without
    /// calling `jobs`.
    ///
    /// Zero triangles give the empty tree: its root is a leaf with no
    /// triangles and empty bounds, so every ray misses it.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of `jobs`.
    pub fn build_on(&self, triangles: Vec<Triangle>, jobs: &impl JobMap) -> Bvh {
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

        let root = Node {
            bounds: NodeBounds::of(&refs),
            refs: &mut refs,
            first: 0,
            depth: 0,
        };
        let mut planned = Vec::new();
        let top = self.plan(&mut Scratch::default(), root, &mut planned);
        let run = |job: &Mutex<Option<Node>>| {
            let job = job.lock().expect("a job's lock is taken once").take();
            self.build_subtree(job.expect("each subtree job runs once"))
        };
        let planned: Vec<_> = planned
            .into_iter()
            .map(|job| Mutex::new(Some(job)))
            .collect();
        let subtrees = match &planned[..] {
            [one] => vec![run(one)],
            all => jobs.map_jobs(all, run),
        };
        drop(planned);

        // A leaf's `first` is the start of its ref range, so the final
        // ref order is the leaf order.
        let tri_order: Vec<u32> = refs.iter().map(|r| r.index).collect();
        drop(refs);

        // The top is a full binary tree over the jobs: its splits add one
        // node each beyond the subtrees.
        let count = subtrees.iter().map(Vec::len).sum::<usize>() + subtrees.len() - 1;
        let mut nodes = Vec::with_capacity(count);
        nodes.push(BvhNode::PLACEHOLDER);
        splice(&top, 0, None, 0, &mut nodes, &mut subtrees.into_iter());

        Bvh::from_parts(nodes, top.bounds, tri_order, triangles)
    }

    /// Splits the serial top under `node` and appends its subtree jobs
    /// to `jobs`.
    fn plan<'a>(&self, scratch: &mut Scratch, mut node: Node<'a>, jobs: &mut Vec<Node<'a>>) -> Top {
        let bounds = node.bounds.bounds;
        if node.refs.len() >= JOB_MIN_TRIANGLES && node.depth < JOB_DEPTH {
            if let Some(split) = self.split(scratch, &mut node) {
                let [left, right] = node.children(split);
                let children = [
                    self.plan(scratch, left, jobs),
                    self.plan(scratch, right, jobs),
                ];
                return Top {
                    bounds,
                    children: Some(Box::new(children)),
                };
            }
        }
        jobs.push(node);
        Top {
            bounds,
            children: None,
        }
    }

    /// Builds the subtree of `job` with local node ids: its root is node
    /// 0 (with no parent yet), its descendants follow in build order.
    fn build_subtree(&self, job: Node) -> Vec<BvhNode> {
        let mut nodes = Vec::with_capacity(2 * job.refs.len());
        nodes.push(BvhNode::PLACEHOLDER);
        self.build_node(&mut Scratch::default(), &mut nodes, job, 0, None);
        nodes
    }

    /// Builds the subtree of `node` into `nodes[slot]`: its two children
    /// take the next two slots, then the left child's descendants, then
    /// the right's.
    fn build_node(
        &self,
        scratch: &mut Scratch,
        nodes: &mut Vec<BvhNode>,
        mut node: Node,
        slot: usize,
        parent: Option<NodeId>,
    ) {
        let depth = node.depth;
        let Some(split) = self.split(scratch, &mut node) else {
            let (first, count) = (node.first as u32, node.refs.len() as u32);
            nodes[slot] = BvhNode::leaf(first, count, parent, depth);
            return;
        };
        let left_slot = nodes.len();
        nodes.push(BvhNode::PLACEHOLDER);
        nodes.push(BvhNode::PLACEHOLDER);
        let id = Some(NodeId::new(slot as u32));
        let child_bounds = [split.left.bounds, split.right.bounds];
        let [left, right] = node.children(split);
        self.build_node(scratch, nodes, left, left_slot, id);
        self.build_node(scratch, nodes, right, left_slot + 1, id);
        nodes[slot] = interior(left_slot, child_bounds, parent, depth);
    }

    /// Splits `node`, or returns `None` to make it a leaf.
    fn split(&self, scratch: &mut Scratch, node: &mut Node) -> Option<Split> {
        if node.refs.len() <= self.max_leaf_size as usize {
            return None;
        }
        match self.split_method {
            SplitMethod::BinnedSah => self.sah_split(scratch, node.refs, &node.bounds),
            SplitMethod::Median => median_split(node.refs, &node.bounds.centroids),
        }
    }

    /// Partitions `refs` with binned SAH; returns the split, or `None` to
    /// make a leaf. Falls back to a median split when centroids are
    /// degenerate, and makes a leaf only when SAH says splitting never
    /// pays. A child's node bounds are the union of its bins' bounds and
    /// its centroid bounds are folded by the partition pass: min/max
    /// unions in another order, so the children need no fold of their own.
    fn sah_split(
        &self,
        scratch: &mut Scratch,
        refs: &mut [TriRef],
        bounds: &NodeBounds,
    ) -> Option<Split> {
        let centroid_bounds = &bounds.centroids;
        let axis = centroid_bounds.diagonal().largest_axis();
        let extent = centroid_bounds.diagonal()[axis];
        if extent < 1e-12 {
            // All centroids coincide along every useful axis: median split
            // by index keeps the tree balanced.
            return median_split(refs, centroid_bounds);
        }

        let nbins = self.bins;
        let bins = &mut scratch.bins;
        bins.clear();
        bins.resize(
            nbins,
            Bin {
                bounds: Aabb::empty(),
                count: 0,
            },
        );
        let k = nbins as f32 * (1.0 - 1e-6) / extent;
        for r in refs.iter_mut() {
            let b = (((r.centroid[axis] - centroid_bounds.min[axis]) * k) as usize).min(nbins - 1);
            r.bin = b as u32;
            let bin = &mut bins[b];
            bin.bounds = bin.bounds.union(&r.bounds);
            bin.count += 1;
        }

        // Sweep to find the cheapest split boundary.
        let suffix = &mut scratch.suffix;
        suffix.clear();
        suffix.resize(nbins, Aabb::empty());
        let mut acc = Aabb::empty();
        for i in (1..nbins).rev() {
            acc = acc.union(&bins[i].bounds);
            suffix[i] = acc;
        }
        let mut best: Option<(usize, f32)> = None;
        let mut left_acc = Aabb::empty();
        let mut left_count = 0usize;
        let total = refs.len();
        for boundary in 1..nbins {
            left_acc = left_acc.union(&bins[boundary - 1].bounds);
            left_count += bins[boundary - 1].count;
            let right_count = total - left_count;
            if left_count == 0 || right_count == 0 {
                continue;
            }
            let cost = left_acc.surface_area() * left_count as f32
                + suffix[boundary].surface_area() * right_count as f32;
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((boundary, cost));
            }
        }
        let (boundary, split_cost) = best?;

        // Compare against the cost of not splitting (SAH with traversal
        // cost folded into a 1.2× relative intersection weight).
        let parent_area = bounds.bounds.surface_area();
        let leaf_cost = total as f32 * parent_area;
        if split_cost / parent_area.max(1e-20) + 1.2 >= leaf_cost / parent_area.max(1e-20)
            && total <= 2 * self.max_leaf_size as usize
        {
            return None;
        }

        // Partition by the bins the binning pass stored, folding each
        // side's centroid bounds on the way. Both sides are non-empty:
        // `best` skips boundaries with an empty side.
        let mut left = NodeBounds {
            bounds: bins[..boundary]
                .iter()
                .fold(Aabb::empty(), |acc, bin| acc.union(&bin.bounds)),
            centroids: Aabb::empty(),
        };
        let mut right = NodeBounds {
            bounds: suffix[boundary],
            centroids: Aabb::empty(),
        };
        let boundary = boundary as u32;
        let mut mid = 0;
        for j in 0..refs.len() {
            let r = refs[j];
            if r.bin < boundary {
                left.centroids = left.centroids.grow(r.centroid);
                refs.swap(mid, j);
                mid += 1;
            } else {
                right.centroids = right.centroids.grow(r.centroid);
            }
        }
        Some(Split { mid, left, right })
    }
}

/// Median split of `refs`, whose centroids span `centroid_bounds`, along
/// the largest centroid axis; the children's bounds are folded from their
/// refs.
fn median_split(refs: &mut [TriRef], centroid_bounds: &Aabb) -> Option<Split> {
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
    Some(Split {
        mid,
        left: NodeBounds::of(&refs[..mid]),
        right: NodeBounds::of(&refs[mid..]),
    })
}

/// The interior node whose children, bounded by `child_bounds`, sit in
/// slots `left` and `left + 1`.
fn interior(left: usize, child_bounds: [Aabb; 2], parent: Option<NodeId>, depth: u32) -> BvhNode {
    let [left_bounds, right_bounds] = child_bounds;
    let left = NodeId::new(left as u32);
    let right = NodeId::new(left.index() + 1);
    BvhNode::interior(left, right, left_bounds, right_bounds, parent, depth)
}

/// Writes the serial top `top` into `nodes[slot]`, numbering as a serial
/// build does: each split's two children take the next two slots, then
/// the left child's descendants, then the right's. Each job's subtree,
/// taken from `subtrees` in job order, is relabelled from local ids and
/// appended, then dropped.
fn splice(
    top: &Top,
    slot: usize,
    parent: Option<NodeId>,
    depth: u32,
    nodes: &mut Vec<BvhNode>,
    subtrees: &mut impl Iterator<Item = Vec<BvhNode>>,
) {
    match &top.children {
        None => {
            let subtree = subtrees.next().expect("one subtree per job");
            // Local id 0 is `slot`; local id i > 0 follows what is built.
            let offset = nodes.len() as u32 - 1;
            let relabel = |id: u32| match id {
                0 => slot as u32,
                NO_PARENT => NO_PARENT,
                i => i + offset,
            };
            let relabelled = |node: &BvhNode| {
                let mut node = *node;
                node.parent = relabel(node.parent);
                if !node.is_leaf() {
                    node.links = node.links.map(relabel);
                }
                node
            };
            nodes[slot] = BvhNode {
                parent: parent.map_or(NO_PARENT, NodeId::index),
                ..relabelled(&subtree[0])
            };
            nodes.extend(subtree[1..].iter().map(relabelled));
        }
        Some(children) => {
            let left = nodes.len();
            nodes.push(BvhNode::PLACEHOLDER);
            nodes.push(BvhNode::PLACEHOLDER);
            let id = Some(NodeId::new(slot as u32));
            for (i, child) in children.iter().enumerate() {
                splice(child, left + i, id, depth + 1, nodes, subtrees);
            }
            let child_bounds = children.each_ref().map(|child| child.bounds);
            nodes[slot] = interior(left, child_bounds, parent, depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

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
                if let NodeKind::Leaf { count, .. } = node.kind() {
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

    /// Runs jobs last to first, recording each call's job count.
    #[derive(Default)]
    struct Reversed(Mutex<Vec<usize>>);

    impl JobMap for Reversed {
        fn map_jobs<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
            self.0.lock().unwrap().push(items.len());
            let mut out: Vec<U> = items.iter().rev().map(f).collect();
            out.reverse();
            out
        }
    }

    #[test]
    fn jobs_follow_triangle_counts_and_not_their_schedule() {
        for method in [SplitMethod::BinnedSah, SplitMethod::Median] {
            let builder = BvhBuilder::new().split_method(method);
            let small = Reversed::default();
            builder.build_on(strip(JOB_MIN_TRIANGLES - 1), &small);
            assert!(small.0.lock().unwrap().is_empty(), "one job runs inline");

            let tris = strip(3 * JOB_MIN_TRIANGLES);
            let split = Reversed::default();
            let bvh = builder.build_on(tris.clone(), &split);
            let calls = split.0.into_inner().unwrap();
            assert_eq!(calls.len(), 1, "{method:?}: one map per build");
            assert!((2..=1 << JOB_DEPTH).contains(&calls[0]), "{calls:?}");
            bvh.validate().unwrap();
            let encode = crate::serial::encode;
            assert!(encode(&bvh) == encode(&builder.build(&tris)), "{method:?}");
        }
    }

    #[test]
    fn empty_input_builds_the_empty_tree() {
        for method in [SplitMethod::BinnedSah, SplitMethod::Median] {
            let bvh = BvhBuilder::new().split_method(method).build(&[]);
            assert_eq!(bvh.node_count(), 1);
            assert_eq!(bvh.triangle_count(), 0);
            assert!(bvh.bounds().is_empty());
            assert!(matches!(
                bvh.node(NodeId::ROOT).kind(),
                crate::NodeKind::Leaf { first: 0, count: 0 }
            ));
            bvh.validate().unwrap();
        }
    }
}
