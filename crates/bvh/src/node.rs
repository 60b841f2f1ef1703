//! BVH node representation: the binary Aila–Laine node and the compressed
//! 4-wide node with its per-node quantization frame.

use rip_math::{Aabb, Vec3};

/// Index of a node in the BVH's flat node array.
///
/// The predictor stores 27-bit node indices in its table entries (§4.1,
/// "adequately manages BVH trees with up to 2²⁷ = 134 million nodes").
///
/// # Examples
///
/// ```
/// use rip_bvh::NodeId;
///
/// let root = NodeId::ROOT;
/// assert_eq!(root.index(), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The root node is always element 0 of the node array.
    pub const ROOT: NodeId = NodeId(0);

    /// Number of bits a predictor table slot uses for a node index (§4.1).
    pub const PREDICTOR_INDEX_BITS: u32 = 27;

    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Whether this id fits in the predictor's 27-bit slot.
    #[inline]
    pub const fn fits_predictor_slot(self) -> bool {
        self.0 < (1 << Self::PREDICTOR_INDEX_BITS)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Payload of a BVH node, a by-value view of its [`BvhNode`] record:
/// interior (two children with their bounds baked into the record,
/// Aila–Laine style) or leaf (a contiguous triangle range in the BVH's
/// permuted triangle index array).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeKind {
    /// An interior node. Fetching this record yields both child boxes, so
    /// one memory access funds two ray-box tests — matching the layout in
    /// Figure 8 of the paper.
    Interior {
        /// Left child id.
        left: NodeId,
        /// Right child id.
        right: NodeId,
        /// Bounds of the left child.
        left_bounds: Aabb,
        /// Bounds of the right child.
        right_bounds: Aabb,
    },
    /// A leaf node owning `count` triangles starting at `first` in the
    /// BVH's triangle index array.
    Leaf {
        /// Offset of the first triangle index.
        first: u32,
        /// Number of triangles in this leaf.
        count: u32,
    },
}

/// `parent` value of the root.
pub(crate) const NO_PARENT: u32 = u32::MAX;
/// Tag of an interior node.
pub(crate) const TAG_INTERIOR: u32 = 0;
/// Tag of a leaf node.
pub(crate) const TAG_LEAF: u32 = 1;
/// Bits of the last word that hold the depth; the tag sits above them.
const DEPTH_BITS: u32 = 24;
/// The child boxes of a leaf record: zeroed, so artifact bytes are
/// deterministic.
const ZERO_BOX: Aabb = Aabb {
    min: Vec3::ZERO,
    max: Vec3::ZERO,
};

/// One node of the BVH: a 64-byte `#[repr(C)]` Aila–Laine record
/// (§4.3, Figure 8), the same bytes in the builder's output, in the
/// artifact file and under traversal.
///
/// * bytes 0–47: the left and right child boxes (zero in a leaf);
/// * bytes 48–55: the left and right child ids of an interior node, or
///   the first slot and triangle count of a leaf;
/// * bytes 56–59: the parent id (`u32::MAX` for the root);
/// * bytes 60–63: the tag (0 interior, 1 leaf) in the top 8 bits and
///   the depth below the root in the low 24.
///
/// The parent sits in what would otherwise be the record's padding, so
/// retrieving an ancestor for the Go Up Level costs no additional memory
/// accesses. A node's own box is the child slot its parent holds for it
/// ([`Bvh::node_bounds`](crate::Bvh::node_bounds)); the root's is kept by
/// the [`Bvh`](crate::Bvh).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct BvhNode {
    pub(crate) child_bounds: [Aabb; 2],
    pub(crate) links: [u32; 2],
    pub(crate) parent: u32,
    pub(crate) tag_depth: u32,
}

// One binary node is exactly one `NODE_SIZE` record with no implicit
// padding, so the artifact stores the node array verbatim and a load
// borrows it in place.
rip_pod::impl_pod!(BvhNode, size = 64, align = 4);
const _: () = assert!(std::mem::size_of::<BvhNode>() as u64 == crate::layout::NODE_SIZE);

impl BvhNode {
    /// The record of a slot whose node is not built yet.
    pub(crate) const PLACEHOLDER: BvhNode = BvhNode {
        child_bounds: [ZERO_BOX; 2],
        links: [0; 2],
        parent: NO_PARENT,
        tag_depth: 0,
    };

    /// An interior node over children `left` and `right`, whose boxes it
    /// holds.
    pub(crate) fn interior(
        left: NodeId,
        right: NodeId,
        left_bounds: Aabb,
        right_bounds: Aabb,
        parent: Option<NodeId>,
        depth: u32,
    ) -> Self {
        BvhNode {
            child_bounds: [left_bounds, right_bounds],
            links: [left.index(), right.index()],
            parent: parent.map_or(NO_PARENT, NodeId::index),
            tag_depth: pack_tag_depth(TAG_INTERIOR, depth),
        }
    }

    /// A leaf over `count` slots of the leaf order from `first`.
    pub(crate) fn leaf(first: u32, count: u32, parent: Option<NodeId>, depth: u32) -> Self {
        BvhNode {
            child_bounds: [ZERO_BOX; 2],
            links: [first, count],
            parent: parent.map_or(NO_PARENT, NodeId::index),
            tag_depth: pack_tag_depth(TAG_LEAF, depth),
        }
    }

    /// The interior/leaf payload.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        let [a, b] = self.links;
        if self.is_leaf() {
            NodeKind::Leaf { first: a, count: b }
        } else {
            NodeKind::Interior {
                left: NodeId::new(a),
                right: NodeId::new(b),
                left_bounds: self.child_bounds[0],
                right_bounds: self.child_bounds[1],
            }
        }
    }

    /// Whether this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.tag() == TAG_LEAF
    }

    /// Parent node, `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent != NO_PARENT).then_some(NodeId::new(self.parent))
    }

    /// Depth below the root (root = 0).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.tag_depth & ((1 << DEPTH_BITS) - 1)
    }

    /// The raw tag: [`TAG_INTERIOR`], [`TAG_LEAF`], or a corrupt value.
    #[inline]
    pub(crate) fn tag(&self) -> u32 {
        self.tag_depth >> DEPTH_BITS
    }

    /// The slot this interior node holds for its child `child`: 0 (left)
    /// when `child` is its left child, 1 (right) otherwise.
    #[inline]
    pub(crate) fn slot_of(&self, child: NodeId) -> usize {
        usize::from(self.links[0] != child.index())
    }

    /// The box this interior node holds for its child `child`.
    #[inline]
    pub(crate) fn bounds_of_child(&self, child: NodeId) -> Aabb {
        self.child_bounds[self.slot_of(child)]
    }
}

fn pack_tag_depth(tag: u32, depth: u32) -> u32 {
    assert!(
        depth < 1 << DEPTH_BITS,
        "depth {depth} does not fit the node record"
    );
    tag << DEPTH_BITS | depth
}

/// Sentinel for an unused child slot of a [`CompressedWideNode`].
pub const EMPTY_WIDE_CHILD: u32 = u32::MAX;

/// Per-node quantization frame of a [`CompressedWideNode`] (CWBVH style):
/// child bounds are stored as 8-bit grid coordinates relative to the
/// node's minimum corner, on a per-axis power-of-two grid.
///
/// The grid step along axis `a` is `2^(exponents[a] − 127)` — exactly the
/// value of an `f32` whose biased exponent byte is `exponents[a]` — so
/// dequantization is one exact multiply-add and quantization error is a
/// pure scaling, never a drift.
///
/// Encoding is *conservative*: [`QuantFrame::encode_box`] rounds minima
/// down and maxima up (with verify-adjust loops that absorb the rounding
/// of the decode arithmetic itself), so the decoded box always contains
/// the source box. Traversal over quantized boxes therefore visits a
/// superset of the exact-box visits, which preserves bit-exact hits.
///
/// # Examples
///
/// ```
/// use rip_bvh::QuantFrame;
/// use rip_math::{Aabb, Vec3};
///
/// let world = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
/// let frame = QuantFrame::for_bounds(&world);
/// let child = Aabb::new(Vec3::splat(1.25), Vec3::splat(2.75));
/// let (qlo, qhi) = frame.encode_box(&child);
/// assert!(frame.decode_box(qlo, qhi).contains_box(&child));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantFrame {
    /// Grid origin: the framed node's minimum corner.
    pub origin: Vec3,
    /// Per-axis biased exponent of the power-of-two grid step.
    pub exponents: [u8; 3],
}

impl QuantFrame {
    /// Grid step for a biased exponent byte: `2^(e − 127)`.
    #[inline]
    pub fn scale_for_exponent(e: u8) -> f32 {
        f32::from_bits((e as u32) << 23)
    }

    /// Grid step along `axis` (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn scale(&self, axis: usize) -> f32 {
        Self::scale_for_exponent(self.exponents[axis])
    }

    /// A coordinate of the grid origin.
    #[inline]
    fn origin_axis(&self, axis: usize) -> f32 {
        match axis {
            0 => self.origin.x,
            1 => self.origin.y,
            _ => self.origin.z,
        }
    }

    /// Decodes one grid coordinate: `origin + q · scale`, the exact
    /// arithmetic the traversal slab test performs.
    #[inline]
    pub fn dequantize(&self, axis: usize, q: u8) -> f32 {
        self.origin_axis(axis) + q as f32 * self.scale(axis)
    }

    /// Chooses the frame for a node whose children all lie in `bounds`:
    /// origin at the minimum corner, and per axis the smallest
    /// power-of-two step whose 255-cell grid still reaches the maximum
    /// corner (verified against the decode arithmetic itself, so rounding
    /// cannot leave the far corner uncovered).
    pub fn for_bounds(bounds: &Aabb) -> Self {
        if bounds.is_empty() {
            return QuantFrame {
                origin: Vec3::ZERO,
                exponents: [1; 3],
            };
        }
        let origin = bounds.min;
        let origins = [origin.x, origin.y, origin.z];
        let maxes = [bounds.max.x, bounds.max.y, bounds.max.z];
        let mut exponents = [1u8; 3];
        for axis in 0..3 {
            let extent = (maxes[axis] - origins[axis]).max(0.0);
            // A 255-cell grid of step 2^(e−127) covers the extent exactly
            // when origin + 255·step reaches the maximum corner *in the
            // decode arithmetic*. Jump close via the extent's own exponent,
            // then verify-adjust in both directions.
            let covered =
                |e: u8| origins[axis] + 255.0 * Self::scale_for_exponent(e) >= maxes[axis];
            let mut e = (((extent / 255.0).to_bits() >> 23) as u8).clamp(1, 254);
            while e > 1 && covered(e - 1) {
                e -= 1;
            }
            while e < 254 && !covered(e) {
                e += 1;
            }
            exponents[axis] = e;
        }
        QuantFrame { origin, exponents }
    }

    /// Conservatively encodes `b` (which must lie inside the framed
    /// bounds): minima round down, maxima round up, each verified against
    /// [`QuantFrame::dequantize`] so the decoded box contains `b` exactly.
    ///
    /// Empty boxes encode as the inverted pair `(255, 0)` per axis, which
    /// decodes back to an empty box.
    pub fn encode_box(&self, b: &Aabb) -> ([u8; 3], [u8; 3]) {
        if b.is_empty() {
            return ([255; 3], [0; 3]);
        }
        let mins = [b.min.x, b.min.y, b.min.z];
        let maxes = [b.max.x, b.max.y, b.max.z];
        let mut qlo = [0u8; 3];
        let mut qhi = [0u8; 3];
        for axis in 0..3 {
            let scale = self.scale(axis);
            let origin = self.origin_axis(axis);

            let raw = ((mins[axis] - origin) / scale).floor();
            let mut lo = if raw.is_nan() {
                0.0
            } else {
                raw.clamp(0.0, 255.0)
            } as u8;
            while lo > 0 && self.dequantize(axis, lo) > mins[axis] {
                lo -= 1;
            }

            let raw = ((maxes[axis] - origin) / scale).ceil();
            let mut hi = if raw.is_nan() {
                255.0
            } else {
                raw.clamp(0.0, 255.0)
            } as u8;
            while hi < 255 && self.dequantize(axis, hi) < maxes[axis] {
                hi += 1;
            }

            debug_assert!(
                self.dequantize(axis, lo) <= mins[axis],
                "quantized minimum must not exceed the exact minimum"
            );
            debug_assert!(
                self.dequantize(axis, hi) >= maxes[axis],
                "quantized maximum must cover the exact maximum (box outside frame?)"
            );
            qlo[axis] = lo;
            qhi[axis] = hi;
        }
        (qlo, qhi)
    }

    /// Decodes a quantized box back to world coordinates.
    pub fn decode_box(&self, qlo: [u8; 3], qhi: [u8; 3]) -> Aabb {
        if qlo.iter().zip(&qhi).any(|(l, h)| l > h) {
            return Aabb::empty();
        }
        Aabb {
            min: Vec3::new(
                self.dequantize(0, qlo[0]),
                self.dequantize(1, qlo[1]),
                self.dequantize(2, qlo[2]),
            ),
            max: Vec3::new(
                self.dequantize(0, qhi[0]),
                self.dequantize(1, qhi[1]),
                self.dequantize(2, qhi[2]),
            ),
        }
    }
}

/// One compressed 4-wide BVH node: a 64-byte `#[repr(C)]` record holding
/// four quantized child slabs plus their references, fetched as a unit so
/// one memory access funds four lockstep ray-box tests.
///
/// Child slot `i` is interpreted from `counts[i]` and `children[i]`:
///
/// * `counts[i] > 0` — **leaf**: `children[i]` is the first packed
///   triangle-group index, `counts[i]` the triangle count;
/// * `counts[i] == 0`, `children[i] == EMPTY_WIDE_CHILD` — **empty slot**;
/// * otherwise — **interior**: `children[i]` indexes the wide node array.
///
/// Child bounds are stored as 8-bit grid coordinates (`qlo`/`qhi`,
/// `[axis][slot]`) in the node's [`QuantFrame`] (`origin` + `exponents`),
/// conservatively rounded outward so traversal never culls a box the
/// exact bounds would enter.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct CompressedWideNode {
    /// Quantization frame origin (the node's minimum corner).
    pub origin: [f32; 3],
    /// Per-axis biased grid-step exponents of the quantization frame.
    pub exponents: [u8; 3],
    /// Reserved; always zero.
    pub pad: u8,
    /// Quantized child minima, indexed `[axis][slot]`.
    pub qlo: [[u8; 4]; 3],
    /// Quantized child maxima, indexed `[axis][slot]`.
    pub qhi: [[u8; 4]; 3],
    /// Child references (see the type docs for the slot encoding).
    pub children: [u32; 4],
    /// Per-slot triangle counts; zero for interior and empty slots.
    pub counts: [u16; 4],
}

// One wide node is exactly one 64-byte record with no implicit padding
// (the `pad` byte is explicit), so the layout pin digests the node array
// as it is.
rip_pod::impl_pod!(CompressedWideNode, size = 64, align = 4);

impl CompressedWideNode {
    /// A node with four empty slots.
    pub fn empty() -> Self {
        CompressedWideNode {
            origin: [0.0; 3],
            exponents: [1; 3],
            pad: 0,
            qlo: [[255; 4]; 3],
            qhi: [[0; 4]; 3],
            children: [EMPTY_WIDE_CHILD; 4],
            counts: [0; 4],
        }
    }

    /// The node's quantization frame.
    #[inline]
    pub fn frame(&self) -> QuantFrame {
        QuantFrame {
            origin: Vec3::new(self.origin[0], self.origin[1], self.origin[2]),
            exponents: self.exponents,
        }
    }

    /// Whether slot `i` is occupied.
    #[inline]
    pub fn slot_occupied(&self, i: usize) -> bool {
        self.counts[i] > 0 || self.children[i] != EMPTY_WIDE_CHILD
    }

    /// Bitmask (bit `i` = slot `i`) of occupied slots.
    #[inline]
    pub fn occupied_mask(&self) -> u8 {
        (0..4).fold(0u8, |m, i| m | (u8::from(self.slot_occupied(i)) << i))
    }

    /// Decoded (conservative) world-space bounds of child slot `i`.
    pub fn child_bounds(&self, i: usize) -> Aabb {
        self.frame().decode_box(
            [self.qlo[0][i], self.qlo[1][i], self.qlo[2][i]],
            [self.qhi[0][i], self.qhi[1][i], self.qhi[2][i]],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_index_zero() {
        assert_eq!(NodeId::ROOT, NodeId::new(0));
        assert_eq!(NodeId::ROOT.to_string(), "n0");
    }

    #[test]
    fn predictor_slot_bound() {
        assert!(NodeId::new((1 << 27) - 1).fits_predictor_slot());
        assert!(!NodeId::new(1 << 27).fits_predictor_slot());
    }

    #[test]
    fn node_record_packs_kind_parent_and_depth() {
        let leaf = BvhNode::leaf(3, 2, Some(NodeId::new(7)), 5);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.kind(), NodeKind::Leaf { first: 3, count: 2 });
        assert_eq!((leaf.parent(), leaf.depth()), (Some(NodeId::new(7)), 5));
        let (lb, rb) = (
            Aabb::new(Vec3::ZERO, Vec3::ONE),
            Aabb::new(Vec3::ONE, Vec3::X),
        );
        let interior = BvhNode::interior(NodeId::new(1), NodeId::new(2), lb, rb, None, 0);
        assert!(!interior.is_leaf());
        assert_eq!(interior.parent(), None);
        assert_eq!(
            interior.kind(),
            NodeKind::Interior {
                left: NodeId::new(1),
                right: NodeId::new(2),
                left_bounds: lb,
                right_bounds: rb,
            }
        );
        assert_eq!(interior.bounds_of_child(NodeId::new(1)), lb);
        assert_eq!(interior.bounds_of_child(NodeId::new(2)), rb);
    }

    #[test]
    fn binary_node_is_one_aila_laine_record() {
        assert_eq!(
            std::mem::size_of::<BvhNode>() as u64,
            crate::layout::NODE_SIZE
        );
        assert_eq!(std::mem::align_of::<BvhNode>(), 4);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(3) < NodeId::new(10));
    }

    #[test]
    fn compressed_node_is_one_aila_laine_record() {
        assert_eq!(std::mem::size_of::<CompressedWideNode>(), 64);
        assert_eq!(std::mem::align_of::<CompressedWideNode>(), 4);
    }

    #[test]
    fn quantized_boxes_contain_their_source() {
        let world = Aabb::new(Vec3::new(-3.0, 0.0, 1.0e-3), Vec3::new(9.0, 7.5, 2.0e3));
        let frame = QuantFrame::for_bounds(&world);
        for b in [
            Aabb::new(Vec3::new(-3.0, 0.0, 1.0e-3), Vec3::new(9.0, 7.5, 2.0e3)),
            Aabb::new(Vec3::new(0.1, 0.2, 0.3), Vec3::new(0.1, 0.2, 0.3)),
            Aabb::new(Vec3::new(-2.9, 7.4, 1.0), Vec3::new(8.9, 7.5, 1999.0)),
        ] {
            let (qlo, qhi) = frame.encode_box(&b);
            let decoded = frame.decode_box(qlo, qhi);
            assert!(decoded.contains_box(&b), "{decoded:?} must contain {b:?}");
        }
    }

    #[test]
    fn empty_boxes_quantize_to_the_inverted_sentinel() {
        let frame = QuantFrame::for_bounds(&Aabb::new(Vec3::ZERO, Vec3::ONE));
        let (qlo, qhi) = frame.encode_box(&Aabb::empty());
        assert_eq!((qlo, qhi), ([255; 3], [0; 3]));
        assert!(frame.decode_box(qlo, qhi).is_empty());
    }

    #[test]
    fn empty_wide_node_has_no_occupied_slots() {
        let node = CompressedWideNode::empty();
        assert_eq!(node.occupied_mask(), 0);
        assert!(node.child_bounds(0).is_empty());
    }

    #[test]
    fn degenerate_frame_still_covers_flat_axes() {
        // A box flat in y and spanning many orders of magnitude in z.
        let b = Aabb::new(
            Vec3::new(0.0, 2.0, -1.0e30),
            Vec3::new(1.0e-38, 2.0, 1.0e30),
        );
        let frame = QuantFrame::for_bounds(&b);
        let (qlo, qhi) = frame.encode_box(&b);
        assert!(frame.decode_box(qlo, qhi).contains_box(&b));
    }
}
