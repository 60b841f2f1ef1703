//! BVH artifact serialization on the RIPA v2 zero-copy container.
//!
//! The artifact cache in `rip-exec` persists built acceleration
//! structures so repeated experiment runs skip BVH construction. An
//! artifact is a [`rip_pod::ripa`] file: flat `#[repr(C)]` record
//! sections (meta with the root box, nodes, leaf-order permutation,
//! triangle soup) behind a checksummed header + section table, so
//! decoding is *validate and cast* instead of an element-wise copy.
//! The node section holds the 64-byte [`BvhNode`] records verbatim, and
//! [`decode_shared`] borrows it, the order and the triangle sections
//! straight out of the mapped bytes ([`rip_pod::PodBuf`] storage in
//! [`Bvh`]): a load copies no buffer.
//!
//! Validation is pure integer work — tags, zeroed leaf fields, index
//! ranges, the builder's parent-before-child allocation order,
//! parent/depth back-links, and exact leaf coverage of the triangle set
//! — with bit integrity already guaranteed by the container's
//! per-section FNV checksums, so the cold-start load path costs no
//! float work. Artifacts of older layouts are invisible under the
//! current cache key (which includes [`FORMAT_VERSION`]) and simply
//! rebuilt on miss.

use crate::bvh::Bvh;
use crate::node::{BvhNode, NO_PARENT, TAG_INTERIOR, TAG_LEAF};
use rip_math::{Aabb, Triangle};
use rip_pod::ripa::{RipaFile, RipaWriter};
use rip_pod::Bytes;
use std::io::{self, Write};

/// Bumped whenever the encoded layout changes; part of the header *and*
/// of the artifact cache key in `rip-exec`.
pub const FORMAT_VERSION: u32 = 3;

/// RIPA artifact kind of a binary BVH.
pub const KIND_BVH: u32 = 2;

// Section ids.
const SEC_META: u32 = 1;
const SEC_NODES: u32 = 2;
const SEC_ORDER: u32 = 3;
const SEC_TRIS: u32 = 4;

/// Counts header of the binary artifact, cross-checked against the
/// actual section lengths, plus the root's box (which no node record
/// holds).
#[repr(C)]
#[derive(Clone, Copy)]
struct BvhMeta {
    node_count: u32,
    order_count: u32,
    tri_count: u32,
    reserved: u32,
    root_bounds: Aabb,
}

rip_pod::impl_pod!(BvhMeta, size = 40, align = 4);

/// Encodes `bvh` into a self-contained RIPA v2 buffer. Re-encoding a
/// decoded tree is byte-identical (canonical section layout, zeroed
/// unused leaf fields).
pub fn encode(bvh: &Bvh) -> Vec<u8> {
    with_writer(bvh, |w| w.finish())
}

/// Streams the [`encode`] bytes of `bvh` to `out`, every section
/// straight from the tree's buffers.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_to<W: Write>(bvh: &Bvh, out: &mut W) -> io::Result<()> {
    with_writer(bvh, |w| w.write_to(out))
}

/// Calls `f` with the artifact writer of `bvh`.
fn with_writer<R>(bvh: &Bvh, f: impl FnOnce(&RipaWriter) -> R) -> R {
    let (nodes, tri_order, triangles) = bvh.raw_parts();
    let meta = BvhMeta {
        node_count: nodes.len() as u32,
        order_count: tri_order.len() as u32,
        tri_count: triangles.len() as u32,
        reserved: 0,
        root_bounds: bvh.bounds(),
    };
    let mut w = RipaWriter::new(KIND_BVH);
    w.section(SEC_META, std::slice::from_ref(&meta))
        .section(SEC_NODES, nodes)
        .section(SEC_ORDER, tri_order)
        .section(SEC_TRIS, triangles);
    f(&w)
}

/// Decodes an owned buffer produced by [`encode`] (convenience wrapper:
/// copies into an aligned buffer, then runs [`decode_shared`]).
pub fn decode(bytes: &[u8]) -> Result<Bvh, String> {
    decode_shared(Bytes::copy_from_slice(bytes))
}

/// Decodes a BVH artifact **in place**: the node, leaf-order and
/// triangle sections are borrowed out of `bytes` (owned aligned buffer
/// or page mapping alike), and the whole structure is validated with
/// integer-only checks.
///
/// Any structural problem is reported as `Err` so the caller can
/// quarantine the artifact and rebuild from geometry instead.
pub fn decode_shared(bytes: Bytes) -> Result<Bvh, String> {
    let file = RipaFile::parse(bytes, KIND_BVH)?;
    let meta: BvhMeta = file.read_one(SEC_META)?;
    if meta.reserved != 0 {
        return Err("reserved meta field is not zero".into());
    }
    let nodes = file.pod_section::<BvhNode>(SEC_NODES)?;
    let order = file.pod_section::<u32>(SEC_ORDER)?;
    let triangles = file.pod_section::<Triangle>(SEC_TRIS)?;
    if nodes.len() != meta.node_count as usize
        || order.len() != meta.order_count as usize
        || triangles.len() != meta.tri_count as usize
    {
        return Err(format!(
            "meta promises {}/{}/{} nodes/slots/triangles but sections hold {}/{}/{}",
            meta.node_count,
            meta.order_count,
            meta.tri_count,
            nodes.len(),
            order.len(),
            triangles.len()
        ));
    }
    check_nodes(&nodes, order.len())?;
    check_leaf_coverage(&nodes, &order, triangles.len())?;
    Ok(Bvh::from_parts(nodes, meta.root_bounds, order, triangles))
}

/// Validates the node records with integer-only checks (bit integrity
/// is already covered by the container checksums):
///
/// * tags are known and a leaf's unused child-box bytes are zero;
/// * interior children are in range and *after* their parent — the
///   builder allocates parent-before-child, and this ordering doubles
///   as an O(1)-per-edge acyclicity proof;
/// * leaf ranges fit the order section and are non-empty, except the
///   root leaf of the empty tree;
/// * every non-root node is referenced as a child exactly once, by the
///   node its `parent` field names, at `depth` parent + 1.
fn check_nodes(nodes: &[BvhNode], order_count: usize) -> Result<(), String> {
    if nodes.is_empty() {
        return Err("tree has no nodes".into());
    }
    let n = nodes.len();
    for (idx, node) in nodes.iter().enumerate() {
        let [a, b] = node.links;
        match node.tag() {
            TAG_INTERIOR => {
                let (left, right) = (a as usize, b as usize);
                if left >= n || right >= n {
                    return Err(format!("node {idx}: child out of range ({n} nodes)"));
                }
                if left <= idx || right <= idx || left == right {
                    return Err(format!(
                        "node {idx}: children {left}/{right} violate parent-before-child order"
                    ));
                }
            }
            TAG_LEAF => {
                if rip_pod::bytes_of(&node.child_bounds) != [0; 48] {
                    return Err(format!("node {idx}: reserved leaf field is not zero"));
                }
                let (first, count) = (a as u64, b as u64);
                // Only the empty tree's root leaf holds no triangles.
                if count == 0 && !(n == 1 && order_count == 0) {
                    return Err(format!("node {idx}: empty leaf"));
                }
                if first + count > order_count as u64 {
                    return Err(format!(
                        "node {idx}: leaf range {first}..+{count} exceeds {order_count} slots"
                    ));
                }
            }
            tag => return Err(format!("node {idx}: unknown tag {tag}")),
        }
        match (idx, node.parent) {
            (0, NO_PARENT) => {}
            (0, p) => return Err(format!("root claims parent {p}")),
            (_, NO_PARENT) => return Err(format!("node {idx} has no parent")),
            (_, p) if (p as usize) < idx => {}
            (_, p) => {
                return Err(format!(
                    "node {idx}: parent {p} violates parent-before-child order"
                ))
            }
        }
    }
    if nodes[0].depth() != 0 {
        return Err(format!("root depth {} is not zero", nodes[0].depth()));
    }
    // Back-link pass: derive each node's parent from the interior child
    // references and demand it matches the recorded parent and depth.
    let mut derived: Vec<u32> = vec![NO_PARENT; n];
    for (idx, node) in nodes.iter().enumerate() {
        if node.tag() == TAG_INTERIOR {
            for child in node.links {
                if derived[child as usize] != NO_PARENT {
                    return Err(format!("node {child} is referenced by two parents"));
                }
                derived[child as usize] = idx as u32;
            }
        }
    }
    for (idx, node) in nodes.iter().enumerate().skip(1) {
        let p = derived[idx];
        if p == NO_PARENT {
            return Err(format!("node {idx} is not referenced by any parent"));
        }
        if node.parent != p {
            return Err(format!("node {idx}: parent link broken"));
        }
        if node.depth() != nodes[p as usize].depth() + 1 {
            return Err(format!("node {idx}: depth wrong"));
        }
    }
    Ok(())
}

/// Demands the leaf ranges cover every triangle exactly once through
/// the order permutation (the integer half of `Bvh::validate`).
fn check_leaf_coverage(nodes: &[BvhNode], order: &[u32], tri_count: usize) -> Result<(), String> {
    let mut seen = vec![false; tri_count];
    for node in nodes.iter().filter(|node| node.is_leaf()) {
        let [first, count] = node.links;
        for &t in &order[first as usize..(first + count) as usize] {
            let slot = seen
                .get_mut(t as usize)
                .ok_or_else(|| format!("triangle slot {t} out of range ({tri_count})"))?;
            if *slot {
                return Err(format!("triangle {t} appears in two leaves"));
            }
            *slot = true;
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!("triangle {missing} not referenced by any leaf"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rip_math::Vec3;

    fn sample_bvh(n: usize) -> Bvh {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let tris: Vec<Triangle> = (0..n)
            .map(|_| {
                let base = Vec3::new(
                    rng.gen_range(-8.0f32..8.0),
                    rng.gen_range(-8.0f32..8.0),
                    rng.gen_range(-8.0f32..8.0),
                );
                Triangle::new(
                    base,
                    base + Vec3::new(rng.gen_range(0.1f32..1.0), 0.0, 0.0),
                    base + Vec3::new(0.0, rng.gen_range(0.1f32..1.0), 0.0),
                )
            })
            .collect();
        Bvh::build(&tris)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let bvh = sample_bvh(300);
        let decoded = decode(&encode(&bvh)).unwrap();
        assert_eq!(decoded.node_count(), bvh.node_count());
        assert_eq!(decoded.depth(), bvh.depth());
        assert_eq!(decoded.nodes(), bvh.nodes());
        assert_eq!(decoded.triangle_count(), bvh.triangle_count());
        for i in 0..bvh.triangle_count() as u32 {
            assert_eq!(decoded.tri_order_at(i), bvh.tri_order_at(i));
            assert_eq!(decoded.triangle(i), bvh.triangle(i));
        }
        decoded.validate().unwrap();
        assert!(
            decoded.is_shared(),
            "v2 decode must borrow the flat sections, not copy them"
        );
    }

    #[test]
    fn reencode_is_byte_identical() {
        let bvh = sample_bvh(150);
        let bytes = encode(&bvh);
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let bvh = sample_bvh(40);
        let bytes = encode(&bvh);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode(&bad_magic).unwrap_err().contains("magic"));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xEE;
        assert!(decode(&bad_version).unwrap_err().contains("version"));

        for cut in [bytes.len() - 3, bytes.len() / 2, 17, 3] {
            assert!(decode(&bytes[..cut]).is_err(), "truncation to {cut} bytes");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }

    #[test]
    fn rejects_wrong_kind() {
        // A valid RIPA file of another kind.
        let mut w = RipaWriter::new(KIND_BVH + 1);
        w.section(SEC_META, &[0u32; 4]);
        assert!(decode(&w.finish()).unwrap_err().contains("kind"));
    }

    #[test]
    fn single_byte_flips_never_panic_and_never_pass() {
        let bvh = sample_bvh(25);
        let bytes = encode(&bvh);
        for at in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            assert!(decode(&bad).is_err(), "flip at {at} went undetected");
        }
    }

    #[test]
    fn rejects_corrupt_structure() {
        let bvh = sample_bvh(40);
        // Duplicate a leaf-order slot: the container still parses, but
        // the tree references one triangle twice and misses another,
        // which the coverage check must reject.
        let (nodes, tri_order, triangles) = bvh.raw_parts();
        let mut corrupt_order = tri_order.to_vec();
        corrupt_order[1] = corrupt_order[0];
        let corrupt = Bvh::from_parts(
            nodes.to_vec(),
            bvh.bounds(),
            corrupt_order,
            triangles.to_vec(),
        );
        assert!(decode(&encode(&corrupt))
            .unwrap_err()
            .contains("two leaves"));
    }

    /// Decodes `bvh` re-encoded with its node records damaged by `damage`
    /// (the container checksums are recomputed over the damage).
    fn decode_damaged(bvh: &Bvh, damage: impl FnOnce(&mut [BvhNode])) -> Result<Bvh, String> {
        let (nodes, tri_order, triangles) = bvh.raw_parts();
        let mut nodes = nodes.to_vec();
        damage(&mut nodes);
        let damaged = Bvh::from_parts(nodes, bvh.bounds(), tri_order.to_vec(), triangles.to_vec());
        decode(&encode(&damaged))
    }

    /// Each structural check of [`check_nodes`] rejects a node array that
    /// only it catches, with its own message: without the check, the
    /// damage decodes or fails later with another one.
    #[test]
    fn rejects_every_structural_fault() {
        let bvh = sample_bvh(40);
        let nodes = bvh.raw_parts().0;
        assert!(nodes.len() > 8, "the sample tree must have several levels");
        let order_count = bvh.triangle_count() as u32;
        let leaf = nodes.iter().position(BvhNode::is_leaf).unwrap();
        // An interior node below the root whose children are both leaves.
        let twig = (1..nodes.len())
            .find(|&i| {
                !nodes[i].is_leaf() && nodes[i].links.iter().all(|&c| nodes[c as usize].is_leaf())
            })
            .unwrap();
        // A node after the twig that is not its child.
        let stranger = (twig + 1..nodes.len())
            .find(|&i| nodes[i].parent as usize != twig)
            .unwrap() as u32;
        // A node whose parent is not the root.
        let grandchild = (1..nodes.len()).find(|&i| nodes[i].parent != 0).unwrap();
        type Damage = Box<dyn FnOnce(&mut [BvhNode])>;
        let cases: Vec<(&str, Damage)> = vec![
            (
                "reserved leaf field is not zero",
                Box::new(move |n| n[leaf].child_bounds[1].max.y = 1.0),
            ),
            (
                "unknown tag 5",
                Box::new(move |n| n[twig].tag_depth += 5 << 24),
            ),
            (
                "child out of range",
                Box::new(|n| n[0].links[1] = n.len() as u32 + 3),
            ),
            ("children 1/1 violate", Box::new(|n| n[0].links[1] = 1)),
            (
                "violate parent-before-child order",
                Box::new(move |n| n[twig].links[0] = twig as u32),
            ),
            ("empty leaf", Box::new(move |n| n[leaf].links[1] = 0)),
            ("exceeds", Box::new(move |n| n[leaf].links[0] = order_count)),
            ("root claims parent 1", Box::new(|n| n[0].parent = 1)),
            (
                "node 1 has no parent",
                Box::new(|n| n[1].parent = NO_PARENT),
            ),
            ("node 2: parent 2 violates", Box::new(|n| n[2].parent = 2)),
            (
                "root depth 1 is not zero",
                Box::new(|n| n[0].tag_depth += 1),
            ),
            (
                "referenced by two parents",
                Box::new(move |n| n[twig].links[0] = stranger),
            ),
            (
                "is not referenced by any parent",
                Box::new(move |n| {
                    // Turn the twig into one leaf over both of its leaves'
                    // (adjacent) ranges, orphaning them.
                    let [l, r] = n[twig].links.map(|c| n[c as usize].links);
                    let (parent, depth) = (n[twig].parent(), n[twig].depth());
                    n[twig] = BvhNode::leaf(l[0], l[1] + r[1], parent, depth);
                }),
            ),
            (
                "parent link broken",
                Box::new(move |n| n[grandchild].parent = 0),
            ),
            ("node 1: depth wrong", Box::new(|n| n[1].tag_depth += 4)),
        ];
        for (expected, damage) in cases {
            let err = decode_damaged(&bvh, damage).expect_err(expected);
            assert!(err.contains(expected), "expected {expected:?}, got {err:?}");
        }
    }
}
