//! Tree identity, pinned apart from the artifact format.
//!
//! `artifact_case.snap` hashes the encoded artifact bytes, so it moves
//! whenever the file layout does. This suite hashes what the tree *is*,
//! read through the public accessors only — per node its kind, its
//! children or leaf range, its child-box bits, its parent and depth;
//! then the root box, the leaf order and the triangle bits — so a format
//! change that keeps every tree leaves `tree_digest.snap` unchanged.
//! Each digest is taken of a freshly built case and of the same case
//! loaded back from disk, which must agree.
//!
//! Regenerate after an intentional change to the trees with:
//!
//! ```text
//! RIP_UPDATE_SNAPSHOTS=1 cargo test -p rip-testkit --test tree_digest
//! ```

use rip_bvh::{Bvh, NodeId, NodeKind};
use rip_exec::{CaseCache, CaseKey};
use rip_math::Aabb;
use rip_pod::{fnv1a_extend, FNV_OFFSET_BASIS};
use rip_scene::{SceneId, SceneScale};
use rip_testkit::snapshot;

const SNAPSHOT: &str = "tree_digest.snap";

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u32) {
        self.0 = fnv1a_extend(self.0, &w.to_le_bytes());
    }

    fn floats(&mut self, values: impl IntoIterator<Item = f32>) {
        for v in values {
            self.word(v.to_bits());
        }
    }

    fn aabb(&mut self, b: Aabb) {
        self.floats([b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z]);
    }
}

/// The digest of a tree, read through the public accessors.
fn tree_digest(bvh: &Bvh) -> u64 {
    let mut d = Digest(FNV_OFFSET_BASIS);
    d.word(bvh.node_count() as u32);
    for i in 0..bvh.node_count() as u32 {
        let node = bvh.node(NodeId::new(i));
        match node.kind() {
            NodeKind::Interior {
                left,
                right,
                left_bounds,
                right_bounds,
            } => {
                d.word(0);
                d.word(left.index());
                d.word(right.index());
                d.aabb(left_bounds);
                d.aabb(right_bounds);
            }
            NodeKind::Leaf { first, count } => {
                d.word(1);
                d.word(first);
                d.word(count);
            }
        }
        d.word(node.parent().map_or(u32::MAX, NodeId::index));
        d.word(node.depth());
    }
    d.aabb(bvh.bounds());
    d.word(bvh.triangle_count() as u32);
    for i in 0..bvh.triangle_count() as u32 {
        d.word(bvh.tri_order_at(i));
    }
    for i in 0..bvh.triangle_count() as u32 {
        let t = bvh.triangle(i);
        d.floats([t.a, t.b, t.c].into_iter().flat_map(|v| [v.x, v.y, v.z]));
    }
    d.0
}

/// One `label digest` line per key of `artifact_case.snap`.
fn digest_lines() -> String {
    let keys = [
        CaseKey::square(SceneId::FireplaceRoom, SceneScale::Tiny, 20),
        CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16),
        CaseKey::square(SceneId::CrytekSponza, SceneScale::Tiny, 12),
        CaseKey::square(SceneId::LivingRoom, SceneScale::Quick, 8),
    ];
    let mut out = String::new();
    for key in keys {
        let dir = std::env::temp_dir().join(format!(
            "rip-tree-digest-{}-{}",
            key.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let built = tree_digest(
            &CaseCache::with_disk_dir(Some(dir.clone()))
                .get_or_build(key)
                .bvh,
        );
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let loaded = tree_digest(&cache.get_or_build(key).bvh);
        assert_eq!(
            cache.stats().disk_hits,
            1,
            "{}: not loaded from disk",
            key.label()
        );
        assert_eq!(built, loaded, "{}: the loaded tree differs", key.label());
        out.push_str(&format!("{} {built:016x}\n", key.label()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

#[test]
fn trees_match_committed_digest() {
    let actual = digest_lines();
    if std::env::var_os("RIP_UPDATE_SNAPSHOTS").is_some() {
        snapshot::update("tree_digest", &actual).unwrap();
        return;
    }
    let path = snapshot::snapshot_path("tree_digest");
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with \
             RIP_UPDATE_SNAPSHOTS=1 cargo test -p rip-testkit --test tree_digest",
            path.display()
        )
    });
    assert_eq!(actual, expected, "tree digest diverged from {SNAPSHOT}");
}
