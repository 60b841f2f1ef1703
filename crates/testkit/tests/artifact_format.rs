//! RIPA v2 artifact-format gate: corruption never panics, mapping never
//! changes bytes.
//!
//! Three layers of assurance over the container introduced for the
//! zero-copy artifact store:
//!
//! 1. **Corruption matrix** — every [`faultinject`] damage mode
//!    (`bit_flip` across header, section table and payload;
//!    `header_bomb` on the section count; `truncate` at several cut
//!    points) applied to scene and BVH artifacts must end in a
//!    quarantine + rebuild through the real [`CaseCache`], never a
//!    panic and never a stale load.
//! 2. **Round-trip properties** — encode → write → [`MappedArtifact`]
//!    → `decode_shared` → re-encode reproduces the original byte
//!    stream exactly, for procedural scene views and for BVHs/wide
//!    BVHs over every generator recipe.
//! 3. **Cross-backend digest** — the committed `artifact_case.snap`
//!    digest of disk-loaded cases must reproduce under both the owned
//!    and the `mmap` backends (CI runs this suite with the `mmap`
//!    feature on and off), which is what makes the backends provably
//!    bit-identical rather than merely both green.
//!
//! Regenerate the digest after an intentional format change with:
//!
//! ```text
//! RIP_UPDATE_SNAPSHOTS=1 cargo test -p rip-testkit --test artifact_format
//! ```

use proptest::prelude::*;
use rip_bvh::Bvh;
use rip_exec::{CaseCache, CaseKey, MappedArtifact};
use rip_scene::{SceneId, SceneScale, SCENE_IDS};
use rip_testkit::{faultinject, gen};
use std::path::{Path, PathBuf};

/// Committed digest of cases served through the mapped artifact path.
const CASE_SNAPSHOT: &str = "artifact_case.snap";

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/snapshots"
    ))
    .join(name)
}

fn backend_name() -> &'static str {
    if cfg!(feature = "mmap") {
        "mmap"
    } else {
        "owned"
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rip-artifact-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key() -> CaseKey {
    CaseKey::square(SceneId::FireplaceRoom, SceneScale::Tiny, 20)
}

/// FNV-1a 64-bit, matching the digest idiom of `wide_simd.rs`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------
// 1. Corruption matrix
// ---------------------------------------------------------------------

/// One corruption mode of the matrix: a label plus the damage applied to
/// an artifact file of known length.
type Corruption = (&'static str, fn(&Path, usize));

const CORRUPTIONS: [Corruption; 7] = [
    ("flip-magic", |p, _| faultinject::bit_flip(p, 1).unwrap()),
    ("flip-version", |p, _| faultinject::bit_flip(p, 5).unwrap()),
    ("flip-table", |p, _| faultinject::bit_flip(p, 40).unwrap()),
    ("flip-payload", |p, len| {
        faultinject::bit_flip(p, len / 2).unwrap()
    }),
    ("bomb-sections", |p, _| faultinject::header_bomb(p).unwrap()),
    ("trunc-table", |p, _| faultinject::truncate(p, 48).unwrap()),
    ("trunc-payload", |p, len| {
        faultinject::truncate(p, len - len / 4).unwrap()
    }),
];

/// Every (damage mode × artifact kind) cell must quarantine and rebuild
/// through the real cache — no panic, no stale geometry.
#[test]
fn corruption_matrix_always_quarantines_and_rebuilds() {
    for ext in ["scene", "bvh"] {
        for (label, damage) in CORRUPTIONS {
            let dir = temp_store(&format!("{ext}-{label}"));
            {
                let cache = CaseCache::with_disk_dir(Some(dir.clone()));
                cache.get_or_build(key());
            }
            let paths = faultinject::artifacts_with_ext(&dir, ext);
            assert_eq!(paths.len(), 1, "{ext}/{label}: expected one artifact");
            let len = std::fs::metadata(&paths[0]).unwrap().len() as usize;
            damage(&paths[0], len);

            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            let case = cache.get_or_build(key());
            assert_eq!(
                cache.stats().disk_hits,
                0,
                "{ext}/{label}: a damaged artifact was served as a hit"
            );
            assert_eq!(
                cache.stats().builds,
                1,
                "{ext}/{label}: expected a clean rebuild"
            );
            assert!(
                cache.stats().quarantines >= 1,
                "{ext}/{label}: damaged artifact must be quarantined"
            );
            case.bvh.validate().unwrap();
            assert!(case.bvh.triangle_count() > 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------
// 2. Round-trip properties
// ---------------------------------------------------------------------

/// Writes `bytes` to a scratch file, opens it through [`MappedArtifact`]
/// (exercising whichever backend this build compiled in) and hands the
/// mapped bytes to `decode_then_encode`; the result must equal `bytes`.
fn roundtrip_through_map(
    tag: &str,
    bytes: &[u8],
    decode_then_encode: impl Fn(rip_pod::Bytes) -> Vec<u8>,
) {
    let path = std::env::temp_dir().join(format!(
        "rip-artifact-roundtrip-{tag}-{}",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let map = MappedArtifact::open(&path).unwrap();
    let reencoded = decode_then_encode(map.bytes());
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        bytes,
        &reencoded[..],
        "{tag}: encode → map ({}) → decode → encode changed bytes",
        backend_name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scene-view artifacts survive encode → map → decode bit-exactly,
    /// for every scene id and a spread of viewports.
    #[test]
    fn scene_roundtrip_is_bit_exact(
        scene_ix in 0usize..SCENE_IDS.len(),
        viewport in 4u32..24,
    ) {
        let (view, _) = SCENE_IDS[scene_ix]
            .build_with_viewport(SceneScale::Tiny, viewport, viewport)
            .into_parts();
        let bytes = rip_scene::serial::encode(&view);
        roundtrip_through_map(&format!("scene-{scene_ix}-{viewport}"), &bytes, |b| {
            rip_scene::serial::encode(&rip_scene::serial::decode_shared(b).unwrap())
        });
    }

    /// Binary-BVH artifacts round-trip bit-exactly over every generator
    /// recipe, and the decoded tree still passes full validation.
    #[test]
    fn bvh_roundtrip_is_bit_exact(
        recipe_ix in 0usize..gen::ALL_RECIPES.len(),
        n in 8usize..160,
        seed in 0u64..1_000,
    ) {
        let tris = gen::ALL_RECIPES[recipe_ix].triangles(n, seed);
        let bvh = Bvh::build(&tris);
        let bytes = rip_bvh::serial::encode(&bvh);
        roundtrip_through_map(&format!("bvh-{recipe_ix}-{n}-{seed}"), &bytes, |b| {
            let decoded = rip_bvh::serial::decode_shared(b).unwrap();
            decoded.validate().unwrap();
            rip_bvh::serial::encode(&decoded)
        });
    }

    /// Compressed wide-BVH artifacts round-trip bit-exactly through the
    /// mapped path as well.
    #[test]
    fn wide_roundtrip_is_bit_exact(
        recipe_ix in 0usize..gen::ALL_RECIPES.len(),
        seed in 0u64..1_000,
    ) {
        let tris = gen::ALL_RECIPES[recipe_ix].triangles(96, seed);
        let wide = rip_bvh::WideBvh::from_binary(&Bvh::build(&tris));
        let bytes = rip_bvh::serial::encode_wide(&wide);
        roundtrip_through_map(&format!("wide-{recipe_ix}-{seed}"), &bytes, |b| {
            rip_bvh::serial::encode_wide(
                &rip_bvh::serial::decode_wide_shared(b).unwrap(),
            )
        });
    }
}

// ---------------------------------------------------------------------
// 3. Cross-backend digest
// ---------------------------------------------------------------------

/// One digest line per key over the canonical re-encoded bytes of a
/// case that was persisted by one cache and then *loaded from disk* by a
/// fresh one — i.e. a case whose BVH borrows the mapped artifact. The
/// view and the BVH get one digest each, so the BVH's can be compared
/// with the encoded tree alone.
fn mapped_case_digest() -> String {
    let keys = [
        CaseKey::square(SceneId::FireplaceRoom, SceneScale::Tiny, 20),
        CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16),
        CaseKey::square(SceneId::CrytekSponza, SceneScale::Tiny, 12),
        // Above the BVH builder's job split threshold (32,768 triangles):
        // its tree is built as subtree jobs and spliced.
        CaseKey::square(SceneId::LivingRoom, SceneScale::Quick, 8),
    ];
    let mut out = String::new();
    for key in keys {
        let dir = temp_store(&format!("digest-{}", key.label()));
        {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            cache.get_or_build(key);
        }
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(key);
        assert_eq!(
            cache.stats().disk_hits,
            1,
            "{}: digest must be computed over a disk-loaded case",
            key.label()
        );
        assert!(
            case.bvh.is_shared(),
            "{}: a disk-loaded BVH must borrow its nodes, leaf order and \
             triangles from the mapped bytes",
            key.label()
        );
        let digest = |bytes: &[u8]| {
            let mut fnv = Fnv::new();
            fnv.write(bytes);
            fnv.0
        };
        out.push_str(&format!(
            "{} view {:016x} bvh {:016x}\n",
            key.label(),
            digest(&rip_scene::serial::encode(&case.scene)),
            digest(&rip_bvh::serial::encode(&case.bvh)),
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// The committed case digest reproduces under whichever artifact backend
/// this build compiled in — run with and without `--features mmap`, the
/// two runs must agree on these exact bytes.
#[test]
fn mapped_cases_match_committed_digest() {
    let actual = mapped_case_digest();
    let path = snapshot_path(CASE_SNAPSHOT);
    if std::env::var_os("RIP_UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with \
             RIP_UPDATE_SNAPSHOTS=1 cargo test -p rip-testkit --test artifact_format",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "[backend {}] mapped-case digest diverged from {} — the {} \
         backend no longer reproduces the pinned case bytes",
        backend_name(),
        path.display(),
        backend_name(),
    );
}
