//! RIPT trace-format gate: corruption never panics, mapping never
//! changes bytes, stale traces never replay.
//!
//! The replay pipeline (DESIGN.md §12) is only trustworthy if the trace
//! artifacts feeding it are. Three layers of assurance, mirroring the
//! RIPA suite in `artifact_format.rs`:
//!
//! 1. **Corruption matrix** — every [`faultinject`] damage mode
//!    (`bit_flip` across header, section table and payload streams;
//!    `header_bomb` on the section count; `truncate` at two cut points)
//!    applied to an on-disk `.ript` trace must end in a quarantine +
//!    recapture through the real [`TraceStore`] — never a panic, never a
//!    corrupt trace served as a hit — and the recaptured artifact must
//!    be loadable again.
//! 2. **Stale-workload rejection** — a trace whose label collides with a
//!    different workload (changed rays, changed scene, wrong traversal
//!    kind on disk) is a `KeyMismatch`, quarantined identically.
//! 3. **Round-trip properties** — capture → encode → [`MappedArtifact`]
//!    → `decode_shared` → re-encode reproduces the original byte stream
//!    exactly over every generator recipe and both traversal kinds, and
//!    the decoded set still reconstructs each ray's live traversal
//!    result. CI runs this suite with the `mmap` feature on and off, so
//!    both byte backends are pinned to the same stream.

use proptest::prelude::*;
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_exec::{MappedArtifact, TraceStore};
use rip_testkit::{faultinject, gen};
use std::path::{Path, PathBuf};

fn backend_name() -> &'static str {
    if cfg!(feature = "mmap") {
        "mmap"
    } else {
        "owned"
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rip-trace-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fixed workload of the corruption matrix: one generator scene and
/// a batch mixing hitting and missing rays, big enough that every RIPT
/// section (meta, records, node stream, leaf counts) is non-trivial.
fn workload() -> (Bvh, RayBatch) {
    let tris = gen::ALL_RECIPES[0].triangles(96, 7);
    let bvh = Bvh::build(&tris);
    let mut batch = RayBatch::with_capacity(48);
    for ray in gen::hitting_rays(&tris, 24, 11) {
        batch.push(ray);
    }
    for ray in gen::ray_batch(&bvh.bounds(), 24, 13) {
        batch.push(ray);
    }
    (bvh, batch)
}

fn batch_from(rays: Vec<rip_math::Ray>) -> RayBatch {
    let mut batch = RayBatch::with_capacity(rays.len());
    for ray in rays {
        batch.push(ray);
    }
    batch
}

// ---------------------------------------------------------------------
// 1. Corruption matrix
// ---------------------------------------------------------------------

/// One corruption mode: a label plus the damage applied to a trace file
/// of known length.
type Corruption = (&'static str, fn(&Path, usize));

/// Offsets follow the RIPA v2 layout: byte 1 is inside the magic, 5 the
/// container version, 40 the second section-table entry, `len/2` lands
/// in the record/node payload streams. Every payload byte is covered by
/// a striped per-section checksum, so any single flip must be detected.
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

/// Captures the workload into `dir` through a throwaway store and
/// returns the single `.ript` artifact it persisted.
fn seed_trace(dir: &Path, bvh: &Bvh, batch: &RayBatch, kind: TraversalKind) -> PathBuf {
    let store = TraceStore::with_disk_dir(Some(dir.to_path_buf()));
    store.get_or_capture("matrix", bvh, batch, kind);
    assert_eq!(store.stats().captures, 1, "seed run must capture");
    let paths = faultinject::artifacts_with_ext(dir, "ript");
    assert_eq!(paths.len(), 1, "expected exactly one trace artifact");
    paths[0].clone()
}

/// Every damage mode must surface as quarantine + recapture through the
/// real [`TraceStore`]: no panic, no corrupt hit, and the store must be
/// healthy again afterwards (a third run disk-hits the re-persisted
/// artifact).
#[test]
fn corruption_matrix_always_quarantines_and_recaptures() {
    let (bvh, batch) = workload();
    let reference = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit);
    for (label, damage) in CORRUPTIONS {
        let dir = temp_store(label);
        let path = seed_trace(&dir, &bvh, &batch, TraversalKind::AnyHit);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        damage(&path, len);

        let store = TraceStore::with_disk_dir(Some(dir.clone()));
        let set = store.get_or_capture("matrix", &bvh, &batch, TraversalKind::AnyHit);
        let stats = store.stats();
        assert_eq!(
            stats.disk_hits, 0,
            "{label}: a damaged trace was served as a hit"
        );
        assert_eq!(stats.captures, 1, "{label}: expected a clean recapture");
        assert!(
            stats.quarantines >= 1,
            "{label}: damaged trace must be quarantined"
        );
        let quarantined = faultinject::artifacts_with_ext(&dir, "quarantine");
        assert_eq!(
            quarantined.len(),
            1,
            "{label}: the rejected file must be preserved as .quarantine"
        );

        // The served set is the real workload, not a salvage of the
        // damaged bytes: it attaches and re-encodes to the reference
        // capture exactly.
        set.attach(&bvh, &batch).unwrap();
        assert_eq!(
            set.encode(),
            reference.encode(),
            "{label}: recaptured trace diverged from a clean capture"
        );

        // Recovery is durable: the recapture re-persisted a valid
        // artifact, so a fresh store now loads it from disk.
        let healed = TraceStore::with_disk_dir(Some(dir.clone()));
        healed.get_or_capture("matrix", &bvh, &batch, TraversalKind::AnyHit);
        assert_eq!(
            healed.stats().disk_hits,
            1,
            "{label}: recapture must leave a loadable artifact behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every single-byte flip over the whole artifact — header, table,
/// record stream, node stream, leaf counts — is rejected at decode.
/// This is the exhaustive version of the matrix's spot checks, feasible
/// because the container checksums are striped per section.
#[test]
fn every_single_byte_flip_in_a_trace_is_rejected() {
    let (bvh, batch) = workload();
    let bytes = RayTraceSet::capture(&bvh, &batch, TraversalKind::ClosestHit).encode();
    for offset in 0..bytes.len() {
        let mut copy = bytes.clone();
        copy[offset] ^= 0x20;
        let verdict = RayTraceSet::decode(&copy).and_then(|set| {
            set.attach(&bvh, &batch)?;
            Ok(())
        });
        assert!(
            verdict.is_err(),
            "flip at byte {offset}/{} decoded and attached cleanly",
            bytes.len()
        );
    }
}

// ---------------------------------------------------------------------
// 2. Stale-workload rejection
// ---------------------------------------------------------------------

/// A label collision with a different workload must never replay: a
/// changed ray batch is a digest mismatch, quarantined and recaptured
/// like corruption, and the traversal kind is part of the on-disk name
/// so the other kind simply misses.
#[test]
fn stale_workloads_quarantine_instead_of_replaying() {
    let (bvh, batch) = workload();
    let dir = temp_store("stale");
    seed_trace(&dir, &bvh, &batch, TraversalKind::AnyHit);

    // Same label, same scene, different rays: KeyMismatch → quarantine.
    let other = batch_from(gen::ray_batch(&bvh.bounds(), batch.len(), 99));
    let store = TraceStore::with_disk_dir(Some(dir.clone()));
    let set = store.get_or_capture("matrix", &bvh, &other, TraversalKind::AnyHit);
    let stats = store.stats();
    assert_eq!(stats.disk_hits, 0, "stale trace must not replay");
    assert_eq!(stats.captures, 1);
    assert!(stats.quarantines >= 1, "stale trace must be quarantined");
    set.attach(&bvh, &other).unwrap();

    // The other traversal kind was never captured: a plain miss, no
    // quarantine, no false hit against the any-hit artifact.
    let dir2 = temp_store("stale-kind");
    seed_trace(&dir2, &bvh, &batch, TraversalKind::AnyHit);
    let store = TraceStore::with_disk_dir(Some(dir2.clone()));
    store.get_or_capture("matrix", &bvh, &batch, TraversalKind::ClosestHit);
    let stats = store.stats();
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.captures, 1);
    assert_eq!(stats.quarantines, 0, "a kind miss is not a corruption");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

// ---------------------------------------------------------------------
// 3. Round-trip properties
// ---------------------------------------------------------------------

/// Writes `bytes` to a scratch file, opens it through [`MappedArtifact`]
/// (exercising whichever byte backend this build compiled in) and hands
/// the mapped bytes to `check`; used to prove decode borrows mapped
/// pages as faithfully as owned buffers.
fn through_map(tag: &str, bytes: &[u8], check: impl Fn(rip_pod::Bytes)) {
    let path =
        std::env::temp_dir().join(format!("rip-trace-roundtrip-{tag}-{}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let map = MappedArtifact::open(&path).unwrap();
    check(map.bytes());
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trace artifacts survive capture → encode → map → decode →
    /// re-encode bit-exactly for every generator recipe, a spread of
    /// batch shapes and both traversal kinds — and the decoded set
    /// still reconstructs every ray's live traversal outcome.
    #[test]
    fn trace_roundtrip_is_bit_exact(
        recipe_ix in 0usize..gen::ALL_RECIPES.len(),
        n in 8usize..96,
        rays in 4usize..40,
        seed in 0u64..1_000,
        closest in any::<bool>(),
    ) {
        let kind = if closest {
            TraversalKind::ClosestHit
        } else {
            TraversalKind::AnyHit
        };
        let tris = gen::ALL_RECIPES[recipe_ix].triangles(n, seed);
        let bvh = Bvh::build(&tris);
        let mut all = gen::hitting_rays(&tris, rays / 2, seed ^ 0xa5);
        all.extend(gen::ray_batch(&bvh.bounds(), rays - all.len(), seed ^ 0x5a));
        let batch = batch_from(all);

        let set = RayTraceSet::capture(&bvh, &batch, kind);
        let bytes = set.encode();
        let tag = format!("{recipe_ix}-{n}-{rays}-{seed}-{closest}");
        through_map(&tag, &bytes, |mapped| {
            let decoded = RayTraceSet::decode_shared(mapped).unwrap();
            assert!(decoded.is_shared(), "decode must borrow, not copy");
            decoded.attach(&bvh, &batch).unwrap();
            assert_eq!(decoded.kind(), kind);
            assert_eq!(
                decoded.encode(),
                bytes,
                "encode → map ({}) → decode → encode changed bytes",
                backend_name()
            );
            for i in 0..batch.len() {
                assert_eq!(
                    decoded.full_result(i),
                    set.full_result(i),
                    "ray {i} replays differently after the disk round trip"
                );
            }
        });
    }

    /// Sharded capture feeds the same round trip: whatever thread count
    /// recorded the trace, the persisted bytes are the sequential ones.
    #[test]
    fn parallel_capture_roundtrips_to_sequential_bytes(
        recipe_ix in 0usize..gen::ALL_RECIPES.len(),
        threads in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let tris = gen::ALL_RECIPES[recipe_ix].triangles(64, seed);
        let bvh = Bvh::build(&tris);
        let batch = batch_from(gen::hitting_rays(&tris, 24, seed));
        let sequential = RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit).encode();
        let sharded =
            RayTraceSet::capture_parallel(&bvh, &batch, TraversalKind::AnyHit, threads).encode();
        prop_assert_eq!(&sharded, &sequential);
        through_map(&format!("par-{recipe_ix}-{threads}-{seed}"), &sharded, |mapped| {
            let decoded = RayTraceSet::decode_shared(mapped).unwrap();
            assert_eq!(decoded.encode(), sequential);
        });
    }
}
