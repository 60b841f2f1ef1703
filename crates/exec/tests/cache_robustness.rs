//! Robustness of the on-disk artifact tier: damaged or stale artifacts
//! must always fall back to a clean rebuild — never a panic, never a
//! stale load.

use rip_exec::{CaseCache, CaseKey};
use rip_scene::{SceneId, SceneScale};
use std::path::{Path, PathBuf};

fn key() -> CaseKey {
    CaseKey::square(SceneId::FireplaceRoom, SceneScale::Tiny, 20)
}

fn temp_store(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rip-cache-robustness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Populates `dir` with the artifact for [`key`] and returns the path of
/// the one `.bvh` file that was written.
fn populate(dir: &Path) -> PathBuf {
    let cache = CaseCache::with_disk_dir(Some(dir.to_path_buf()));
    cache.get_or_build(key());
    assert_eq!(cache.stats().builds, 1);
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one artifact per case: {files:?}");
    assert!(files[0].extension().is_some_and(|e| e == "bvh"));
    files[0].clone()
}

/// A fresh cache (stand-in for a fresh process) over the same store;
/// asserts the request rebuilt rather than loading, and that the result
/// is structurally valid.
fn assert_rebuilds(dir: &Path, why: &str) {
    let cache = CaseCache::with_disk_dir(Some(dir.to_path_buf()));
    let case = cache.get_or_build(key());
    assert_eq!(cache.stats().disk_hits, 0, "stale load despite {why}");
    assert_eq!(cache.stats().builds, 1, "expected a rebuild after {why}");
    case.bvh.validate().unwrap();
    assert!(case.bvh.triangle_count() > 0);
}

#[test]
fn truncated_bvh_artifact_triggers_rebuild() {
    let dir = temp_store("trunc-bvh");
    let bvh_path = populate(&dir);
    let bytes = std::fs::read(&bvh_path).unwrap();
    std::fs::write(&bvh_path, &bytes[..bytes.len() - 7]).unwrap();
    assert_rebuilds(&dir, "a truncated BVH artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_artifact_file_triggers_rebuild() {
    let dir = temp_store("empty");
    std::fs::write(populate(&dir), []).unwrap();
    assert_rebuilds(&dir, "a zero-byte artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn format_version_bump_triggers_rebuild() {
    // Simulate artifacts from a *future* format: patch the version field
    // (bytes 4..8, after the 4-byte magic). The decoder must reject it
    // and the cache must rebuild, exactly as it would after a real
    // FORMAT_VERSION bump invalidated old artifacts on disk.
    let dir = temp_store("version");
    let path = populate(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    assert_rebuilds(&dir, "a foreign format version");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_bomb_artifact_fails_fast_without_allocation() {
    // Headers promising astronomically more data than the file holds must
    // be rejected by the capacity guards — decoding returns Err instead of
    // attempting a multi-gigabyte allocation, and the cache rebuilds. In
    // the RIPA v2 container the attacker-controlled count is the section
    // count at bytes 8..12; it is bounds-checked against the real file
    // length before the section table is even read.
    let dir = temp_store("bomb");
    let path = populate(&dir);
    let mut bomb = std::fs::read(&path).unwrap();
    bomb[8..12].copy_from_slice(&u32::MAX.to_ne_bytes());
    std::fs::write(&path, &bomb).unwrap();
    assert_rebuilds(&dir, "a header-bomb artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_artifact_of_plausible_size_triggers_rebuild() {
    let dir = temp_store("garbage");
    let bvh_path = populate(&dir);
    let bvh_len = std::fs::metadata(&bvh_path).unwrap().len() as usize;
    // Deterministic pseudo-random filler with the original file sizes.
    let fill = |n: usize, mut s: u32| -> Vec<u8> {
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 24) as u8
            })
            .collect()
    };
    std::fs::write(&bvh_path, fill(bvh_len, 11)).unwrap();
    assert_rebuilds(&dir, "a garbage artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rebuild_after_corruption_rewrites_good_artifacts() {
    // After a rebuild the store must hold fresh, loadable artifacts again:
    // the *next* process gets a disk hit, not another build.
    let dir = temp_store("self-heal");
    std::fs::write(populate(&dir), b"RIPA damaged beyond recognition").unwrap();
    assert_rebuilds(&dir, "a damaged artifact");
    let cache = CaseCache::with_disk_dir(Some(dir.clone()));
    cache.get_or_build(key());
    assert_eq!(
        cache.stats().disk_hits,
        1,
        "the rebuild must have re-persisted loadable artifacts"
    );
    assert_eq!(cache.stats().builds, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
