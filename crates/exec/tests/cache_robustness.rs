//! Robustness of the on-disk artifact tier: damaged, stale, or
//! mismatched artifacts must always fall back to a clean rebuild —
//! never a panic, never a stale load.

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

/// Populates `dir` with artifacts for [`key`] and returns the paths of
/// the `.scene` and `.bvh` files that were written.
fn populate(dir: &Path) -> (PathBuf, PathBuf) {
    let cache = CaseCache::with_disk_dir(Some(dir.to_path_buf()));
    cache.get_or_build(key());
    assert_eq!(cache.stats().builds, 1);
    let mut scene = None;
    let mut bvh = None;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("scene") => scene = Some(path),
            Some("bvh") => bvh = Some(path),
            _ => {}
        }
    }
    (scene.expect("scene artifact"), bvh.expect("bvh artifact"))
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
fn truncated_scene_artifact_triggers_rebuild() {
    let dir = temp_store("trunc-scene");
    let (scene_path, _) = populate(&dir);
    let bytes = std::fs::read(&scene_path).unwrap();
    // Cut mid-buffer: the header still promises the full payload.
    std::fs::write(&scene_path, &bytes[..bytes.len() / 3]).unwrap();
    assert_rebuilds(&dir, "a truncated scene artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_bvh_artifact_triggers_rebuild() {
    let dir = temp_store("trunc-bvh");
    let (_, bvh_path) = populate(&dir);
    let bytes = std::fs::read(&bvh_path).unwrap();
    std::fs::write(&bvh_path, &bytes[..bytes.len() - 7]).unwrap();
    assert_rebuilds(&dir, "a truncated BVH artifact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_artifact_files_trigger_rebuild() {
    let dir = temp_store("empty");
    let (scene_path, bvh_path) = populate(&dir);
    std::fs::write(&scene_path, []).unwrap();
    std::fs::write(&bvh_path, []).unwrap();
    assert_rebuilds(&dir, "zero-byte artifacts");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn format_version_bump_triggers_rebuild() {
    // Simulate artifacts from a *future* format: patch the version field
    // (bytes 4..8, after the 4-byte magic) in both files. The decoder must
    // reject them and the cache must rebuild, exactly as it would after a
    // real FORMAT_VERSION bump invalidated old artifacts on disk.
    let dir = temp_store("version");
    let (scene_path, bvh_path) = populate(&dir);
    for path in [&scene_path, &bvh_path] {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }
    assert_rebuilds(&dir, "a foreign format version");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_for_a_different_key_triggers_rebuild() {
    // Valid, decodable artifacts that describe the *wrong* case: build a
    // different scene, then copy its files over our key's paths. The
    // post-decode key check must notice and rebuild.
    let dir = temp_store("wrong-key");
    let (scene_path, bvh_path) = populate(&dir);
    let other_dir = temp_store("wrong-key-src");
    {
        let cache = CaseCache::with_disk_dir(Some(other_dir.clone()));
        cache.get_or_build(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16));
    }
    for entry in std::fs::read_dir(&other_dir).unwrap() {
        let path = entry.unwrap().path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("scene") => std::fs::copy(&path, &scene_path).map(|_| ()).unwrap(),
            Some("bvh") => std::fs::copy(&path, &bvh_path).map(|_| ()).unwrap(),
            _ => {}
        }
    }
    assert_rebuilds(&dir, "artifacts belonging to a different key");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other_dir);
}

#[test]
fn header_bomb_artifacts_fail_fast_without_allocation() {
    // Headers promising astronomically more data than the file holds must
    // be rejected by the capacity guards — decoding returns Err instead of
    // attempting a multi-gigabyte allocation, and the cache rebuilds. In
    // the RIPA v2 container the attacker-controlled count is the section
    // count at bytes 8..12; it is bounds-checked against the real file
    // length before the section table is even read.
    let dir = temp_store("bomb");
    let (scene_path, bvh_path) = populate(&dir);
    for path in [&scene_path, &bvh_path] {
        let mut bomb = std::fs::read(path).unwrap();
        bomb[8..12].copy_from_slice(&u32::MAX.to_ne_bytes());
        std::fs::write(path, &bomb).unwrap();
    }
    assert_rebuilds(&dir, "header-bomb artifacts");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_artifacts_of_plausible_size_trigger_rebuild() {
    let dir = temp_store("garbage");
    let (scene_path, bvh_path) = populate(&dir);
    let scene_len = std::fs::metadata(&scene_path).unwrap().len() as usize;
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
    std::fs::write(&scene_path, fill(scene_len, 7)).unwrap();
    std::fs::write(&bvh_path, fill(bvh_len, 11)).unwrap();
    assert_rebuilds(&dir, "garbage artifacts");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rebuild_after_corruption_rewrites_good_artifacts() {
    // After a rebuild the store must hold fresh, loadable artifacts again:
    // the *next* process gets a disk hit, not another build.
    let dir = temp_store("self-heal");
    let (scene_path, _) = populate(&dir);
    std::fs::write(&scene_path, b"RSCN damaged beyond recognition").unwrap();
    assert_rebuilds(&dir, "a damaged scene artifact");
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
