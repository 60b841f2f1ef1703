//! Build-once case cache with an on-disk artifact store.
//!
//! The crate's build-once store keyed by `(scene, scale, viewport)`, with
//! the load → quarantine → rebuild → persist path that
//! [`TraceStore`](crate::TraceStore) shares. Its disk tier holds two RIPA
//! v2 artifacts per case, so *later processes* skip procedural synthesis
//! and BVH construction entirely: the scene view (`rip_scene::serial`,
//! id and camera, a few hundred bytes) and the BVH (`rip_bvh::serial`),
//! which holds the scene's only copy of its triangles. Artifacts are
//! mapped through [`MappedArtifact`] and the BVH is decoded **in place**
//! — its buffers are borrowed from the mapping, not copied — and their
//! names carry both format versions, so a format bump is a plain miss.
//!
//! The store lives in `$RIP_CACHE_DIR` when set (an **empty** value
//! disables the disk tier), else `<system temp dir>/rip-artifacts`.
//! Clearing it is always safe: artifacts are pure derived data. Telemetry
//! lands in the `exec.cache.*` counters.

use crate::artifact::MappedArtifact;
use crate::case::{Case, CaseKey};
use crate::store::{env_dir, CacheError, CacheStats, Names, Recipe, Store};
use rip_obs::Obs;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Process-wide build-once cache of benchmark cases.
#[derive(Debug)]
pub struct CaseCache {
    store: Store<CaseKey, Case>,
}

impl CaseCache {
    /// A cache whose disk tier honors `$RIP_CACHE_DIR` (empty value =
    /// disabled; unset = `<system temp dir>/rip-artifacts`).
    pub fn new() -> Self {
        CaseCache::with_disk_dir(env_dir("RIP_CACHE_DIR", "rip-artifacts"))
    }

    /// A cache with an explicit disk tier (`None` = in-memory only).
    pub fn with_disk_dir(disk_dir: Option<PathBuf>) -> Self {
        CaseCache {
            store: Store::new(disk_dir),
        }
    }

    /// A cache with no disk tier.
    pub fn in_memory_only() -> Self {
        CaseCache::with_disk_dir(None)
    }

    /// Routes this cache's `exec.cache.*` counters and events to `obs`
    /// instead of the process-wide default instance.
    pub fn with_obs(self, obs: Arc<Obs>) -> Self {
        CaseCache {
            store: self.store.with_obs(obs),
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Returns the case for `key`, building it at most once per process
    /// and consulting the artifact store before building.
    ///
    /// This never fails: a missing, unreadable, corrupt, or mismatched
    /// artifact is quarantined as needed and the case is rebuilt from
    /// source. (A panic inside the scene/BVH build itself still unwinds —
    /// that is the caller's unit boundary, isolated by
    /// [`ShardedRunner::try_run`](crate::runner::ShardedRunner::try_run).)
    pub fn get_or_build(&self, key: CaseKey) -> Arc<Case> {
        self.store.get(key, &key)
    }

    /// Drops the in-process entry for `key`, so the next
    /// [`CaseCache::get_or_build`] re-resolves it (from the artifact
    /// store if present, else a fresh build). Returns whether an entry
    /// was dropped. On-disk artifacts are untouched — they are pure
    /// derived data and stay valid across epochs.
    ///
    /// This is the hook behind `rip-serve`'s epoch-based registry
    /// reload: the registry invalidates, rebuilds via `get_or_build`,
    /// and bumps its epoch; requests already holding the old `Arc`'d
    /// case keep tracing against it unperturbed.
    pub fn invalidate(&self, key: CaseKey) -> bool {
        self.store.invalidate(&key)
    }

    /// The already-built case for `key`, if any — a pure read: never
    /// builds, never touches hit counters. Service layers use this to
    /// snapshot the current epoch before attempting a risky rebuild.
    pub fn peek(&self, key: CaseKey) -> Option<Arc<Case>> {
        self.store.peek(&key)
    }

    /// Re-registers `case` as the in-process entry for `key`, replacing
    /// whatever is there. This is the reload circuit breaker's undo
    /// path: when a rebuild fails after [`CaseCache::invalidate`], the
    /// previous case goes back so readers keep being served the last
    /// good epoch instead of re-attempting the failing build.
    pub fn restore(&self, key: CaseKey, case: Arc<Case>) {
        self.store.restore(key, case);
    }
}

impl Default for CaseCache {
    fn default() -> Self {
        CaseCache::new()
    }
}

impl Recipe for CaseKey {
    type Value = Case;
    const NAMES: Names = Names {
        cat: "exec.cache",
        arg: "case",
        stem: "artifact",
        build: "build",
        built: "built case",
        hit: "artifact cache hit",
    };

    fn label(&self) -> String {
        CaseKey::label(self)
    }

    fn paths(&self, dir: &Path) -> Vec<PathBuf> {
        let stem = format!(
            "{}_s{}b{}",
            self.label(),
            rip_scene::serial::FORMAT_VERSION,
            rip_bvh::serial::FORMAT_VERSION,
        );
        vec![
            dir.join(format!("{stem}.scene")),
            dir.join(format!("{stem}.bvh")),
        ]
    }

    /// The BVH's buffers stay borrowed from the mapping (owned aligned
    /// buffer by default, a page mapping under the `mmap` feature) for
    /// the case's whole lifetime, so a disk hit copies no buffer. It
    /// still reads every byte once: the checksums and structural checks
    /// scan it. The view must name the key's scene and viewport.
    fn decode(&self, paths: &[PathBuf], files: &[MappedArtifact]) -> Result<Case, CacheError> {
        let scene = rip_scene::serial::decode_shared(files[0].bytes())
            .map_err(CacheError::corrupt(&paths[0]))?;
        let bvh = rip_bvh::serial::decode_shared(files[1].bytes())
            .map_err(CacheError::corrupt(&paths[1]))?;
        if scene.id != self.id
            || scene.camera.width() != self.width
            || scene.camera.height() != self.height
        {
            return Err(CacheError::KeyMismatch {
                label: self.label(),
            });
        }
        Ok(Case::from_parts(scene, bvh))
    }

    fn build(&self) -> Case {
        Case::build(*self)
    }

    fn write(&self, case: &Case, index: usize, out: &mut BufWriter<File>) -> io::Result<()> {
        match index {
            0 => rip_scene::serial::write_to(&case.scene, out),
            _ => rip_bvh::serial::write_to(&case.bvh, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::JobPool;
    use rip_scene::{SceneId, SceneScale};

    fn tiny_key(viewport: u32) -> CaseKey {
        CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, viewport)
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rip-exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_shares_one_build() {
        let cache = CaseCache::in_memory_only();
        let a = cache.get_or_build(tiny_key(16));
        let b = cache.get_or_build(tiny_key(16));
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must reuse the built case"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                memory_hits: 1,
                disk_hits: 0,
                builds: 1,
                quarantines: 0
            }
        );
    }

    #[test]
    fn concurrent_requests_build_once() {
        let _budget = rip_bvh::budget::test_lock();
        let cache = CaseCache::in_memory_only();
        let pool = JobPool::new(4);
        let keys = [tiny_key(18); 8];
        let cases = pool.map(&keys, |&key| cache.get_or_build(key));
        for case in &cases[1..] {
            assert!(Arc::ptr_eq(&cases[0], case));
        }
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(cache.stats().memory_hits, 7);
    }

    #[test]
    fn disk_tier_round_trips_and_validates() {
        let dir = temp_store("roundtrip");
        let built = {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            cache.get_or_build(tiny_key(20))
        };
        // A fresh cache (fresh process stand-in) must hit the disk tier.
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let loaded = cache.get_or_build(tiny_key(20));
        assert_eq!(
            cache.stats(),
            CacheStats {
                memory_hits: 0,
                disk_hits: 1,
                builds: 0,
                quarantines: 0
            }
        );
        loaded.bvh.validate().unwrap();
        assert!(loaded.bvh.is_shared());
        assert_eq!(
            rip_bvh::serial::encode(&loaded.bvh),
            rip_bvh::serial::encode(&built.bvh),
            "cached BVH must match the fresh build byte-for-byte",
        );
        assert_eq!(loaded.scene, built.scene);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_artifacts_are_the_encoded_case() {
        let dir = temp_store("encoded");
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(tiny_key(21));
        let paths = tiny_key(21).paths(&dir);
        assert_eq!(
            std::fs::read(&paths[0]).unwrap(),
            rip_scene::serial::encode(&case.scene)
        );
        assert_eq!(
            std::fs::read(&paths[1]).unwrap(),
            rip_bvh::serial::encode(&case.bvh)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_stores_geometry_once() {
        let dir = temp_store("geometry-once");
        let bvh_bytes = {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            rip_bvh::serial::encode(&cache.get_or_build(tiny_key(23)).bvh).len() as u64
        };
        let stored: u64 = tiny_key(23)
            .paths(&dir)
            .iter()
            .map(|path| std::fs::metadata(path).unwrap().len())
            .sum();
        assert!(
            stored <= bvh_bytes + 1024,
            "the case's files hold {stored} bytes; the BVH alone is {bvh_bytes}"
        );
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(tiny_key(23));
        assert_eq!((cache.stats().disk_hits, cache.stats().builds), (1, 0));
        assert!(case.bvh.is_shared(), "a warm lease must borrow the mapping");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_view_of_another_key_forces_a_rebuild() {
        let dir = temp_store("foreign-view");
        let (own, foreign) = (
            tiny_key(24),
            CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 25),
        );
        {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            cache.get_or_build(own);
            cache.get_or_build(foreign);
        }
        // Both files are intact, but the view names another viewport.
        std::fs::copy(&foreign.paths(&dir)[0], &own.paths(&dir)[0]).unwrap();
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(own);
        assert_eq!((cache.stats().disk_hits, cache.stats().builds), (0, 1));
        assert!(cache.stats().quarantines >= 1);
        assert_eq!(case.scene.camera.width(), 24);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_fall_back_to_rebuild() {
        let dir = temp_store("corrupt");
        {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            cache.get_or_build(tiny_key(22));
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "bvh") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xA5;
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(tiny_key(22));
        assert_eq!(cache.stats().builds, 1, "corruption must force a rebuild");
        assert_eq!(
            cache.stats().quarantines,
            1,
            "the corrupt artifact must be quarantined"
        );
        case.bvh.validate().unwrap();
        let quarantined: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "quarantine"))
            .collect();
        assert_eq!(quarantined.len(), 1, "expected one .quarantine file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = CaseCache::in_memory_only();
        let a = cache.get_or_build(tiny_key(16));
        let b = cache.get_or_build(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 24));
        assert_eq!(cache.stats().builds, 2);
        assert_ne!(a.scene, b.scene);
    }
}
