//! Build-once case cache with an on-disk artifact store.
//!
//! A case is a tree plus a viewport ([`crate::case`]), so the cache keeps
//! one build-once cell per tree, keyed by `(scene, scale)`, in the
//! crate's store with the load → quarantine → rebuild → persist path
//! that [`TraceStore`](crate::TraceStore) shares. Each
//! `(scene, scale, viewport)` case is made over the shared tree, with a
//! view derived from the tree's bounds. The disk tier holds one RIPA v2
//! BVH artifact per tree (`rip_bvh::serial`, the scene's only copy of its
//! triangles), named `<scene>_<scale>_b<version>.bvh`, so *later
//! processes* skip procedural synthesis and BVH construction entirely.
//! The artifact is mapped through [`MappedArtifact`] and decoded **in
//! place** — its buffers are borrowed from the mapping, not copied — and
//! its name carries the format version, so a format bump is a plain miss.
//!
//! The store lives in `$RIP_CACHE_DIR` when set (an **empty** value
//! disables the disk tier), else `<system temp dir>/rip-artifacts`.
//! Clearing it is always safe: artifacts are pure derived data. A cache
//! that opens a directory deletes the artifacts of retired layouts there
//! (per-viewport cases, older BVH versions) and touches nothing else.
//! Telemetry lands in the `exec.cache.*` counters.

use crate::artifact::MappedArtifact;
use crate::case::{Case, CaseKey, TreeKey};
use crate::store::{env_dir, CacheError, CacheStats, Names, Recipe, Store};
use rip_bvh::Bvh;
use rip_obs::Obs;
use rip_scene::{SceneScale, SCENE_IDS};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Process-wide build-once cache of benchmark cases.
pub struct CaseCache {
    trees: Store<TreeKey, Bvh>,
    /// The cases made so far, each over the tree its key's cell held
    /// when it was made.
    cases: Mutex<HashMap<CaseKey, Arc<Case>>>,
}

impl CaseCache {
    /// A cache whose disk tier honors `$RIP_CACHE_DIR` (empty value =
    /// disabled; unset = `<system temp dir>/rip-artifacts`).
    pub fn new() -> Self {
        CaseCache::with_disk_dir(env_dir("RIP_CACHE_DIR", "rip-artifacts"))
    }

    /// A cache with an explicit disk tier (`None` = in-memory only). The
    /// directory's artifacts of retired layouts are deleted.
    pub fn with_disk_dir(disk_dir: Option<PathBuf>) -> Self {
        if let Some(dir) = &disk_dir {
            delete_retired_artifacts(dir);
        }
        CaseCache {
            trees: Store::new(disk_dir),
            cases: Mutex::default(),
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
            trees: self.trees.with_obs(obs),
            ..self
        }
    }

    /// Counters since construction. Every lease counts once, by how its
    /// tree was served: a case over an already-made tree is a memory hit.
    pub fn stats(&self) -> CacheStats {
        self.trees.stats()
    }

    /// Returns the case for `key`, making its tree at most once per
    /// process and consulting the artifact store before building.
    ///
    /// This never fails: a missing, unreadable, or corrupt artifact is
    /// quarantined as needed and the tree is rebuilt from source. (A
    /// panic inside the scene/BVH build itself still unwinds — that is
    /// the caller's unit boundary, isolated by
    /// [`ShardedRunner::try_run`](crate::runner::ShardedRunner::try_run).)
    pub fn get_or_build(&self, key: CaseKey) -> Arc<Case> {
        let bvh = self.trees.get(key.tree(), &key.tree());
        let mut cases = self.cases();
        match cases.get(&key) {
            Some(case) if Arc::ptr_eq(&case.bvh, &bvh) => Arc::clone(case),
            _ => {
                let case = Arc::new(Case::new(key, bvh));
                cases.insert(key, Arc::clone(&case));
                case
            }
        }
    }

    /// Drops the in-process case for `key` and its tree, so the next
    /// [`CaseCache::get_or_build`] re-resolves the tree (from the
    /// artifact store if present, else a fresh build). Returns whether an
    /// entry was dropped. Other viewports' cases over the dropped tree
    /// are remade over its successor when next leased. On-disk artifacts
    /// are untouched — they are pure derived data and stay valid across
    /// epochs.
    ///
    /// This is the hook behind `rip-serve`'s epoch-based registry
    /// reload: the registry invalidates, rebuilds via `get_or_build`,
    /// and bumps its epoch; requests already holding the old `Arc`'d
    /// case keep tracing against it unperturbed.
    pub fn invalidate(&self, key: CaseKey) -> bool {
        let case = self.cases().remove(&key).is_some();
        self.trees.invalidate(&key.tree()) || case
    }

    /// The already-made case for `key`, if any — a pure read: never
    /// builds, never touches hit counters. Service layers use this to
    /// snapshot the current epoch before attempting a risky rebuild.
    pub fn peek(&self, key: CaseKey) -> Option<Arc<Case>> {
        let bvh = self.trees.peek(&key.tree())?;
        let cases = self.cases();
        cases
            .get(&key)
            .filter(|case| Arc::ptr_eq(&case.bvh, &bvh))
            .cloned()
    }

    /// Re-registers `case` as the in-process entry for `key`, and its
    /// tree as the entry for `key.tree()`, replacing whatever is there.
    /// This is the reload circuit breaker's undo path: when a rebuild
    /// fails after [`CaseCache::invalidate`], the previous case goes back
    /// so readers keep being served the last good epoch instead of
    /// re-attempting the failing build.
    pub fn restore(&self, key: CaseKey, case: Arc<Case>) {
        self.trees.restore(key.tree(), Arc::clone(&case.bvh));
        self.cases().insert(key, case);
    }

    /// The case map, even if another thread panicked while holding its
    /// lock: no operation on it can leave it half-updated.
    fn cases(&self) -> MutexGuard<'_, HashMap<CaseKey, Arc<Case>>> {
        self.cases.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for CaseCache {
    fn default() -> Self {
        CaseCache::new()
    }
}

impl std::fmt::Debug for CaseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseCache")
            .field("trees", &self.trees)
            .field("cases", &self.cases().len())
            .finish()
    }
}

impl Recipe for TreeKey {
    type Value = Bvh;
    const NAMES: Names = Names {
        cat: "exec.cache",
        arg: "case",
        stem: "artifact",
        build: "build",
        built: "built case",
        hit: "artifact cache hit",
    };

    fn label(&self) -> String {
        TreeKey::label(self)
    }

    fn path(&self, dir: &Path) -> PathBuf {
        let version = rip_bvh::serial::FORMAT_VERSION;
        dir.join(format!("{}_b{version}.bvh", self.label()))
    }

    /// The BVH's buffers stay borrowed from the mapping (owned aligned
    /// buffer by default, a page mapping under the `mmap` feature) for
    /// the tree's whole lifetime, so a disk hit copies no buffer. It
    /// still reads every byte once: the checksums and structural checks
    /// scan it.
    fn decode(&self, path: &Path, file: &MappedArtifact) -> Result<Bvh, CacheError> {
        rip_bvh::serial::decode_shared(file.bytes()).map_err(CacheError::corrupt(path))
    }

    fn build(&self) -> Bvh {
        TreeKey::build(*self)
    }

    fn write(&self, bvh: &Bvh, out: &mut BufWriter<File>) -> io::Result<()> {
        rip_bvh::serial::write_to(bvh, out)
    }
}

/// Deletes the case artifacts of retired layouts in `dir`: see
/// [`is_retired`]. Nothing else is touched, and a file that cannot be
/// deleted is left for the next cache.
fn delete_retired_artifacts(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|entry| entry.path()) {
        let retired = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(is_retired);
        if retired && std::fs::remove_file(&path).is_ok() {
            Obs::global()
                .event("exec.cache", "retired")
                .arg("path", path.display().to_string())
                .stderr(format!(
                    "[rip-exec] deleted retired artifact {}",
                    path.display()
                ))
                .emit();
        }
    }
}

/// Whether `name` follows the case store's naming grammar under a
/// retired layout: a per-viewport case file
/// `<scene>_<scale>_<w>x<h>_s<n>b<m>.{scene,bvh}`, or a tree file
/// `<scene>_<scale>_b<n>.bvh` of another BVH format version.
fn is_retired(name: &str) -> bool {
    let number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let pair = |s: &str, sep| {
        s.split_once(sep)
            .is_some_and(|(a, b)| number(a) && number(b))
    };
    let tree = |code: &str, scale| {
        SCENE_IDS.iter().any(|id| id.code().to_lowercase() == code)
            && SceneScale::parse(scale).is_some()
    };
    let Some((stem, ext)) = name.rsplit_once('.') else {
        return false;
    };
    match (stem.split('_').collect::<Vec<_>>().as_slice(), ext) {
        ([code, scale, viewport, versions], "scene" | "bvh") => {
            tree(code, scale)
                && pair(viewport, 'x')
                && versions.strip_prefix('s').is_some_and(|v| pair(v, 'b'))
        }
        ([code, scale, version], "bvh") => {
            tree(code, scale)
                && version
                    .strip_prefix('b')
                    .is_some_and(|v| number(v) && v != rip_bvh::serial::FORMAT_VERSION.to_string())
        }
        _ => false,
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
    fn stored_artifact_is_the_encoded_tree() {
        let dir = temp_store("encoded");
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(tiny_key(21));
        assert_eq!(
            std::fs::read(tiny_key(21).tree().path(&dir)).unwrap(),
            rip_bvh::serial::encode(&case.bvh)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn viewports_of_one_scene_share_one_tree() {
        let dir = temp_store("one-tree");
        let (a, b) = {
            let cache = CaseCache::with_disk_dir(Some(dir.clone()));
            let a = cache.get_or_build(tiny_key(23));
            let b = cache.get_or_build(tiny_key(24));
            assert_eq!((cache.stats().builds, cache.stats().memory_hits), (1, 1));
            (a, b)
        };
        assert!(
            Arc::ptr_eq(&a.bvh, &b.bvh),
            "both viewports must share the tree"
        );
        assert_ne!(a.scene, b.scene);
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(
            files,
            [tiny_key(23).tree().path(&dir)],
            "one .bvh file per tree"
        );
        // A fresh cache (fresh process stand-in) leasing a third viewport
        // loads the same tree from disk.
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let c = cache.get_or_build(tiny_key(25));
        assert_eq!((cache.stats().disk_hits, cache.stats().builds), (1, 0));
        assert!(c.bvh.is_shared(), "a warm lease must borrow the mapping");
        assert_eq!(c.scene, Case::build(tiny_key(25)).scene);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidating_a_key_drops_its_case_and_tree() {
        let cache = CaseCache::in_memory_only();
        let old = cache.get_or_build(tiny_key(16));
        cache.get_or_build(tiny_key(24));
        assert!(cache.invalidate(tiny_key(16)));
        assert!(cache.peek(tiny_key(16)).is_none());
        assert!(
            cache.peek(tiny_key(24)).is_none(),
            "no case may outlive its tree's cell"
        );
        let new = cache.get_or_build(tiny_key(24));
        assert_eq!(cache.stats().builds, 2);
        assert!(!Arc::ptr_eq(&old.bvh, &new.bvh));
        cache.restore(tiny_key(16), Arc::clone(&old));
        assert!(Arc::ptr_eq(&cache.peek(tiny_key(16)).unwrap(), &old));
        assert!(Arc::ptr_eq(&cache.get_or_build(tiny_key(24)).bvh, &old.bvh));
    }

    #[test]
    fn retired_artifacts_are_deleted() {
        let dir = temp_store("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let version = rip_bvh::serial::FORMAT_VERSION;
        let retired = ["sb_tiny_32x32_s2b3.scene", "lr_paper_1024x1024_s3b3.bvh"];
        let kept = [
            format!("sb_tiny_b{version}.bvh"),
            format!("sb_tiny_32x32_any_t{}.ript", rip_bvh::ript::FORMAT_VERSION),
            "notes_s2b3.scene.txt".to_string(),
        ];
        for name in retired
            .iter()
            .copied()
            .chain(kept.iter().map(String::as_str))
        {
            std::fs::write(dir.join(name), b"bytes").unwrap();
        }
        CaseCache::with_disk_dir(Some(dir.clone()));
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        let mut expected = kept.to_vec();
        expected.sort();
        assert_eq!(left, expected);
        assert!(is_retired(&format!("sb_tiny_b{}.bvh", version + 1)));
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
        let b = cache.get_or_build(tiny_key(24));
        assert_eq!(cache.stats().builds, 1);
        assert_ne!(a.scene, b.scene);
        assert_eq!((a.scene.camera.width(), b.scene.camera.width()), (16, 24));
    }
}
