//! Build-once case cache with an on-disk artifact store.
//!
//! Two tiers:
//!
//! 1. **In-process**: a `(scene, scale, viewport) → Arc<Case>` map shared
//!    by every experiment in the run. Concurrent requests for the same
//!    key block on one build (via `OnceLock`) instead of duplicating it.
//! 2. **On-disk**: RIPA v2 scene and BVH artifacts (see
//!    `rip_scene::serial` / `rip_bvh::serial`), so *subsequent processes*
//!    skip procedural synthesis and BVH construction entirely. Artifacts
//!    are mapped through [`MappedArtifact`] and decoded **in place** —
//!    the buffer sections are borrowed out of the mapping, not copied —
//!    and are keyed by scene/scale/viewport and both format versions;
//!    stale or corrupt files fail decoding and fall back to a rebuild
//!    (v1 artifacts are simply invisible under the v2 key).
//!
//! The store lives in `$RIP_CACHE_DIR` when set (an **empty** value
//! disables the disk tier), else `<system temp dir>/rip-artifacts`.
//! Clearing it is always safe: artifacts are pure derived data.
//!
//! **Fault handling.** Artifact IO never aborts a run: every failure is
//! classified as a typed [`CacheError`] and degrades to a rebuild from
//! source. Corrupt or key-mismatched artifacts are additionally
//! *quarantined* — renamed to `<name>.quarantine` — so a bad file is
//! preserved for diagnosis, never re-decoded on the next run, and never
//! silently overwritten until a fresh build replaces it. Writes go
//! through a temp file plus atomic rename, so a killed process can never
//! leave a truncated artifact under the final name.
//!
//! Telemetry (hits, builds, timings) goes to **stderr** so experiment
//! tables on stdout stay byte-deterministic. Every diagnostic is a
//! structured [`rip_obs`] event that prints its stderr line verbatim
//! and mirrors into the `exec.cache.*` counters of the attached
//! [`Obs`] instance ([`CaseCache::with_obs`]).

use crate::artifact::MappedArtifact;
use crate::case::{Case, CaseKey};
use crate::fault::Fault;
use rip_obs::Obs;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Why an artifact could not be served from the disk tier.
///
/// Every variant degrades to a rebuild; the distinction drives telemetry,
/// quarantine, and the [`Fault`] taxonomy ([`CacheError::into_fault`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// No artifact on disk (a plain miss — the expected cold-start path).
    Miss,
    /// The disk tier is disabled for this cache.
    Disabled,
    /// The artifact exists but cannot be read (permissions, transient IO).
    Io {
        /// Offending file.
        path: PathBuf,
        /// OS-level error description.
        detail: String,
    },
    /// The artifact fails decoding or post-decode validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// Decoder diagnostic.
        detail: String,
    },
    /// The artifact decodes but describes a different case than its key.
    KeyMismatch {
        /// The key whose lookup found the imposter.
        label: String,
    },
}

impl CacheError {
    /// Folds this error into the structured fault taxonomy.
    pub fn into_fault(self) -> Fault {
        match self {
            CacheError::Miss | CacheError::Disabled => {
                Fault::retryable("artifact unavailable (cache miss)")
            }
            CacheError::Io { path, detail } => {
                Fault::io(format!("cannot read artifact {}: {detail}", path.display()))
            }
            CacheError::Corrupt { path, detail } => {
                Fault::cache_corrupt(format!("corrupt artifact {}: {detail}", path.display()))
            }
            CacheError::KeyMismatch { label } => {
                Fault::cache_corrupt(format!("artifact for {label} does not match its key"))
            }
        }
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Miss => f.write_str("artifact not present"),
            CacheError::Disabled => f.write_str("disk tier disabled"),
            CacheError::Io { path, detail } => {
                write!(f, "cannot read {}: {detail}", path.display())
            }
            CacheError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact {}: {detail}", path.display())
            }
            CacheError::KeyMismatch { label } => {
                write!(f, "artifact does not match key {label}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Counters describing how a [`CaseCache`] served its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the in-process map.
    pub memory_hits: u64,
    /// Requests served by decoding on-disk artifacts.
    pub disk_hits: u64,
    /// Requests that built the case from scratch.
    pub builds: u64,
    /// Artifacts quarantined after failing decode or key validation.
    pub quarantines: u64,
}

/// Process-wide build-once cache of benchmark cases.
pub struct CaseCache {
    cases: Mutex<HashMap<CaseKey, Arc<OnceLock<Arc<Case>>>>>,
    disk_dir: Option<PathBuf>,
    obs: Arc<Obs>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    quarantines: AtomicU64,
}

impl CaseCache {
    /// A cache whose disk tier honors `$RIP_CACHE_DIR` (empty value =
    /// disabled; unset = `<system temp dir>/rip-artifacts`).
    pub fn new() -> Self {
        let disk_dir = match std::env::var("RIP_CACHE_DIR") {
            Ok(dir) if dir.is_empty() => None,
            Ok(dir) => Some(PathBuf::from(dir)),
            Err(_) => Some(std::env::temp_dir().join("rip-artifacts")),
        };
        CaseCache::with_disk_dir(disk_dir)
    }

    /// A cache with an explicit disk tier (`None` = in-memory only).
    pub fn with_disk_dir(disk_dir: Option<PathBuf>) -> Self {
        CaseCache {
            cases: Mutex::new(HashMap::new()),
            disk_dir,
            obs: Arc::clone(Obs::global()),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// A cache with no disk tier.
    pub fn in_memory_only() -> Self {
        CaseCache::with_disk_dir(None)
    }

    /// Routes this cache's `exec.cache.*` counters and events to `obs`
    /// instead of the process-wide default instance.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Where this cache persists artifacts, when it does.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
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
        let cell = {
            // A poisoned map just means some other thread panicked while
            // inserting; the map itself is still structurally sound.
            let mut cases = self.cases.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(
                cases
                    .entry(key)
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        if let Some(case) = cell.get() {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.add("exec.cache.memory_hit", 1);
            return Arc::clone(case);
        }
        let mut initialized_here = false;
        let case = cell.get_or_init(|| {
            initialized_here = true;
            Arc::new(self.load_or_build(key))
        });
        if !initialized_here {
            // Another thread raced us to the build; for this request it
            // behaved like an in-memory hit.
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.add("exec.cache.memory_hit", 1);
        }
        Arc::clone(case)
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
        let mut cases = self.cases.lock().unwrap_or_else(|p| p.into_inner());
        cases.remove(&key).is_some()
    }

    /// The already-built case for `key`, if any — a pure read: never
    /// builds, never touches hit counters. Service layers use this to
    /// snapshot the current epoch before attempting a risky rebuild.
    pub fn peek(&self, key: CaseKey) -> Option<Arc<Case>> {
        let cases = self.cases.lock().unwrap_or_else(|p| p.into_inner());
        cases.get(&key).and_then(|cell| cell.get().cloned())
    }

    /// Re-registers `case` as the in-process entry for `key`, replacing
    /// whatever is there. This is the reload circuit breaker's undo
    /// path: when a rebuild fails after [`CaseCache::invalidate`], the
    /// previous case goes back so readers keep being served the last
    /// good epoch instead of re-attempting the failing build.
    pub fn restore(&self, key: CaseKey, case: Arc<Case>) {
        let cell = OnceLock::new();
        let _ = cell.set(case);
        let mut cases = self.cases.lock().unwrap_or_else(|p| p.into_inner());
        cases.insert(key, Arc::new(cell));
    }

    fn load_or_build(&self, key: CaseKey) -> Case {
        match self.try_load(key) {
            Ok(case) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.obs.add("exec.cache.disk_hit", 1);
                return case;
            }
            Err(CacheError::Miss | CacheError::Disabled) => {}
            Err(error @ (CacheError::Corrupt { .. } | CacheError::KeyMismatch { .. })) => {
                self.obs
                    .event("exec.cache", "artifact_rejected")
                    .arg("case", key.label())
                    .arg("error", error.to_string())
                    .stderr(format!(
                        "[rip-exec] {error}; quarantining and rebuilding from source"
                    ))
                    .emit();
                self.quarantine(key, &error);
            }
            Err(error @ CacheError::Io { .. }) => {
                self.obs
                    .event("exec.cache", "artifact_io_error")
                    .arg("case", key.label())
                    .stderr(format!("[rip-exec] {error}; rebuilding from source"))
                    .emit();
            }
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.obs.add("exec.cache.build", 1);
        let span = self
            .obs
            .span("exec.cache", "build")
            .arg("case", key.label());
        let start = Instant::now();
        let case = Case::build(key);
        let built_ms = start.elapsed().as_millis() as u64;
        drop(span);
        let event = self
            .obs
            .event("exec.cache", "build")
            .arg("case", key.label())
            .arg_u64("built_ms", built_ms);
        match self.store(key, &case) {
            Some(dir) => event
                .arg("store", "disk")
                .stderr(format!(
                    "[rip-exec] built case {} in {built_ms} ms (artifacts cached to {})",
                    key.label(),
                    dir.display(),
                ))
                .emit(),
            None => event
                .arg("store", "none")
                .stderr(format!(
                    "[rip-exec] built case {} in {built_ms} ms (disk cache disabled)",
                    key.label(),
                ))
                .emit(),
        }
        case
    }

    /// Attempts to serve `key` from the artifact store, classifying every
    /// failure so the caller can log, quarantine, and rebuild.
    ///
    /// Artifacts are RIPA v2 containers decoded **in place** through
    /// [`MappedArtifact`]: the mesh buffers and all three BVH buffers
    /// (nodes, leaf order, triangles) stay borrowed from the mapping
    /// (owned aligned buffer by default, a page mapping under the `mmap`
    /// feature) for the case's whole lifetime, so a disk hit copies no
    /// buffer. It still reads every byte once: the owned backend reads
    /// the file, and the checksums and structural checks scan it.
    fn try_load(&self, key: CaseKey) -> Result<Case, CacheError> {
        let Some((scene_path, bvh_path)) = self.artifact_paths(key) else {
            return Err(CacheError::Disabled);
        };
        let scene_map = MappedArtifact::open(&scene_path)?;
        let bvh_map = MappedArtifact::open(&bvh_path)?;
        let backend = scene_map.backend();
        if backend == "mmap" {
            self.obs.add("exec.cache.mmap_load", 1);
        }
        let start = Instant::now();
        let scene = rip_scene::serial::decode_shared(scene_map.bytes()).map_err(|e| {
            CacheError::Corrupt {
                path: scene_path.clone(),
                detail: e,
            }
        })?;
        let bvh =
            rip_bvh::serial::decode_shared(bvh_map.bytes()).map_err(|e| CacheError::Corrupt {
                path: bvh_path.clone(),
                detail: e,
            })?;
        if scene.id != key.id
            || scene.camera.width() != key.width
            || scene.camera.height() != key.height
            || bvh.triangle_count() != scene.mesh.triangle_count()
        {
            return Err(CacheError::KeyMismatch { label: key.label() });
        }
        let load_ms = start.elapsed().as_millis() as u64;
        self.obs
            .event("exec.cache", "artifact_hit")
            .arg("case", key.label())
            .arg("backend", backend)
            .arg_u64("load_ms", load_ms)
            .stderr(format!(
                "[rip-exec] artifact cache hit: {} (scene+BVH loaded in {load_ms} ms via {backend}, 0 rebuilds)",
                key.label(),
            ))
            .emit();
        let id = scene.id;
        Ok(Case::from_parts(id, scene, bvh))
    }

    /// Moves the artifact(s) implicated by `error` aside as
    /// `<name>.quarantine`, preserving the bad bytes for diagnosis while
    /// guaranteeing they are never decoded again. A key mismatch
    /// quarantines both halves of the pair (either could be the imposter).
    fn quarantine(&self, key: CaseKey, error: &CacheError) {
        let Some((scene_path, bvh_path)) = self.artifact_paths(key) else {
            return;
        };
        let targets: Vec<&Path> = match error {
            CacheError::Corrupt { path, .. } => vec![path.as_path()],
            CacheError::KeyMismatch { .. } => vec![scene_path.as_path(), bvh_path.as_path()],
            _ => return,
        };
        for path in targets {
            let mut quarantined = path.as_os_str().to_owned();
            quarantined.push(".quarantine");
            match std::fs::rename(path, &quarantined) {
                Ok(()) => {
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                    self.obs.add("exec.cache.quarantine", 1);
                    self.obs
                        .event("exec.cache", "quarantine")
                        .arg("case", key.label())
                        .arg("path", path.display().to_string())
                        .stderr(format!(
                            "[rip-exec] quarantined {} -> {}",
                            path.display(),
                            Path::new(&quarantined).display()
                        ))
                        .emit();
                }
                Err(e) => {
                    // Last resort: make sure the bad bytes cannot be
                    // decoded again even if we cannot preserve them.
                    self.obs
                        .event("exec.cache", "quarantine_failed")
                        .arg("case", key.label())
                        .arg("path", path.display().to_string())
                        .stderr(format!(
                            "[rip-exec] cannot quarantine {} ({e}); removing instead",
                            path.display()
                        ))
                        .emit();
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    /// Persists both artifacts, each streamed straight from the case to
    /// its file; returns the store directory on success.
    fn store(&self, key: CaseKey, case: &Case) -> Option<&Path> {
        let (scene_path, bvh_path) = self.artifact_paths(key)?;
        let dir = self.disk_dir.as_deref()?;
        if let Err(e) = std::fs::create_dir_all(dir) {
            self.obs
                .event("exec.cache", "store_failed")
                .arg("path", dir.display().to_string())
                .stderr(format!(
                    "[rip-exec] cannot create artifact dir {}: {e}",
                    dir.display()
                ))
                .emit();
            return None;
        }
        let ok = write_atomic(&self.obs, &scene_path, |out| {
            rip_scene::serial::write_to(&case.scene, out)
        }) && write_atomic(&self.obs, &bvh_path, |out| {
            rip_bvh::serial::write_to(&case.bvh, out)
        });
        ok.then_some(dir)
    }

    fn artifact_paths(&self, key: CaseKey) -> Option<(PathBuf, PathBuf)> {
        let dir = self.disk_dir.as_deref()?;
        let stem = format!(
            "{}_s{}b{}",
            key.label(),
            rip_scene::serial::FORMAT_VERSION,
            rip_bvh::serial::FORMAT_VERSION,
        );
        Some((
            dir.join(format!("{stem}.scene")),
            dir.join(format!("{stem}.bvh")),
        ))
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
            .field("disk_dir", &self.disk_dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Streams `write`'s output through a buffered temp file, then renames it
/// into place, so a killed process (or a concurrent one) can never leave
/// a truncated artifact under the final name — readers see either the
/// old complete file or the new one.
pub(crate) fn write_atomic(
    obs: &Obs,
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> bool {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = File::create(&tmp)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            out.flush()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = result {
        obs.event("exec.cache", "store_failed")
            .arg("path", path.display().to_string())
            .stderr(format!(
                "[rip-exec] cannot persist artifact {}: {e}",
                path.display()
            ))
            .emit();
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
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
        assert_eq!(
            rip_bvh::serial::encode(&loaded.bvh),
            rip_bvh::serial::encode(&built.bvh),
            "cached BVH must match the fresh build byte-for-byte",
        );
        assert_eq!(loaded.scene.mesh.positions(), built.scene.mesh.positions());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_artifacts_are_the_encoded_case() {
        let dir = temp_store("encoded");
        let cache = CaseCache::with_disk_dir(Some(dir.clone()));
        let case = cache.get_or_build(tiny_key(21));
        let (scene_path, bvh_path) = cache.artifact_paths(tiny_key(21)).unwrap();
        assert_eq!(
            std::fs::read(scene_path).unwrap(),
            rip_scene::serial::encode(&case.scene)
        );
        assert_eq!(
            std::fs::read(bvh_path).unwrap(),
            rip_bvh::serial::encode(&case.bvh)
        );
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
        assert_ne!(a.scene.camera.width(), b.scene.camera.width());
    }
}
