//! Capture-once trace store for RIPT ray-trace sets.
//!
//! The trace-driven replay pipeline (DESIGN.md §12) wants every workload
//! traversed **once**: the functional capture runs a full while-while
//! traversal per ray and records the node/triangle streams as a RIPT
//! artifact ([`rip_bvh::ript`]); every subsequent simulation — the other
//! configurations of a sweep, the next process, the timing model — replays
//! the recorded streams instead of re-walking the BVH.
//!
//! Two tiers, mirroring [`CaseCache`](crate::CaseCache):
//!
//! 1. **In-process**: a `(label, kind) → Arc<RayTraceSet>` map, so one
//!    sweep capturing five predictor configurations over the same scene
//!    pays for exactly one traversal pass.
//! 2. **On-disk**: RIPT containers under `$RIP_TRACE_DIR` (empty value
//!    disables the tier; unset = `<system temp dir>/rip-traces`), mapped
//!    zero-copy through [`MappedArtifact`] and validated against the live
//!    BVH/batch before use. Files are keyed by workload label, traversal
//!    kind and the RIPT format version, so format bumps are plain misses.
//!
//! **Fault handling** follows the artifact-store contract: a trace that
//! fails decoding *or* no longer matches its workload (different BVH,
//! rays, or ray count) is classified as a typed [`CacheError`],
//! quarantined as `<name>.quarantine`, and recaptured from source — never
//! a panic, and a request never returns a trace that would replay the
//! wrong streams. Telemetry lands in the `exec.trace.*` counters (NOT
//! `gpusim.*`, so simulator registry diffs stay clean).

use crate::artifact::MappedArtifact;
use crate::cache::{write_atomic, CacheError};
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_obs::Obs;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters describing how a [`TraceStore`] served its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Requests served from the in-process map.
    pub memory_hits: u64,
    /// Requests served by decoding on-disk RIPT artifacts.
    pub disk_hits: u64,
    /// Requests that captured the trace from a live traversal pass.
    pub captures: u64,
    /// Artifacts quarantined after failing decode or workload validation.
    pub quarantines: u64,
}

/// Process-wide capture-once store of recorded ray-trace sets.
pub struct TraceStore {
    traces: Mutex<HashMap<(String, TraversalKind), Arc<RayTraceSet>>>,
    dir: Option<PathBuf>,
    parallelism: usize,
    obs: Arc<Obs>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    captures: AtomicU64,
    quarantines: AtomicU64,
}

impl TraceStore {
    /// A store whose disk tier honors `$RIP_TRACE_DIR` (empty value =
    /// disabled; unset = `<system temp dir>/rip-traces`).
    pub fn new() -> Self {
        let dir = match std::env::var("RIP_TRACE_DIR") {
            Ok(dir) if dir.is_empty() => None,
            Ok(dir) => Some(PathBuf::from(dir)),
            Err(_) => Some(std::env::temp_dir().join("rip-traces")),
        };
        TraceStore::with_dir(dir)
    }

    /// A store with an explicit disk tier (`None` = in-memory only).
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        TraceStore {
            traces: Mutex::new(HashMap::new()),
            dir,
            parallelism: 1,
            obs: Arc::clone(Obs::global()),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            captures: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// A store with no disk tier.
    pub fn in_memory_only() -> Self {
        TraceStore::with_dir(None)
    }

    /// Routes this store's `exec.trace.*` counters and events to `obs`
    /// instead of the process-wide default instance.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Shards capture passes over up to `threads` worker threads
    /// (`RayTraceSet::capture_parallel`). Captured bytes are identical at
    /// every thread count; only the capture wall-clock changes.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Where this store persists traces, when it does.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Counters since construction.
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            captures: self.captures.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }

    /// Returns the trace of `kind` for the workload `(bvh, batch)` named
    /// `label`, capturing it at most once per process and consulting the
    /// disk tier before traversing.
    ///
    /// The returned set is always validated against the live workload:
    /// this never serves a stale or corrupt trace (those are quarantined
    /// and recaptured), and never fails — the worst case is the cost of
    /// one functional traversal pass.
    pub fn get_or_capture(
        &self,
        label: &str,
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
    ) -> Arc<RayTraceSet> {
        let key = (label.to_string(), kind);
        if let Some(set) = self
            .traces
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
        {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.add("exec.trace.memory_hit", 1);
            return Arc::clone(set);
        }
        let set = Arc::new(self.load_or_capture(label, bvh, batch, kind));
        self.traces
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(key, Arc::clone(&set));
        set
    }

    fn load_or_capture(
        &self,
        label: &str,
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
    ) -> RayTraceSet {
        match self.try_load(label, bvh, batch, kind) {
            Ok(set) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.obs.add("exec.trace.disk_hit", 1);
                return set;
            }
            Err(CacheError::Miss | CacheError::Disabled) => {}
            Err(error @ (CacheError::Corrupt { .. } | CacheError::KeyMismatch { .. })) => {
                self.obs
                    .event("exec.trace", "trace_rejected")
                    .arg("trace", label)
                    .arg("error", error.to_string())
                    .stderr(format!("[rip-exec] {error}; quarantining and recapturing"))
                    .emit();
                self.quarantine(label, kind, &error);
            }
            Err(error @ CacheError::Io { .. }) => {
                self.obs
                    .event("exec.trace", "trace_io_error")
                    .arg("trace", label)
                    .stderr(format!("[rip-exec] {error}; recapturing"))
                    .emit();
            }
        }
        self.captures.fetch_add(1, Ordering::Relaxed);
        self.obs.add("exec.trace.capture", 1);
        let span = self.obs.span("exec.trace", "capture").arg("trace", label);
        let start = Instant::now();
        let set = RayTraceSet::capture_parallel(bvh, batch, kind, self.parallelism);
        let captured_ms = start.elapsed().as_millis() as u64;
        drop(span);
        let event = self
            .obs
            .event("exec.trace", "capture")
            .arg("trace", label)
            .arg_u64("rays", set.len() as u64)
            .arg_u64("captured_ms", captured_ms);
        match self.store(label, kind, &set) {
            Some(dir) => event
                .arg("store", "disk")
                .stderr(format!(
                    "[rip-exec] captured trace {label} ({} rays in {captured_ms} ms, cached to {})",
                    set.len(),
                    dir.display(),
                ))
                .emit(),
            None => event
                .arg("store", "none")
                .stderr(format!(
                    "[rip-exec] captured trace {label} ({} rays in {captured_ms} ms, disk store disabled)",
                    set.len(),
                ))
                .emit(),
        }
        set
    }

    /// Attempts to serve the trace from disk, classifying every failure.
    /// The decoded set must [`attach`](RayTraceSet::attach) to the live
    /// workload — a label collision or a changed scene/ray generator is a
    /// [`CacheError::KeyMismatch`], not a silent wrong replay.
    fn try_load(
        &self,
        label: &str,
        bvh: &Bvh,
        batch: &RayBatch,
        kind: TraversalKind,
    ) -> Result<RayTraceSet, CacheError> {
        let Some(path) = self.trace_path(label, kind) else {
            return Err(CacheError::Disabled);
        };
        let map = MappedArtifact::open(&path)?;
        let backend = map.backend();
        if backend == "mmap" {
            self.obs.add("exec.trace.mmap_load", 1);
        }
        let start = Instant::now();
        let set = RayTraceSet::decode_shared(map.bytes()).map_err(|e| CacheError::Corrupt {
            path: path.clone(),
            detail: e,
        })?;
        if set.kind() != kind {
            return Err(CacheError::KeyMismatch {
                label: label.to_string(),
            });
        }
        set.attach(bvh, batch)
            .map_err(|_| CacheError::KeyMismatch {
                label: label.to_string(),
            })?;
        let load_ms = start.elapsed().as_millis() as u64;
        self.obs
            .event("exec.trace", "trace_hit")
            .arg("trace", label)
            .arg("backend", backend)
            .arg_u64("load_ms", load_ms)
            .stderr(format!(
                "[rip-exec] trace hit: {label} ({} rays loaded in {load_ms} ms via {backend}, 0 traversals)",
                set.len(),
            ))
            .emit();
        Ok(set)
    }

    /// Moves a rejected trace aside as `<name>.quarantine`, preserving
    /// the bytes for diagnosis while guaranteeing they are never replayed.
    fn quarantine(&self, label: &str, kind: TraversalKind, error: &CacheError) {
        let Some(path) = self.trace_path(label, kind) else {
            return;
        };
        if !matches!(
            error,
            CacheError::Corrupt { .. } | CacheError::KeyMismatch { .. }
        ) {
            return;
        }
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".quarantine");
        match std::fs::rename(&path, &quarantined) {
            Ok(()) => {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
                self.obs.add("exec.trace.quarantine", 1);
                self.obs
                    .event("exec.trace", "quarantine")
                    .arg("trace", label)
                    .arg("path", path.display().to_string())
                    .stderr(format!(
                        "[rip-exec] quarantined {} -> {}",
                        path.display(),
                        Path::new(&quarantined).display()
                    ))
                    .emit();
            }
            Err(e) => {
                self.obs
                    .event("exec.trace", "quarantine_failed")
                    .arg("trace", label)
                    .arg("path", path.display().to_string())
                    .stderr(format!(
                        "[rip-exec] cannot quarantine {} ({e}); removing instead",
                        path.display()
                    ))
                    .emit();
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// Persists the trace; returns the store directory on success.
    fn store(&self, label: &str, kind: TraversalKind, set: &RayTraceSet) -> Option<&Path> {
        let path = self.trace_path(label, kind)?;
        let dir = self.dir.as_deref()?;
        if let Err(e) = std::fs::create_dir_all(dir) {
            self.obs
                .event("exec.trace", "store_failed")
                .arg("path", dir.display().to_string())
                .stderr(format!(
                    "[rip-exec] cannot create trace dir {}: {e}",
                    dir.display()
                ))
                .emit();
            return None;
        }
        write_atomic(&self.obs, &path, |out| set.write_to(out)).then_some(dir)
    }

    fn trace_path(&self, label: &str, kind: TraversalKind) -> Option<PathBuf> {
        let dir = self.dir.as_deref()?;
        let tag = match kind {
            TraversalKind::AnyHit => "any",
            TraversalKind::ClosestHit => "closest",
        };
        Some(dir.join(format!(
            "{label}_{tag}_t{}.ript",
            rip_bvh::ript::FORMAT_VERSION
        )))
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::{Ray, Triangle, Vec3};

    fn workload() -> (Bvh, RayBatch) {
        let mut tris = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let o = Vec3::new(i as f32, 0.0, j as f32);
                tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
                tris.push(Triangle::new(
                    o + Vec3::X,
                    o + Vec3::X + Vec3::Z,
                    o + Vec3::Z,
                ));
            }
        }
        let bvh = Bvh::build(&tris);
        let mut batch = RayBatch::with_capacity(64);
        for i in 0..64 {
            let x = 0.3 + (i % 8) as f32 * 0.9;
            let z = 0.4 + (i / 8) as f32 * 0.9;
            batch.push(Ray::segment(Vec3::new(x, 1.5, z), -Vec3::Y, 4.0));
        }
        (bvh, batch)
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rip-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_captures_once() {
        let (bvh, batch) = workload();
        let store = TraceStore::in_memory_only();
        let a = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        let b = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            store.stats(),
            TraceStoreStats {
                memory_hits: 1,
                disk_hits: 0,
                captures: 1,
                quarantines: 0
            }
        );
        // Distinct kinds are distinct traces.
        let c = store.get_or_capture("w", &bvh, &batch, TraversalKind::ClosestHit);
        assert_eq!(c.kind(), TraversalKind::ClosestHit);
        assert_eq!(store.stats().captures, 2);
    }

    #[test]
    fn disk_tier_round_trips_bit_exactly() {
        let (bvh, batch) = workload();
        let dir = temp_store("roundtrip");
        let captured = {
            let store = TraceStore::with_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit)
        };
        let store = TraceStore::with_dir(Some(dir.clone()));
        let loaded = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        assert_eq!(
            store.stats(),
            TraceStoreStats {
                memory_hits: 0,
                disk_hits: 1,
                captures: 0,
                quarantines: 0
            }
        );
        assert_eq!(
            captured.encode(),
            loaded.encode(),
            "round trip must be bit-exact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_trace_is_the_encoded_set() {
        let (bvh, batch) = workload();
        let dir = temp_store("encoded");
        let store = TraceStore::with_dir(Some(dir.clone()));
        let set = store.get_or_capture("w", &bvh, &batch, TraversalKind::ClosestHit);
        let path = store.trace_path("w", TraversalKind::ClosestHit).unwrap();
        assert_eq!(std::fs::read(path).unwrap(), set.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_is_quarantined_and_recaptured() {
        let (bvh, batch) = workload();
        let dir = temp_store("corrupt");
        {
            let store = TraceStore::with_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        }
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "ript") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xA5;
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let store = TraceStore::with_dir(Some(dir.clone()));
        let set = store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        assert_eq!(store.stats().captures, 1, "corruption must force recapture");
        assert_eq!(store.stats().quarantines, 1);
        set.attach(&bvh, &batch).unwrap();
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "quarantine"))
            .count();
        assert_eq!(quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_trace_for_changed_workload_is_rejected() {
        let (bvh, batch) = workload();
        let dir = temp_store("stale");
        {
            let store = TraceStore::with_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit);
        }
        // Same label, different rays: the on-disk digest no longer
        // matches, so the store must quarantine and recapture rather than
        // replay the wrong streams.
        let mut other = RayBatch::with_capacity(batch.len());
        for i in 0..batch.len() {
            let mut ray = batch.ray(i);
            ray.origin.x += 0.125;
            other.push(ray);
        }
        let store = TraceStore::with_dir(Some(dir.clone()));
        let set = store.get_or_capture("w", &bvh, &other, TraversalKind::AnyHit);
        assert_eq!(
            store.stats().quarantines,
            1,
            "stale trace must be quarantined"
        );
        assert_eq!(store.stats().captures, 1);
        set.attach(&bvh, &other).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
