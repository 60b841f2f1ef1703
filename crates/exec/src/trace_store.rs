//! Capture-once trace store for RIPT ray-trace sets.
//!
//! The trace-driven replay pipeline (DESIGN.md §12) wants every workload
//! traversed **once**: the functional capture runs a full while-while
//! traversal per ray and records the node/triangle streams as a RIPT
//! artifact ([`rip_bvh::ript`]); every later simulation — the other
//! configurations of a sweep, the next process, the timing model — replays
//! the recorded streams instead of re-walking the BVH.
//!
//! The crate's build-once store keyed by `(label, kind)`, shared with
//! [`CaseCache`](crate::CaseCache): a sweep over five predictor
//! configurations, or several workers asking at once, pay for one
//! traversal pass. The disk tier holds RIPT containers under
//! `$RIP_TRACE_DIR` (empty value disables it; unset =
//! `<system temp dir>/rip-traces`), mapped zero-copy through
//! [`MappedArtifact`] and named by label, kind and RIPT format version. A
//! trace that fails decoding *or* no longer matches its workload
//! (different BVH, rays, or ray count) is quarantined and recaptured, so a
//! request never returns a trace that would replay the wrong streams.
//! Telemetry lands in the `exec.trace.*` counters (NOT `gpusim.*`, so
//! simulator registry diffs stay clean).

use crate::artifact::MappedArtifact;
use crate::store::{env_dir, CacheError, Names, Recipe, Store};
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_obs::Obs;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Counters describing how a [`TraceStore`] served its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Requests served from the in-process map, including those that
    /// waited for another thread's capture.
    pub memory_hits: u64,
    /// Requests served by decoding on-disk RIPT artifacts.
    pub disk_hits: u64,
    /// Requests that captured the trace from a live traversal pass.
    pub captures: u64,
    /// Artifacts quarantined after failing decode or workload validation.
    pub quarantines: u64,
}

/// Process-wide capture-once store of recorded ray-trace sets.
#[derive(Debug)]
pub struct TraceStore {
    store: Store<(String, TraversalKind), RayTraceSet>,
    parallelism: usize,
}

impl TraceStore {
    /// A store whose disk tier honors `$RIP_TRACE_DIR` (empty value =
    /// disabled; unset = `<system temp dir>/rip-traces`).
    pub fn new() -> Self {
        TraceStore::with_disk_dir(env_dir("RIP_TRACE_DIR", "rip-traces"))
    }

    /// A store with an explicit disk tier (`None` = in-memory only).
    pub fn with_disk_dir(dir: Option<PathBuf>) -> Self {
        TraceStore {
            store: Store::new(dir),
            parallelism: 1,
        }
    }

    /// A store with no disk tier.
    pub fn in_memory_only() -> Self {
        TraceStore::with_disk_dir(None)
    }

    /// Routes this store's `exec.trace.*` counters and events to `obs`
    /// instead of the process-wide default instance.
    pub fn with_obs(self, obs: Arc<Obs>) -> Self {
        TraceStore {
            store: self.store.with_obs(obs),
            ..self
        }
    }

    /// Shards capture passes over up to `threads` worker threads
    /// (`RayTraceSet::capture_parallel`). Captured bytes are identical at
    /// every thread count; only the capture wall-clock changes.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Counters since construction.
    pub fn stats(&self) -> TraceStoreStats {
        let stats = self.store.stats();
        TraceStoreStats {
            memory_hits: stats.memory_hits,
            disk_hits: stats.disk_hits,
            captures: stats.builds,
            quarantines: stats.quarantines,
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
        let capture = Capture {
            label,
            kind,
            bvh,
            batch,
            threads: self.parallelism,
        };
        self.store.get((label.to_string(), kind), &capture)
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

/// One workload's trace request.
struct Capture<'a> {
    label: &'a str,
    kind: TraversalKind,
    bvh: &'a Bvh,
    batch: &'a RayBatch,
    threads: usize,
}

impl Recipe for Capture<'_> {
    type Value = RayTraceSet;
    const NAMES: Names = Names {
        cat: "exec.trace",
        arg: "trace",
        stem: "trace",
        build: "capture",
        built: "captured trace",
        hit: "trace hit",
    };

    fn label(&self) -> String {
        self.label.to_string()
    }

    fn path(&self, dir: &Path) -> PathBuf {
        let tag = match self.kind {
            TraversalKind::AnyHit => "any",
            TraversalKind::ClosestHit => "closest",
        };
        let version = rip_bvh::ript::FORMAT_VERSION;
        dir.join(format!("{}_{tag}_t{version}.ript", self.label))
    }

    /// The decoded set must [`attach`](RayTraceSet::attach) to the live
    /// workload — a label collision or a changed scene/ray generator is a
    /// [`CacheError::KeyMismatch`], not a silent wrong replay.
    fn decode(&self, path: &Path, file: &MappedArtifact) -> Result<RayTraceSet, CacheError> {
        let set = RayTraceSet::decode_shared(file.bytes()).map_err(CacheError::corrupt(path))?;
        if set.kind() != self.kind || set.attach(self.bvh, self.batch).is_err() {
            return Err(CacheError::KeyMismatch {
                label: self.label(),
            });
        }
        Ok(set)
    }

    fn build(&self) -> RayTraceSet {
        RayTraceSet::capture_parallel(self.bvh, self.batch, self.kind, self.threads)
    }

    fn write(&self, set: &RayTraceSet, out: &mut BufWriter<File>) -> io::Result<()> {
        set.write_to(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::{Ray, Triangle, Vec3};
    use std::sync::Barrier;

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
    fn concurrent_requests_capture_once() {
        let (bvh, small) = workload();
        let mut batch = RayBatch::with_capacity(20_480);
        for i in 0..20_480 {
            batch.push(small.ray(i % small.len()));
        }
        let store = TraceStore::in_memory_only();
        let barrier = Barrier::new(4);
        let sets: Vec<Arc<RayTraceSet>> = std::thread::scope(|s| {
            let requests: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit)
                    })
                })
                .collect();
            requests.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(
            store.stats().captures,
            1,
            "one capture serves every request"
        );
        assert_eq!(
            store.stats().memory_hits,
            3,
            "the waiters count as memory hits"
        );
        assert!(sets.iter().all(|set| Arc::ptr_eq(set, &sets[0])));
    }

    #[test]
    fn disk_tier_round_trips_bit_exactly() {
        let (bvh, batch) = workload();
        let dir = temp_store("roundtrip");
        let captured = {
            let store = TraceStore::with_disk_dir(Some(dir.clone()));
            store.get_or_capture("w", &bvh, &batch, TraversalKind::AnyHit)
        };
        let store = TraceStore::with_disk_dir(Some(dir.clone()));
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
        let store = TraceStore::with_disk_dir(Some(dir.clone()));
        let set = store.get_or_capture("w", &bvh, &batch, TraversalKind::ClosestHit);
        let request = Capture {
            label: "w",
            kind: TraversalKind::ClosestHit,
            bvh: &bvh,
            batch: &batch,
            threads: 1,
        };
        assert_eq!(std::fs::read(request.path(&dir)).unwrap(), set.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_is_quarantined_and_recaptured() {
        let (bvh, batch) = workload();
        let dir = temp_store("corrupt");
        {
            let store = TraceStore::with_disk_dir(Some(dir.clone()));
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
        let store = TraceStore::with_disk_dir(Some(dir.clone()));
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
            let store = TraceStore::with_disk_dir(Some(dir.clone()));
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
        let store = TraceStore::with_disk_dir(Some(dir.clone()));
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
