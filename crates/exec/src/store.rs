//! The build-once, two-tier store behind [`CaseCache`](crate::CaseCache)
//! and [`TraceStore`](crate::TraceStore).
//!
//! Both keep derived data that is costly to make and cheap to load: the
//! BVHs that cases share and recorded RIPT traces. A [`Store`] serves either
//! from two tiers:
//!
//! 1. **In-process**: a key → `Arc<value>` map with one `OnceLock` cell per
//!    key, so concurrent requests for one key wait for a single build and
//!    every later request shares it. A request that waited on another
//!    thread's build counts as a memory hit, so the counters are the same
//!    at any worker count.
//! 2. **On-disk**: one file per key in a directory named by an
//!    environment variable ([`env_dir`]: an empty value disables the
//!    tier, unset means a directory under the system temp dir). The file
//!    is mapped through [`MappedArtifact`] and decoded in place.
//!
//! A memory miss runs one flow: load from disk; on failure classify the
//! [`CacheError`]; move a corrupt or mismatched file aside as
//! `<name>.quarantine`, so its bytes are kept for diagnosis but never
//! decoded again; build from source; persist through [`write_atomic`].
//! Artifact IO never aborts a run: the worst case is one build. Each kind
//! of artifact supplies only a [`Recipe`]: its file path, decode plus
//! validation, build and writer.
//!
//! Telemetry goes to stderr and to the `<cat>.*` counters and events of
//! the attached [`Obs`] (`exec.cache.*` for cases, `exec.trace.*` for
//! traces), so stdout stays byte-deterministic.

use crate::artifact::MappedArtifact;
use rip_obs::{EventBuilder, Obs};
use std::collections::HashMap;
use std::fs::File;
use std::hash::Hash;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Why an artifact could not be served from the disk tier.
///
/// Every variant degrades to a rebuild; the distinction drives telemetry
/// and quarantine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// No artifact on disk (a plain miss — the expected cold-start path).
    Miss,
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
    /// The artifact decodes but describes something other than its key.
    KeyMismatch {
        /// The key whose lookup found the imposter.
        label: String,
    },
}

impl CacheError {
    /// Maps a decoder diagnostic for `path` to [`CacheError::Corrupt`].
    pub(crate) fn corrupt(path: &Path) -> impl FnOnce(String) -> CacheError + '_ {
        move |detail| CacheError::Corrupt {
            path: path.to_path_buf(),
            detail,
        }
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Miss => f.write_str("artifact not present"),
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

/// Counters describing how a [`CaseCache`](crate::CaseCache) served its
/// requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the in-process map, including those that
    /// waited for another thread's build.
    pub memory_hits: u64,
    /// Requests served by decoding on-disk artifacts.
    pub disk_hits: u64,
    /// Requests that built the artifact from source.
    pub builds: u64,
    /// Artifacts quarantined after failing decode or key validation.
    pub quarantines: u64,
}

/// How one kind of artifact names itself in counters, events and stderr.
pub(crate) struct Names {
    /// Counter and event category: `exec.cache` or `exec.trace`.
    pub cat: &'static str,
    /// Event argument that carries the key's label.
    pub arg: &'static str,
    /// Stem of the `<stem>_hit`, `<stem>_rejected` and `<stem>_io_error`
    /// events.
    pub stem: &'static str,
    /// Counter, span and event name of a build.
    pub build: &'static str,
    /// What a build's stderr line says was done, e.g. `built case`.
    pub built: &'static str,
    /// What a disk hit's stderr line starts with, e.g. `trace hit`.
    pub hit: &'static str,
}

/// A request for one key's artifact: everything a [`Store`] needs that is
/// particular to the kind of artifact.
pub(crate) trait Recipe {
    /// The artifact.
    type Value;
    /// Its counter, event and stderr names.
    const NAMES: Names;
    /// The key's label in file names, events and stderr lines.
    fn label(&self) -> String;
    /// The file that holds the artifact in `dir`.
    fn path(&self, dir: &Path) -> PathBuf;
    /// Decodes `file`, mapped from `path`, and checks that it holds this
    /// key's artifact.
    fn decode(&self, path: &Path, file: &MappedArtifact) -> Result<Self::Value, CacheError>;
    /// Builds the artifact from source.
    fn build(&self) -> Self::Value;
    /// Streams `value` as the artifact file.
    fn write(&self, value: &Self::Value, out: &mut BufWriter<File>) -> io::Result<()>;
}

/// The disk directory `$var` names: none when it is set but empty,
/// `<system temp dir>/<default>` when it is unset.
pub(crate) fn env_dir(var: &str, default: &str) -> Option<PathBuf> {
    match std::env::var(var) {
        Ok(dir) if dir.is_empty() => None,
        Ok(dir) => Some(PathBuf::from(dir)),
        Err(_) => Some(std::env::temp_dir().join(default)),
    }
}

/// A build-once map over an optional disk tier.
pub(crate) struct Store<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    dir: Option<PathBuf>,
    obs: Arc<Obs>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    quarantines: AtomicU64,
}

impl<K: Eq + Hash, V> Store<K, V> {
    /// A store whose disk tier is `dir` (`None` = in-memory only).
    pub fn new(dir: Option<PathBuf>) -> Self {
        Store {
            cells: Mutex::new(HashMap::new()),
            dir,
            obs: Arc::clone(Obs::global()),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// Routes this store's counters and events to `obs`.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
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

    /// Returns `key`'s artifact, making it at most once per process: from
    /// the disk tier when a valid copy is there, else from `recipe`.
    ///
    /// This never fails on artifact IO. A panic inside the build itself
    /// unwinds to the caller and leaves the cell empty for a retry.
    pub fn get<R: Recipe<Value = V>>(&self, key: K, recipe: &R) -> Arc<V> {
        let cell = Arc::clone(self.cells().entry(key).or_default());
        let mut built_here = false;
        let value = cell.get_or_init(|| {
            built_here = true;
            Arc::new(self.load_or_build(recipe))
        });
        if !built_here {
            self.count(&self.memory_hits, R::NAMES.cat, "memory_hit");
        }
        Arc::clone(value)
    }

    /// Drops the in-process entry for `key`; returns whether there was one.
    pub fn invalidate(&self, key: &K) -> bool {
        self.cells().remove(key).is_some()
    }

    /// The already-made artifact for `key`, if any; never builds or counts.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.cells().get(key).and_then(|cell| cell.get().cloned())
    }

    /// Makes `value` the in-process entry for `key`, replacing any other.
    pub fn restore(&self, key: K, value: Arc<V>) {
        self.cells().insert(key, Arc::new(OnceLock::from(value)));
    }

    /// The map, even if another thread panicked while holding its lock:
    /// no map operation here can leave it half-updated.
    fn cells(&self) -> MutexGuard<'_, HashMap<K, Arc<OnceLock<Arc<V>>>>> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, counter: &AtomicU64, cat: &str, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.obs.add(&format!("{cat}.{name}"), 1);
    }

    fn event<R: Recipe>(&self, name: &str, label: &str) -> EventBuilder<'_> {
        self.obs.event(R::NAMES.cat, name).arg(R::NAMES.arg, label)
    }

    fn load_or_build<R: Recipe<Value = V>>(&self, recipe: &R) -> V {
        let names = &R::NAMES;
        let label = recipe.label();
        let path = self.dir.as_deref().map(|dir| recipe.path(dir));
        if let Some(path) = &path {
            match self.load(recipe, &label, path) {
                Ok(value) => {
                    self.count(&self.disk_hits, names.cat, "disk_hit");
                    return value;
                }
                Err(CacheError::Miss) => {}
                Err(error @ CacheError::Io { .. }) => self
                    .event::<R>(&format!("{}_io_error", names.stem), &label)
                    .stderr(format!("[rip-exec] {error}; rebuilding"))
                    .emit(),
                Err(error) => {
                    self.event::<R>(&format!("{}_rejected", names.stem), &label)
                        .arg("error", error.to_string())
                        .stderr(format!("[rip-exec] {error}; quarantining and rebuilding"))
                        .emit();
                    self.quarantine::<R>(&label, path);
                }
            }
        }
        self.count(&self.builds, names.cat, names.build);
        let span = self
            .obs
            .span(names.cat, names.build)
            .arg(names.arg, label.as_str());
        let start = Instant::now();
        let value = recipe.build();
        let built_ms = start.elapsed().as_millis() as u64;
        drop(span);
        let stored = path.and_then(|path| self.persist(recipe, &value, &path));
        let event = self
            .event::<R>(names.build, &label)
            .arg_u64("built_ms", built_ms);
        let prefix = format!("[rip-exec] {} {label} in {built_ms} ms", names.built);
        match stored {
            Some(dir) => event
                .arg("store", "disk")
                .stderr(format!("{prefix} (cached to {})", dir.display())),
            None => event
                .arg("store", "none")
                .stderr(format!("{prefix} (not cached)")),
        }
        .emit();
        value
    }

    /// Maps and decodes `key`'s file, classifying every failure.
    fn load<R: Recipe<Value = V>>(
        &self,
        recipe: &R,
        label: &str,
        path: &Path,
    ) -> Result<V, CacheError> {
        let file = MappedArtifact::open(path)?;
        let backend = file.backend();
        if backend == "mmap" {
            self.obs.add(&format!("{}.mmap_load", R::NAMES.cat), 1);
        }
        let start = Instant::now();
        let value = recipe.decode(path, &file)?;
        let load_ms = start.elapsed().as_millis() as u64;
        self.event::<R>(&format!("{}_hit", R::NAMES.stem), label)
            .arg("backend", backend)
            .arg_u64("load_ms", load_ms)
            .stderr(format!(
                "[rip-exec] {}: {label} (loaded in {load_ms} ms via {backend})",
                R::NAMES.hit
            ))
            .emit();
        Ok(value)
    }

    /// Moves the file at `path` aside as `<name>.quarantine`.
    fn quarantine<R: Recipe>(&self, label: &str, path: &Path) {
        let mut quarantined = path.as_os_str().to_owned();
        quarantined.push(".quarantine");
        let event = match std::fs::rename(path, &quarantined) {
            Ok(()) => {
                self.count(&self.quarantines, R::NAMES.cat, "quarantine");
                self.event::<R>("quarantine", label).stderr(format!(
                    "[rip-exec] quarantined {} -> {}",
                    path.display(),
                    Path::new(&quarantined).display()
                ))
            }
            Err(e) => {
                // Last resort: the bad bytes must never be decoded
                // again, even if they cannot be kept.
                let _ = std::fs::remove_file(path);
                self.event::<R>("quarantine_failed", label).stderr(format!(
                    "[rip-exec] cannot quarantine {} ({e}); removed it instead",
                    path.display()
                ))
            }
        };
        event.arg("path", path.display().to_string()).emit();
    }

    /// Writes `value` to `path`; returns the store directory on success.
    fn persist<R: Recipe<Value = V>>(&self, recipe: &R, value: &V, path: &Path) -> Option<&Path> {
        let dir = self.dir.as_deref()?;
        let written = std::fs::create_dir_all(dir)
            .map_err(|e| (dir, e))
            .and_then(|()| {
                write_atomic(path, |out| recipe.write(value, out)).map_err(|e| (path, e))
            });
        match written {
            Ok(()) => Some(dir),
            Err((path, e)) => {
                self.obs
                    .event(R::NAMES.cat, "store_failed")
                    .arg("path", path.display().to_string())
                    .stderr(format!("[rip-exec] cannot persist {}: {e}", path.display()))
                    .emit();
                None
            }
        }
    }
}

impl<K, V> std::fmt::Debug for Store<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("memory_hits", &self.memory_hits)
            .field("disk_hits", &self.disk_hits)
            .field("builds", &self.builds)
            .field("quarantines", &self.quarantines)
            .finish_non_exhaustive()
    }
}

/// Streams `write`'s output through a buffered temp file, then renames it
/// into place, so a killed or concurrent writer never leaves a truncated
/// file under the final name: readers see the old complete file or a new
/// one. Every call writes its own temp file, named by the process id and a
/// process-wide sequence number, so writers of one path never share one.
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let result = File::create(&tmp)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            out.flush()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn concurrent_writers_of_one_path_each_land_a_whole_file() {
        let dir = std::env::temp_dir().join(format!("rip-store-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let payloads = [vec![0xA5u8; 1 << 20], vec![0x5Au8; 1 << 20]];
        for round in 0..16 {
            let barrier = Barrier::new(payloads.len());
            let results: Vec<io::Result<()>> = std::thread::scope(|s| {
                let writers: Vec<_> = payloads
                    .iter()
                    .map(|payload| {
                        let (barrier, path) = (&barrier, &path);
                        s.spawn(move || {
                            barrier.wait();
                            write_atomic(path, |out| out.write_all(payload))
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for result in &results {
                assert!(result.is_ok(), "round {round}: a writer failed: {result:?}");
            }
            let landed = std::fs::read(&path).unwrap();
            assert!(
                payloads.contains(&landed),
                "round {round}: the file is neither payload ({} bytes)",
                landed.len()
            );
        }
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "temp files were left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
