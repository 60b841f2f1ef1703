//! Epoch-based immutable scene/BVH registry with a reload circuit
//! breaker.
//!
//! A long-lived service cannot rebuild scenes per request, and it cannot
//! mutate a scene while requests are tracing against it. The registry
//! resolves both with the standard immutable-epoch shape used by
//! production ray-tracing services over acceleration structures:
//!
//! * every lookup hands out an [`Arc`]'d, fully built
//!   [`Case`](rip_exec::Case) (scene view + BVH) from the shared
//!   [`CaseCache`] — never a mutable reference;
//! * a *reload* builds the replacement off to the side (through the
//!   cache, so the artifact store is still consulted) and then bumps an
//!   atomic epoch counter. New leases see the new case; requests
//!   holding the old `Arc` keep tracing against consistent geometry
//!   until they drop it.
//!
//! **Reload failure is survivable.** [`SceneRegistry::try_reload`] runs
//! the rebuild under [`Fault::catch`]: a panicking build restores the
//! previous case into the cache (the epoch does not advance) so readers
//! keep being served the last good geometry, and a circuit breaker
//! opens after [`BreakerConfig::failure_threshold`] consecutive
//! failures — further reloads are refused cheaply (no rebuild attempt)
//! until [`BreakerConfig::probe_after`] refusals allow one half-open
//! probe through. `RIP_FAULT_INJECT` directives labelled `serve_reload`
//! are honoured at the top of each attempt, which is how tests and CI
//! drive this path.
//!
//! **Leases wrap mapped artifacts.** When the backing cache has a disk
//! store, a reload that finds a valid RIPA v2 artifact swaps the lease's
//! `Arc` onto buffers decoded *in place* over the mapped file bytes
//! (`MappedArtifact` in `rip-exec`) — no mesh or node vectors are
//! re-copied. The artifact bytes are reference-counted through the
//! case, so an old lease held across a reload keeps its mapping alive
//! until the last request drops it; with the `mmap` feature forwarded
//! from `rip-exec` the kernel shares those pages across epochs.

use crate::chaos::RELOAD_INJECT_LABEL;
use rip_exec::{Case, CaseCache, CaseKey, Fault};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A leased scene: the immutable case plus the registry epoch it was
/// current at. Requests carry the lease for their whole lifetime, so a
/// concurrent reload can never swap geometry under a half-traced batch.
#[derive(Clone, Debug)]
pub struct SceneLease {
    /// The immutable scene view + BVH.
    pub case: Arc<Case>,
    /// Registry epoch at lease time (bumped by every reload).
    pub epoch: u64,
}

/// Circuit-breaker knobs for [`SceneRegistry::try_reload`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive reload failures that open the breaker.
    pub failure_threshold: u32,
    /// Refused reloads while open before one half-open probe attempt is
    /// let through.
    pub probe_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            probe_after: 4,
        }
    }
}

/// Why [`SceneRegistry::try_reload`] did not publish a new epoch. In
/// both cases the previous epoch keeps being served.
#[derive(Clone, Debug, PartialEq)]
pub enum ReloadError {
    /// The breaker is open: the reload was refused without attempting a
    /// rebuild.
    BreakerOpen {
        /// Consecutive failures that opened it.
        failures: u32,
        /// Refusals remaining before a half-open probe is allowed.
        until_probe: u32,
    },
    /// The rebuild itself failed; the fault carries the panic/IO cause.
    BuildFailed(Fault),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::BreakerOpen {
                failures,
                until_probe,
            } => write!(
                f,
                "reload breaker open after {failures} consecutive failures \
                 ({until_probe} refusals until probe)"
            ),
            ReloadError::BuildFailed(fault) => write!(f, "scene rebuild failed: {fault}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// Breaker state (behind the registry's mutex).
#[derive(Debug, Default)]
struct BreakerState {
    /// Consecutive failed reload attempts.
    consecutive_failures: u32,
    /// Reloads refused since the breaker opened.
    refusals: u32,
}

/// Epoch-based registry of immutable scenes, backed by a shared
/// [`CaseCache`].
///
/// # Examples
///
/// ```
/// use rip_exec::{CaseCache, CaseKey};
/// use rip_scene::{SceneId, SceneScale};
/// use rip_serve::SceneRegistry;
/// use std::sync::Arc;
///
/// let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
/// let key = CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16);
/// let a = registry.get(key);
/// let b = registry.get(key);
/// assert!(Arc::ptr_eq(&a.case, &b.case), "same epoch shares one build");
/// assert_eq!(a.epoch, b.epoch);
///
/// let c = registry.try_reload(key).unwrap();
/// assert!(c.epoch > b.epoch, "reload bumps the epoch");
/// // The old lease keeps its geometry: nothing mutated underneath it.
/// assert_eq!(a.case.bvh.triangle_count(), c.case.bvh.triangle_count());
/// ```
#[derive(Debug)]
pub struct SceneRegistry {
    cache: Arc<CaseCache>,
    /// Monotone reload counter; leases snapshot it.
    epoch: AtomicU64,
    /// The epoch each key was last (re)loaded at.
    key_epochs: Mutex<HashMap<CaseKey, u64>>,
    breaker_config: BreakerConfig,
    breaker: Mutex<BreakerState>,
    /// Lifetime reload outcomes: (ok, failed, refused).
    reload_counts: [AtomicU64; 3],
}

impl SceneRegistry {
    /// A registry over `cache`. The cache may be shared with the rest of
    /// the process (e.g. the experiment runner) — the registry only adds
    /// epoch bookkeeping on top.
    pub fn new(cache: Arc<CaseCache>) -> Self {
        SceneRegistry::with_breaker(cache, BreakerConfig::default())
    }

    /// A registry with explicit circuit-breaker knobs.
    pub fn with_breaker(cache: Arc<CaseCache>, breaker_config: BreakerConfig) -> Self {
        SceneRegistry {
            cache,
            epoch: AtomicU64::new(0),
            key_epochs: Mutex::new(HashMap::new()),
            breaker_config,
            breaker: Mutex::new(BreakerState::default()),
            reload_counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The current global epoch (number of successful reloads so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The backing cache.
    pub fn cache(&self) -> &Arc<CaseCache> {
        &self.cache
    }

    /// Lifetime reload outcomes: `(ok, failed, refused)`.
    pub fn reload_counts(&self) -> (u64, u64, u64) {
        (
            self.reload_counts[0].load(Ordering::Relaxed),
            self.reload_counts[1].load(Ordering::Relaxed),
            self.reload_counts[2].load(Ordering::Relaxed),
        )
    }

    /// Whether the reload breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        let state = self.breaker.lock().unwrap_or_else(|p| p.into_inner());
        state.consecutive_failures >= self.breaker_config.failure_threshold
    }

    /// Leases the current case for `key`, building it at most once per
    /// process (and consulting the artifact store before building).
    pub fn get(&self, key: CaseKey) -> SceneLease {
        let case = self.cache.get_or_build(key);
        let epoch = *self
            .key_epochs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(key)
            .or_insert(0);
        SceneLease { case, epoch }
    }

    /// Rebuilds `key` and publishes it under a new epoch. In-flight
    /// holders of the previous lease are unaffected; new [`get`]s
    /// observe the rebuilt case.
    ///
    /// # Panics
    ///
    /// Panics when the rebuild panics — the pre-breaker behaviour. Use
    /// [`SceneRegistry::try_reload`] in service loops; this stays for
    /// callers that prefer a crash over degraded geometry.
    ///
    /// [`get`]: SceneRegistry::get
    pub fn reload(&self, key: CaseKey) -> SceneLease {
        self.cache.invalidate(key);
        let case = self.cache.get_or_build(key);
        SceneLease {
            case,
            epoch: self.publish_epoch(key),
        }
    }

    /// Fault-isolated reload with a circuit breaker.
    ///
    /// On success the new case is published under a bumped epoch,
    /// exactly like [`SceneRegistry::reload`], and the breaker resets.
    /// On failure the *previous* case is restored into the cache (the
    /// epoch does not move — readers never observe the failed build) and
    /// the failure counts toward opening the breaker; while open,
    /// reloads are refused without attempting the build until a
    /// half-open probe is due. `RIP_FAULT_INJECT` directives labelled
    /// `serve_reload` run at the top of every attempt.
    pub fn try_reload(&self, key: CaseKey) -> Result<SceneLease, ReloadError> {
        let attempt = {
            let mut state = self.breaker.lock().unwrap_or_else(|p| p.into_inner());
            if state.consecutive_failures >= self.breaker_config.failure_threshold {
                let probe_after = self.breaker_config.probe_after.max(1);
                if state.refusals < probe_after {
                    state.refusals += 1;
                    let until_probe = probe_after - state.refusals;
                    let failures = state.consecutive_failures;
                    drop(state);
                    self.reload_counts[2].fetch_add(1, Ordering::Relaxed);
                    let obs = rip_obs::Obs::global();
                    obs.add("serve.reload.refused", 1);
                    return Err(ReloadError::BreakerOpen {
                        failures,
                        until_probe,
                    });
                }
                // Half-open: let this attempt probe the build.
                state.refusals = 0;
            }
            state.consecutive_failures + 1
        };

        let previous = self.cache.peek(key);
        let result = Fault::catch(|| {
            rip_exec::apply_injections(RELOAD_INJECT_LABEL, attempt)?;
            self.cache.invalidate(key);
            Ok(self.cache.get_or_build(key))
        });
        let obs = rip_obs::Obs::global();
        match result {
            Ok(case) => {
                let mut state = self.breaker.lock().unwrap_or_else(|p| p.into_inner());
                state.consecutive_failures = 0;
                state.refusals = 0;
                drop(state);
                self.reload_counts[0].fetch_add(1, Ordering::Relaxed);
                obs.add("serve.reload.ok", 1);
                Ok(SceneLease {
                    case,
                    epoch: self.publish_epoch(key),
                })
            }
            Err(fault) => {
                // Put the last good case back so readers keep being
                // served the old epoch instead of re-running the failing
                // build on their next `get`.
                if let Some(previous) = previous {
                    self.cache.restore(key, previous);
                }
                let mut state = self.breaker.lock().unwrap_or_else(|p| p.into_inner());
                state.consecutive_failures += 1;
                let failures = state.consecutive_failures;
                drop(state);
                self.reload_counts[1].fetch_add(1, Ordering::Relaxed);
                obs.add("serve.reload.failed", 1);
                obs.event("serve.registry", "reload_failed")
                    .arg("case", key.label())
                    .arg("fault", fault.kind.label())
                    .arg_u64("consecutive", u64::from(failures))
                    .emit();
                Err(ReloadError::BuildFailed(fault))
            }
        }
    }

    /// Bumps the global epoch and records it for `key`.
    fn publish_epoch(&self, key: CaseKey) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.key_epochs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(key, epoch);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_scene::{SceneId, SceneScale};

    fn key() -> CaseKey {
        CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16)
    }

    #[test]
    fn reload_swaps_the_arc_and_bumps_epoch() {
        let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
        let old = registry.get(key());
        assert_eq!(old.epoch, 0);
        let fresh = registry.reload(key());
        assert_eq!(fresh.epoch, 1);
        assert_eq!(registry.epoch(), 1);
        assert!(
            !Arc::ptr_eq(&old.case, &fresh.case),
            "reload must build a distinct case"
        );
        // Subsequent gets serve the reloaded case at the new epoch.
        let next = registry.get(key());
        assert!(Arc::ptr_eq(&next.case, &fresh.case));
        assert_eq!(next.epoch, 1);
    }

    #[test]
    fn epochs_are_per_key() {
        let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
        let a = CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16);
        let b = CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 18);
        registry.reload(a);
        registry.reload(a);
        assert_eq!(registry.get(a).epoch, 2);
        assert_eq!(registry.get(b).epoch, 0, "b was never reloaded");
    }

    #[test]
    fn try_reload_succeeds_like_reload() {
        let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
        let old = registry.get(key());
        let fresh = registry.try_reload(key()).unwrap();
        assert_eq!(fresh.epoch, 1);
        assert!(!Arc::ptr_eq(&old.case, &fresh.case));
        assert_eq!(registry.reload_counts(), (1, 0, 0));
        assert!(!registry.breaker_open());
    }
}
