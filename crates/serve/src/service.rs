//! The dispatch core: admission, coalescing, fault-isolated tracing,
//! graceful degradation.
//!
//! [`RayService`] turns many tenants' small submissions into the shape
//! the predictor stack is fastest at — large Morton-sorted
//! [`RayBatch`] streams — while keeping tenants isolated behind bounded
//! queues and keeping the *service* isolated from any single request's
//! failure:
//!
//! 1. **Admission**: a per-tenant token bucket and a queue-age deadline
//!    estimate refuse work at the cheapest point
//!    ([`Rejection::RateLimited`] / [`Rejection::DeadlineUnmeetable`]),
//!    before bounded queues shed the rest as
//!    [`Rejection::Backpressure`].
//! 2. **Fairness**: each dispatch round drains tenant queues
//!    round-robin (one request per tenant per pass, up to a per-tenant
//!    quota), so a chatty tenant cannot starve a quiet one.
//! 3. **Coalescing**: drained requests are concatenated per
//!    [`RequestClass`] into one batch, Morton-sorted over the scene
//!    bounds (`bvh::stream`), and chunked across the [`JobPool`].
//! 4. **Fault isolation**: every chunk attempt runs under
//!    [`Fault::catch`] with `RIP_FAULT_INJECT` / [`ChaosConfig`]
//!    injection applied first. A poisoned chunk is retried within its
//!    covered requests' deadline budget and, if it still fails, fails
//!    exactly those requests with a typed [`Fault`] — never the
//!    dispatch round.
//! 5. **Degradation**: a sliding-window [`ModeController`] walks the
//!    `Full → NoPredict → Survival` ladder on deadline-miss/fault
//!    pressure; `NoPredict` bypasses the shared table (results stay
//!    bit-identical — the §4 transparency contract), `Survival` also
//!    shrinks chunks and quotas.
//! 6. **Accounting**: per-class latency (submission → round
//!    completion, measured on the service's [`rip_obs::Clock`]),
//!    deadline misses, expiries, failures, retries and mode history
//!    land in [`ServiceStats`].

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::chaos::{apply_chunk_injections, ChaosConfig};
use crate::mode::{DegradeConfig, ModeController, ModeTransition, ServiceMode};
use crate::queue::{Backpressure, Request, RequestClass, TenantQueue};
use crate::registry::SceneLease;
use crate::Rejection;
use rip_bvh::{RayBatch, StacklessKernel, TraversalKernel};
use rip_core::{ConcurrentPredictorTable, Predicted, PredictorConfig, TableStats};
use rip_exec::{Case, Fault, FaultKind, InjectionPlan, JobPool, RetryPolicy};
use rip_obs::{Histogram, Obs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`RayService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Predictor configuration shared by every worker (`update_delay` is
    /// usually 0 here: a service trains as results complete, not on the
    /// simulator's in-flight delay model).
    pub predictor: PredictorConfig,
    /// Lock stripes in the shared table (rounded up to a power of two;
    /// the entry budget is divided across them).
    pub shards: usize,
    /// Per-tenant queue capacity (requests beyond it are shed).
    pub queue_capacity: usize,
    /// Max requests drained from one tenant per dispatch round.
    pub fairness_quota: usize,
    /// Rays per traced chunk (the unit of `JobPool` parallelism).
    pub chunk_rays: usize,
    /// Worker parallelism for tracing.
    pub jobs: usize,
    /// Admission-control knobs (token bucket off by default).
    pub admission: AdmissionConfig,
    /// Retry policy for faulted chunks. The default retries twice with
    /// zero backoff: a service must not sleep inside a dispatch round.
    pub retry: RetryPolicy,
    /// Graceful-degradation ladder knobs.
    pub degrade: DegradeConfig,
    /// Probabilistic chunk fault injection (off by default; the chaos
    /// harness turns it on).
    pub chaos: ChaosConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            predictor: PredictorConfig {
                update_delay: 0,
                ..PredictorConfig::paper_default()
            },
            shards: 4,
            queue_capacity: 64,
            fairness_quota: 4,
            chunk_rays: 1024,
            jobs: rip_exec::available_parallelism(),
            admission: AdmissionConfig::default(),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: std::time::Duration::ZERO,
            },
            degrade: DegradeConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }
}

/// Per-class accounting: volume, failure modes, and the latency
/// distribution.
#[derive(Clone, Debug, Default)]
pub struct ClassStats {
    /// Requests completed (traced to the end, on time or not).
    pub requests: u64,
    /// Rays traced.
    pub rays: u64,
    /// Rays that found a hit.
    pub hits: u64,
    /// Completed requests that finished past their deadline.
    pub deadline_miss: u64,
    /// Requests dropped at dispatch because their deadline had already
    /// passed while queued.
    pub expired: u64,
    /// Requests failed by an unrecovered chunk fault.
    pub failed: u64,
    /// Requests shed by backpressure at submission.
    pub shed: u64,
    /// Request latency in microseconds (submission → round completion,
    /// on the service clock).
    pub latency_us: Histogram,
}

/// Lifetime counters for a service instance.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Dispatch rounds executed (including empty ones).
    pub rounds: u64,
    /// Requests admitted into a queue.
    pub admitted_requests: u64,
    /// Requests completed across all classes.
    pub completed_requests: u64,
    /// Rays traced across all classes.
    pub completed_rays: u64,
    /// Requests shed by backpressure at submission.
    pub shed_requests: u64,
    /// Requests refused by the admission token bucket.
    pub rate_limited: u64,
    /// Requests refused because their deadline was already unmeetable.
    pub rejected_unmeetable: u64,
    /// Queued requests dropped at dispatch with an expired deadline.
    pub expired_requests: u64,
    /// Requests failed by an unrecovered chunk fault.
    pub failed_requests: u64,
    /// Completed requests that finished past their deadline.
    pub deadline_miss_requests: u64,
    /// Chunk attempts that were retries (attempt ≥ 2).
    pub retried_chunks: u64,
    /// Mode-ladder transitions taken (including forced ones).
    pub mode_transitions: u64,
    /// Rounds spent in each mode, indexed by [`ServiceMode::index`].
    pub mode_rounds: [u64; 3],
    /// Request failures by fault kind, indexed by
    /// [`FaultKind::index`](rip_exec::FaultKind::index). Expired and
    /// failed requests each count once under their attributed kind.
    pub faults_by_kind: [u64; 6],
    /// Per-class accounting, indexed by [`RequestClass::index`].
    pub classes: [ClassStats; 3],
}

impl ServiceStats {
    /// Requests that reached a terminal outcome (completed, expired, or
    /// failed).
    pub fn finished_requests(&self) -> u64 {
        self.completed_requests + self.expired_requests + self.failed_requests
    }

    /// The fraction of finished requests that completed within their
    /// deadline (1.0 when nothing has finished). This is the SLO the
    /// chaos harness gates on.
    pub fn availability(&self) -> f64 {
        let finished = self.finished_requests();
        if finished == 0 {
            return 1.0;
        }
        (self.completed_requests - self.deadline_miss_requests) as f64 / finished as f64
    }
}

/// What one dispatch round processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Requests drained and completed this round.
    pub requests: usize,
    /// Rays traced this round.
    pub rays: usize,
    /// Queued requests dropped with an expired deadline.
    pub expired: usize,
    /// Requests failed by an unrecovered chunk fault.
    pub failed: usize,
    /// The mode the round executed under.
    pub mode: ServiceMode,
}

/// Per-chunk dispatch plan: the sorted-index range to trace plus the
/// requests it covers (for fault attribution and the retry deadline
/// budget).
struct ChunkPlan {
    /// Sorted-stream index range.
    range: std::ops::Range<usize>,
    /// Ordinals (into the round's per-class request list) of every
    /// request with at least one ray in this chunk.
    covered: Vec<u32>,
    /// The tightest deadline among covered requests (retries stop once
    /// it passes).
    min_deadline_us: Option<u64>,
}

/// What one class's trace contributed to the round.
#[derive(Default)]
struct ClassOutcome {
    completed: usize,
    failed: usize,
    rays: usize,
    /// Completed-but-late plus failed (the mode controller's "bad").
    bad: u64,
}

/// A multi-tenant ray-tracing service over one immutable scene lease.
///
/// # Examples
///
/// ```
/// use rip_bvh::RayBatch;
/// use rip_exec::{CaseCache, CaseKey};
/// use rip_math::{Ray, Vec3};
/// use rip_scene::{SceneId, SceneScale};
/// use rip_serve::{RayService, RequestClass, SceneRegistry, ServiceConfig};
/// use std::sync::Arc;
///
/// let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
/// let lease = registry.get(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16));
/// let service = RayService::new(lease, 2, ServiceConfig::default());
/// let rays = RayBatch::from_rays(&[Ray::new(Vec3::new(0.5, 0.5, -5.0), Vec3::Z)]);
/// service.submit(0, RequestClass::Primary, rays).unwrap();
/// let round = service.run_round();
/// assert_eq!(round.requests, 1);
/// assert_eq!(service.stats().completed_rays, 1);
/// ```
#[derive(Debug)]
pub struct RayService {
    lease: SceneLease,
    config: ServiceConfig,
    table: Arc<ConcurrentPredictorTable>,
    queues: Vec<TenantQueue>,
    pool: JobPool,
    admission: AdmissionControl,
    controller: Mutex<ModeController>,
    obs: Arc<Obs>,
    stats: Mutex<ServiceStats>,
    next_id: AtomicU64,
}

impl RayService {
    /// A service for `tenants` logical clients over the leased scene,
    /// timestamped by the global [`Obs`] clock.
    ///
    /// # Panics
    ///
    /// Panics when the predictor configuration is invalid or its entry
    /// budget does not divide across the configured shards.
    pub fn new(lease: SceneLease, tenants: usize, config: ServiceConfig) -> Self {
        RayService::with_obs(lease, tenants, config, Arc::clone(Obs::global()))
    }

    /// A service timestamped by an explicit [`Obs`] (tests pin a
    /// logical clock here for deterministic latency and deadline
    /// decisions).
    pub fn with_obs(
        lease: SceneLease,
        tenants: usize,
        config: ServiceConfig,
        obs: Arc<Obs>,
    ) -> Self {
        let table = Arc::new(ConcurrentPredictorTable::new(
            config.predictor,
            config.shards,
        ));
        let queues = (0..tenants.max(1))
            .map(|t| TenantQueue::new(t, config.queue_capacity))
            .collect();
        RayService {
            lease,
            table,
            queues,
            pool: JobPool::new(config.jobs),
            admission: AdmissionControl::new(tenants.max(1), config.admission),
            controller: Mutex::new(ModeController::new(config.degrade)),
            obs,
            stats: Mutex::new(ServiceStats::default()),
            next_id: AtomicU64::new(0),
            config,
        }
    }

    /// Number of tenants this service multiplexes.
    pub fn tenants(&self) -> usize {
        self.queues.len()
    }

    /// The scene lease requests trace against.
    pub fn lease(&self) -> &SceneLease {
        &self.lease
    }

    /// The immutable case (scene + BVH).
    pub fn case(&self) -> &Arc<Case> {
        &self.lease.case
    }

    /// The shared predictor table all tenants learn into.
    pub fn table(&self) -> &Arc<ConcurrentPredictorTable> {
        &self.table
    }

    /// Aggregate table statistics (lookups, hits, evictions).
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Lifetime service counters (cloned snapshot).
    pub fn stats(&self) -> ServiceStats {
        self.stats.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Requests currently queued across all tenants.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// The clock all latency and deadline arithmetic reads.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The current reading of the service clock, µs. Deadlines passed to
    /// [`RayService::submit_with_deadline`] are absolute values of this
    /// clock.
    pub fn now_us(&self) -> u64 {
        self.obs.now_us()
    }

    /// The current degradation-ladder mode.
    pub fn mode(&self) -> ServiceMode {
        self.controller
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .mode()
    }

    /// Pins the degradation ladder to `mode` (harness hook: chaos and
    /// A/B runs compare rungs directly). Counted as a transition when it
    /// changes the mode.
    pub fn force_mode(&self, mode: ServiceMode) {
        let transition = self
            .controller
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .force(mode);
        if let Some(t) = transition {
            self.record_transition(t);
        }
    }

    /// Submits `rays` for `tenant` with no deadline. See
    /// [`RayService::submit_with_deadline`].
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range.
    pub fn submit(
        &self,
        tenant: usize,
        class: RequestClass,
        rays: RayBatch,
    ) -> Result<u64, Rejection> {
        self.submit_with_deadline(tenant, class, rays, None)
    }

    /// Submits `rays` for `tenant`, returning the request id, or a
    /// typed [`Rejection`]. `deadline_us` is an absolute reading of the
    /// service clock ([`RayService::now_us`]); admission refuses
    /// deadlines the queue-age estimate already rules out, dispatch
    /// drops requests that expire while queued, and completions past
    /// the deadline count as SLO misses.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range.
    pub fn submit_with_deadline(
        &self,
        tenant: usize,
        class: RequestClass,
        rays: RayBatch,
        deadline_us: Option<u64>,
    ) -> Result<u64, Rejection> {
        let now_us = self.obs.now_us();
        if let Err(retry_after_us) = self.admission.take_token(tenant, now_us) {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.rate_limited += 1;
            drop(stats);
            self.obs.add("serve.rate_limited", 1);
            return Err(Rejection::RateLimited {
                tenant,
                class,
                retry_after_us,
            });
        }
        if let Some(deadline_us) = deadline_us {
            if let Some(estimated_done_us) =
                self.admission
                    .deadline_unmeetable(now_us, self.pending(), deadline_us)
            {
                let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
                stats.rejected_unmeetable += 1;
                drop(stats);
                self.obs.add("serve.rejected_unmeetable", 1);
                return Err(Rejection::DeadlineUnmeetable {
                    tenant,
                    class,
                    deadline_us,
                    estimated_done_us,
                });
            }
        }
        // Check fullness before allocating an id, so shed submissions
        // never consume one (ids stay dense over admitted requests; the
        // re-check inside `push` still guards concurrent submitters).
        if self.queues[tenant].is_full() {
            return Err(self.shed(Backpressure {
                tenant,
                capacity: self.queues[tenant].capacity(),
                depth: self.queues[tenant].len(),
                class,
            }));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let result = self.queues[tenant].push(Request {
            id,
            tenant,
            class,
            rays,
            submitted_us: now_us,
            deadline_us,
        });
        if let Err(bp) = result {
            return Err(self.shed(bp));
        }
        let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.admitted_requests += 1;
        Ok(id)
    }

    /// Accounts one backpressure shed and returns it as a [`Rejection`].
    fn shed(&self, bp: Backpressure) -> Rejection {
        {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.shed_requests += 1;
            stats.classes[bp.class.index()].shed += 1;
        }
        self.obs.add("serve.shed", 1);
        self.obs.add(&format!("serve.shed.{}", bp.class.label()), 1);
        bp.into()
    }

    /// Runs one dispatch round: drains queues fairly (quota per the
    /// current mode), expires stale deadlines, coalesces per class,
    /// Morton-sorts, traces chunks across the pool under fault
    /// isolation, records per-request outcomes, and feeds round health
    /// to the degradation ladder.
    pub fn run_round(&self) -> RoundReport {
        let mode = self.mode();
        let (quota, chunk_rays, predict) = match mode {
            ServiceMode::Full => (self.config.fairness_quota, self.config.chunk_rays, true),
            ServiceMode::NoPredict => (self.config.fairness_quota, self.config.chunk_rays, false),
            ServiceMode::Survival => (
                self.config.degrade.survival_quota,
                self.config.degrade.survival_chunk_rays,
                false,
            ),
        };
        let round_index = {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.rounds += 1;
            stats.mode_rounds[mode.index()] += 1;
            stats.rounds - 1
        };
        let drained = self.drain_fair(quota);
        let mut report = RoundReport {
            mode,
            ..RoundReport::default()
        };
        if drained.is_empty() {
            self.observe_health(0, 0);
            return report;
        }

        let _span = self
            .obs
            .span("serve", "round")
            .arg_u64("requests", drained.len() as u64)
            .arg("mode", mode.label());

        // Expire stale deadlines at dispatch instead of tracing dead
        // work. Every expiry is attributed as a DeadlineExceeded fault.
        let now_us = self.obs.now_us();
        let (expired, live): (Vec<Request>, Vec<Request>) =
            drained.into_iter().partition(|r| r.expired(now_us));
        report.expired = expired.len();
        if !expired.is_empty() {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            for request in &expired {
                stats.expired_requests += 1;
                stats.classes[request.class.index()].expired += 1;
                stats.faults_by_kind[FaultKind::DeadlineExceeded.index()] += 1;
            }
            drop(stats);
            for request in &expired {
                self.obs
                    .add(&format!("serve.expired.{}", request.class.label()), 1);
            }
        }

        let plan = InjectionPlan::from_env();
        let mut bad: u64 = expired.len() as u64;
        for class in RequestClass::ALL {
            let requests: Vec<&Request> = live.iter().filter(|r| r.class == class).collect();
            if requests.is_empty() {
                continue;
            }
            let outcome =
                self.trace_class(class, &requests, &plan, round_index, chunk_rays, predict);
            report.requests += outcome.completed;
            report.failed += outcome.failed;
            report.rays += outcome.rays;
            bad += outcome.bad;
        }
        let outcomes = (report.requests + report.failed + report.expired) as u64;
        self.observe_health(outcomes, bad);
        report
    }

    /// Feeds one round's health to the mode controller and records any
    /// transition it causes.
    fn observe_health(&self, outcomes: u64, bad: u64) {
        let transition = self
            .controller
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .observe_round(outcomes, bad);
        if let Some(t) = transition {
            self.record_transition(t);
        }
    }

    /// Counts and logs a mode transition.
    fn record_transition(&self, t: ModeTransition) {
        {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.mode_transitions += 1;
        }
        self.obs.add("serve.mode.transition", 1);
        self.obs
            .event("serve", "mode_transition")
            .arg("from", t.from.label())
            .arg("to", t.to.label())
            .arg("bad_ratio", format!("{:.4}", t.bad_ratio))
            .emit();
    }

    /// Round-robin drain: one request per tenant per pass, until every
    /// queue is empty or each tenant hit its per-round quota.
    fn drain_fair(&self, quota: usize) -> Vec<Request> {
        let mut drained = Vec::new();
        for _pass in 0..quota.max(1) {
            let mut any = false;
            for queue in &self.queues {
                if let Some(request) = queue.pop() {
                    drained.push(request);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        drained
    }

    /// Coalesces, sorts, chunks and traces one class's requests under
    /// fault isolation.
    fn trace_class(
        &self,
        class: RequestClass,
        requests: &[&Request],
        plan: &InjectionPlan,
        round: u64,
        chunk_rays: usize,
        predict: bool,
    ) -> ClassOutcome {
        // Coalesce into one batch, remembering each request's range.
        let mut coalesced = RayBatch::default();
        let mut starts = Vec::with_capacity(requests.len());
        for request in requests {
            starts.push(coalesced.len());
            coalesced.append(&request.rays);
        }
        let total = coalesced.len();

        let bvh = &self.lease.case.bvh;
        let (sorted, perm) = coalesced.morton_sorted(&bvh.bounds());
        let gather = perm.gather();
        // Map an original ray index back to the request it came from
        // (ranges are contiguous in submission order).
        let ordinal_of =
            |original: usize| -> u32 { (starts.partition_point(|&s| s <= original) - 1) as u32 };
        let chunk = chunk_rays.max(1);
        let chunks: Vec<ChunkPlan> = (0..total)
            .step_by(chunk)
            .map(|start| {
                let range = start..(start + chunk).min(total);
                let mut covered: Vec<u32> = range
                    .clone()
                    .map(|i| ordinal_of(gather[i] as usize))
                    .collect();
                covered.sort_unstable();
                covered.dedup();
                let min_deadline_us = covered
                    .iter()
                    .filter_map(|&ord| requests[ord as usize].deadline_us)
                    .min();
                ChunkPlan {
                    range,
                    covered,
                    min_deadline_us,
                }
            })
            .collect();

        let kind = class.kind();
        let table = &self.table;
        let config = self.config.predictor;
        let retry = self.config.retry;
        let chaos = self.config.chaos;
        let obs = &self.obs;
        // Each chunk attempt runs under `Fault::catch` with injections
        // applied first; a fault is retried (all kinds except
        // DeadlineExceeded) while attempts and the covered requests'
        // deadline budget allow. The closure never panics out, so a
        // poisoned chunk can never abort the dispatch round.
        let results: Vec<(Result<Vec<bool>, Fault>, u32)> = self.pool.map(&chunks, |chunk_plan| {
            let chunk_index = (chunk_plan.range.start / chunk) as u64;
            let mut attempt: u32 = 1;
            loop {
                let outcome = Fault::catch(|| {
                    apply_chunk_injections(plan, &chaos, round, chunk_index, attempt)?;
                    let mut sub = RayBatch::with_capacity(chunk_plan.range.len());
                    for i in chunk_plan.range.clone() {
                        sub.push(sorted.ray(i));
                    }
                    let hits: Vec<bool> = if predict {
                        let mut kernel = Predicted::with_shared_table(
                            bvh,
                            config,
                            Arc::clone(table),
                            StacklessKernel::new(bvh),
                        );
                        kernel
                            .trace_batch(&sub, kind)
                            .iter()
                            .map(|r| r.hit.is_some())
                            .collect()
                    } else {
                        let mut kernel = StacklessKernel::new(bvh);
                        kernel
                            .trace_batch(&sub, kind)
                            .iter()
                            .map(|r| r.hit.is_some())
                            .collect()
                    };
                    Ok(hits)
                });
                let fault = match outcome {
                    Ok(hits) => return (Ok(hits), attempt),
                    Err(fault) => fault,
                };
                if fault.kind == FaultKind::DeadlineExceeded || attempt >= retry.max_attempts.max(1)
                {
                    return (Err(fault), attempt);
                }
                // The clock is only read on the fault path of a
                // deadline-carrying chunk, so fault-free logical-clock
                // runs stay deterministic.
                if let Some(deadline_us) = chunk_plan.min_deadline_us {
                    if obs.now_us() > deadline_us {
                        return (
                            Err(Fault::deadline_exceeded(format!(
                                "retry budget exhausted after {fault} (attempt {attempt})"
                            ))),
                            attempt,
                        );
                    }
                }
                let pause = retry.backoff(attempt + 1, round << 32 | chunk_index);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
            }
        });

        // Assemble hits; attribute failed chunks to the requests they
        // cover (first fault wins per request).
        let mut sorted_hits = vec![false; total];
        let mut request_fault: Vec<Option<FaultKind>> = vec![None; requests.len()];
        let mut retried: u64 = 0;
        for (chunk_plan, (result, attempts)) in chunks.iter().zip(&results) {
            retried += u64::from(attempts.saturating_sub(1));
            match result {
                Ok(hits) => {
                    for (offset, hit) in chunk_plan.range.clone().zip(hits) {
                        sorted_hits[offset] = *hit;
                    }
                }
                Err(fault) => {
                    for &ord in &chunk_plan.covered {
                        request_fault[ord as usize].get_or_insert(fault.kind);
                    }
                    self.obs
                        .add(&format!("serve.chunk_fault.{}", fault.kind.slug()), 1);
                }
            }
        }
        let hits = perm.unsort(&sorted_hits);

        // Account per request: latency runs submission → now (round
        // end), on the service clock.
        let end_us = self.obs.now_us();
        let mut outcome = ClassOutcome::default();
        let slot_index = class.index();
        let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        let mut completed_rays: u64 = 0;
        for (ord, request) in requests.iter().enumerate() {
            let range = starts[ord]..starts.get(ord + 1).copied().unwrap_or(total);
            if let Some(fault_kind) = request_fault[ord] {
                stats.classes[slot_index].failed += 1;
                stats.failed_requests += 1;
                stats.faults_by_kind[fault_kind.index()] += 1;
                outcome.failed += 1;
                continue;
            }
            let latency_us = end_us.saturating_sub(request.submitted_us);
            let slot = &mut stats.classes[slot_index];
            slot.requests += 1;
            slot.rays += range.len() as u64;
            slot.hits += hits[range.clone()].iter().filter(|&&h| h).count() as u64;
            slot.latency_us.record(latency_us);
            if request.deadline_us.is_some_and(|d| end_us > d) {
                slot.deadline_miss += 1;
                stats.deadline_miss_requests += 1;
                outcome.bad += 1;
            }
            completed_rays += range.len() as u64;
            outcome.completed += 1;
            outcome.rays += range.len();
            self.admission.observe_service_us(latency_us.max(1));
        }
        outcome.bad += outcome.failed as u64;
        stats.completed_requests += outcome.completed as u64;
        stats.completed_rays += completed_rays;
        stats.retried_chunks += retried;
        drop(stats);
        self.obs
            .add(&format!("serve.rays.{}", class.label()), completed_rays);
        self.obs.add("serve.requests", outcome.completed as u64);
        if retried > 0 {
            self.obs.add("serve.chunk_retries", retried);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SceneRegistry;
    use rip_exec::{CaseCache, CaseKey};
    use rip_math::{Ray, Vec3};
    use rip_scene::{SceneId, SceneScale};

    fn service(tenants: usize) -> RayService {
        service_with(
            tenants,
            ServiceConfig {
                chunk_rays: 8,
                ..ServiceConfig::default()
            },
        )
    }

    fn service_with(tenants: usize, config: ServiceConfig) -> RayService {
        let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
        let lease = registry.get(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16));
        RayService::new(lease, tenants, config)
    }

    fn down_rays(n: usize, case: &Case) -> RayBatch {
        let bounds = case.bvh.bounds();
        let center = bounds.center();
        (0..n)
            .map(|i| {
                let t = i as f32 / n.max(1) as f32;
                let o = Vec3::new(
                    bounds.min.x + t * (bounds.max.x - bounds.min.x),
                    bounds.max.y + 1.0,
                    center.z,
                );
                Ray::new(o, -Vec3::Y)
            })
            .collect()
    }

    #[test]
    fn round_completes_all_drained_requests() {
        let service = service(3);
        let rays = down_rays(20, service.case());
        for tenant in 0..3 {
            service
                .submit(tenant, RequestClass::Primary, rays.clone())
                .unwrap();
            service
                .submit(tenant, RequestClass::Shadow, rays.clone())
                .unwrap();
        }
        let round = service.run_round();
        assert_eq!(round.requests, 6);
        assert_eq!(round.rays, 120);
        assert_eq!(round.failed, 0);
        assert_eq!(round.expired, 0);
        assert_eq!(round.mode, ServiceMode::Full);
        assert_eq!(service.pending(), 0);
        let stats = service.stats();
        assert_eq!(stats.completed_requests, 6);
        assert_eq!(stats.admitted_requests, 6);
        assert_eq!(stats.classes[RequestClass::Primary.index()].requests, 3);
        assert_eq!(stats.classes[RequestClass::Shadow.index()].requests, 3);
        assert_eq!(
            stats.classes[RequestClass::Primary.index()]
                .latency_us
                .count(),
            3
        );
        // Down rays over the scene must hit something.
        assert!(stats.classes[RequestClass::Primary.index()].hits > 0);
        assert_eq!(stats.availability(), 1.0);
    }

    #[test]
    fn fairness_quota_bounds_a_chatty_tenant() {
        let service = service(2);
        let rays = down_rays(4, service.case());
        for _ in 0..10 {
            service
                .submit(0, RequestClass::AmbientOcclusion, rays.clone())
                .unwrap();
        }
        service
            .submit(1, RequestClass::AmbientOcclusion, rays.clone())
            .unwrap();
        let round = service.run_round();
        // quota 4 for tenant 0 + the single request of tenant 1.
        assert_eq!(round.requests, 5);
        assert_eq!(service.pending(), 6);
    }

    #[test]
    fn shared_table_learns_across_rounds_and_tenants() {
        let service = service(2);
        let rays = down_rays(64, service.case());
        service
            .submit(0, RequestClass::Shadow, rays.clone())
            .unwrap();
        service.run_round();
        let cold = service.table_stats();
        service.submit(1, RequestClass::Shadow, rays).unwrap();
        service.run_round();
        let warm = service.table_stats();
        assert!(
            warm.tag_hits > cold.tag_hits,
            "tenant 1 must hit entries trained by tenant 0 ({} vs {})",
            warm.tag_hits,
            cold.tag_hits
        );
    }

    #[test]
    fn empty_round_is_cheap_and_counted() {
        let service = service(1);
        assert_eq!(service.run_round(), RoundReport::default());
        assert_eq!(service.stats().rounds, 1);
        assert_eq!(service.stats().mode_rounds[ServiceMode::Full.index()], 1);
    }

    #[test]
    fn no_predict_mode_returns_identical_hits() {
        // §4's transparency contract, exploited by the ladder: dropping
        // prediction must not change a single hit.
        let full = service(1);
        let rays = down_rays(64, full.case());
        full.submit(0, RequestClass::Primary, rays.clone()).unwrap();
        full.run_round();
        let full_stats = full.stats();

        let degraded = service(1);
        degraded.force_mode(ServiceMode::NoPredict);
        degraded.submit(0, RequestClass::Primary, rays).unwrap();
        let round = degraded.run_round();
        assert_eq!(round.mode, ServiceMode::NoPredict);
        let degraded_stats = degraded.stats();
        assert_eq!(
            full_stats.classes[RequestClass::Primary.index()].hits,
            degraded_stats.classes[RequestClass::Primary.index()].hits,
        );
        // And the shared table saw no traffic in NoPredict.
        assert_eq!(degraded.table_stats().lookups, 0);
        assert_eq!(degraded_stats.mode_transitions, 1);
    }

    #[test]
    fn survival_mode_shrinks_the_round() {
        let service = service_with(
            2,
            ServiceConfig {
                chunk_rays: 8,
                fairness_quota: 4,
                ..ServiceConfig::default()
            },
        );
        let rays = down_rays(4, service.case());
        for _ in 0..4 {
            service
                .submit(0, RequestClass::Primary, rays.clone())
                .unwrap();
        }
        service.force_mode(ServiceMode::Survival);
        let round = service.run_round();
        // survival_quota (default 1) caps the drain.
        assert_eq!(round.requests, 1);
        assert_eq!(round.mode, ServiceMode::Survival);
        assert_eq!(service.pending(), 3);
    }

    #[test]
    fn expired_requests_are_dropped_not_traced() {
        let service = service(1);
        let rays = down_rays(8, service.case());
        let past = service.now_us().max(1) - 1;
        // Admission only refuses deadlines its estimate rules out; with
        // no completed requests the estimate is `now`, so a deadline of
        // `now - 1` must be refused and one far future admitted.
        assert!(matches!(
            service.submit_with_deadline(0, RequestClass::Primary, rays.clone(), Some(past)),
            Err(Rejection::DeadlineUnmeetable { .. })
        ));
        let id = service
            .submit_with_deadline(0, RequestClass::Primary, rays, Some(u64::MAX))
            .unwrap();
        assert!(id < u64::MAX);
        let round = service.run_round();
        assert_eq!(round.requests, 1);
        assert_eq!(round.expired, 0);
        let stats = service.stats();
        assert_eq!(stats.rejected_unmeetable, 1);
        assert_eq!(stats.expired_requests, 0);
    }

    #[test]
    fn rate_limit_rejects_with_retry_budget() {
        let service = service_with(
            1,
            ServiceConfig {
                chunk_rays: 8,
                admission: AdmissionConfig {
                    rate_per_tenant: 1.0,
                    burst: 1.0,
                },
                ..ServiceConfig::default()
            },
        );
        let rays = down_rays(2, service.case());
        service
            .submit(0, RequestClass::Primary, rays.clone())
            .unwrap();
        let err = service.submit(0, RequestClass::Primary, rays).unwrap_err();
        assert!(matches!(err, Rejection::RateLimited { retry_after_us, .. } if retry_after_us > 0));
        assert_eq!(service.stats().rate_limited, 1);
        // The rejected request never reached a queue.
        assert_eq!(service.pending(), 1);
    }

    #[test]
    fn injected_chunk_panics_fail_requests_not_rounds() {
        // All chunks panic on every attempt: each request must fail with
        // a typed Panic fault, and the round itself must complete.
        let service = service_with(
            2,
            ServiceConfig {
                chunk_rays: 8,
                chaos: ChaosConfig {
                    panic_rate: 1.0,
                    panic_attempts: u32::MAX,
                    seed: 9,
                    ..ChaosConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let rays = down_rays(16, service.case());
        for tenant in 0..2 {
            service
                .submit(tenant, RequestClass::Primary, rays.clone())
                .unwrap();
        }
        let round = service.run_round();
        assert_eq!(round.requests, 0);
        assert_eq!(round.failed, 2);
        let stats = service.stats();
        assert_eq!(stats.failed_requests, 2);
        assert_eq!(stats.faults_by_kind[FaultKind::Panic.index()], 2);
        assert_eq!(stats.completed_requests, 0);
        // Retries were attempted before giving up.
        assert!(stats.retried_chunks > 0);
    }

    #[test]
    fn flaky_chunks_recover_within_retry_budget() {
        // Every chunk fails once then succeeds: with max_attempts 3 the
        // round completes everything, counting the retries.
        let service = service_with(
            1,
            ServiceConfig {
                chunk_rays: 8,
                chaos: ChaosConfig {
                    flaky_rate: 1.0,
                    flaky_attempts: 1,
                    seed: 5,
                    ..ChaosConfig::default()
                },
                ..ServiceConfig::default()
            },
        );
        let rays = down_rays(32, service.case());
        service.submit(0, RequestClass::Primary, rays).unwrap();
        let round = service.run_round();
        assert_eq!(round.requests, 1);
        assert_eq!(round.failed, 0);
        let stats = service.stats();
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(
            stats.retried_chunks, 4,
            "4 chunks of 8 rays, one retry each"
        );
    }

    #[test]
    fn sustained_failures_walk_the_ladder_down() {
        let service = service_with(
            1,
            ServiceConfig {
                chunk_rays: 8,
                chaos: ChaosConfig {
                    panic_rate: 1.0,
                    seed: 3,
                    ..ChaosConfig::default()
                },
                degrade: DegradeConfig {
                    window_rounds: 2,
                    cooldown_rounds: 1,
                    ..DegradeConfig::default()
                },
                retry: RetryPolicy::none(),
                ..ServiceConfig::default()
            },
        );
        let rays = down_rays(8, service.case());
        for _ in 0..8 {
            let _ = service.submit(0, RequestClass::Primary, rays.clone());
            service.run_round();
        }
        assert_eq!(service.mode(), ServiceMode::Survival);
        let stats = service.stats();
        assert!(stats.mode_transitions >= 2);
        assert!(stats.mode_rounds[ServiceMode::Full.index()] >= 2);
        assert!(stats.mode_rounds[ServiceMode::Survival.index()] >= 1);
    }
}
