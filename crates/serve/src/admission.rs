//! Admission control: per-tenant token buckets and a queue-age
//! estimator.
//!
//! Admission is the cheapest place to refuse work: a request rejected
//! here costs a hash-map lookup, one rejected at the queue costs an
//! allocation, and one expired at dispatch costs a full queue
//! round-trip. Two mechanisms run at admission, both deterministic
//! given the service clock:
//!
//! * **Token bucket** per tenant — `rate` tokens/second refilled
//!   continuously, holding at most `burst`. A tenant submitting faster
//!   than its contracted rate sees [`Rejection::RateLimited`] with a
//!   computed `retry_after_us` instead of silently filling the shared
//!   dispatch rounds. Rate `0` disables the bucket (the default — the
//!   seed service had no admission contract, and tests rely on that).
//! * **Queue-age estimate** — an EWMA of per-request service time
//!   (each request's share of its class round's dispatch → completion
//!   time, so queue wait is not in it) times the number of queued
//!   requests ahead, plus one. A deadline the estimate already rules out is rejected as
//!   [`Rejection::DeadlineUnmeetable`] rather than queued as dead work.
//!   The estimate is intentionally conservative only about *obviously*
//!   hopeless deadlines: with no completed requests yet there is no
//!   estimate and only already-passed deadlines are refused.
//!
//! [`Rejection::RateLimited`]: crate::Rejection::RateLimited
//! [`Rejection::DeadlineUnmeetable`]: crate::Rejection::DeadlineUnmeetable

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Admission knobs for a service (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Sustained admission rate per tenant, requests/second. `0.0`
    /// disables rate limiting entirely.
    pub rate_per_tenant: f64,
    /// Token-bucket burst capacity (tokens; min 1 when rate limiting is
    /// on).
    pub burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_per_tenant: 0.0,
            burst: 8.0,
        }
    }
}

/// One tenant's token bucket, refilled lazily from clock readings.
#[derive(Debug)]
struct Bucket {
    /// Tokens available (at `last_us`).
    tokens: f64,
    /// Clock reading of the last refill.
    last_us: u64,
}

/// Per-tenant token buckets plus the shared service-time estimator.
#[derive(Debug)]
pub struct AdmissionControl {
    config: AdmissionConfig,
    buckets: Vec<Mutex<Bucket>>,
    /// EWMA of per-request service time (a request's share of its class
    /// round's dispatch → completion time), µs; 0 = no samples yet.
    ewma_service_us: AtomicU64,
}

impl AdmissionControl {
    /// Admission state for `tenants` clients under `config`.
    pub fn new(tenants: usize, config: AdmissionConfig) -> Self {
        AdmissionControl {
            config,
            buckets: (0..tenants.max(1))
                .map(|_| {
                    Mutex::new(Bucket {
                        tokens: config.burst.max(1.0),
                        last_us: 0,
                    })
                })
                .collect(),
            ewma_service_us: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Takes one token from `tenant`'s bucket at clock reading
    /// `now_us`. `Ok` admits; `Err(retry_after_us)` is the clock budget
    /// until a token will exist.
    pub fn take_token(&self, tenant: usize, now_us: u64) -> Result<(), u64> {
        let rate = self.config.rate_per_tenant;
        if rate <= 0.0 {
            return Ok(());
        }
        let burst = self.config.burst.max(1.0);
        let mut bucket = self.buckets[tenant]
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let elapsed_us = now_us.saturating_sub(bucket.last_us);
        bucket.tokens = (bucket.tokens + elapsed_us as f64 * rate / 1e6).min(burst);
        bucket.last_us = now_us;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err((deficit * 1e6 / rate).ceil() as u64)
        }
    }

    /// Records one completed request's service time into the EWMA
    /// (α = 1/8). The service passes the request's share of its class
    /// round's dispatch → completion time: a queue-inclusive latency
    /// would count the wait ahead twice once multiplied by the queue.
    pub fn observe_service_us(&self, service_us: u64) {
        // Racy read-modify-write is fine: this is a smoothing estimate,
        // not an invariant counter.
        let old = self.ewma_service_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            service_us.max(1)
        } else {
            (old - old / 8 + service_us / 8).max(1)
        };
        self.ewma_service_us.store(new, Ordering::Relaxed);
    }

    /// The current service-time estimate (µs; 0 until a request has
    /// completed).
    pub fn estimated_service_us(&self) -> u64 {
        self.ewma_service_us.load(Ordering::Relaxed)
    }

    /// Estimated completion time (clock µs) for a request admitted at
    /// `now_us` with `queued_ahead` requests already pending.
    pub fn estimated_done_us(&self, now_us: u64, queued_ahead: usize) -> u64 {
        now_us.saturating_add(
            self.estimated_service_us()
                .saturating_mul(queued_ahead.saturating_add(1) as u64),
        )
    }

    /// Whether a request with absolute `deadline_us` admitted at
    /// `now_us` behind `queued_ahead` requests is already hopeless.
    /// Returns the offending estimate when it is.
    pub fn deadline_unmeetable(
        &self,
        now_us: u64,
        queued_ahead: usize,
        deadline_us: u64,
    ) -> Option<u64> {
        let estimated = self.estimated_done_us(now_us, queued_ahead);
        (deadline_us < estimated).then_some(estimated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_disables_the_bucket() {
        let admission = AdmissionControl::new(1, AdmissionConfig::default());
        for now in 0..100 {
            assert!(admission.take_token(0, now).is_ok());
        }
    }

    #[test]
    fn bucket_empties_and_refills_on_schedule() {
        let admission = AdmissionControl::new(
            2,
            AdmissionConfig {
                rate_per_tenant: 1.0, // 1 req/s = 1 token per 1e6 µs
                burst: 2.0,
            },
        );
        assert!(admission.take_token(0, 0).is_ok());
        assert!(admission.take_token(0, 0).is_ok());
        let retry = admission.take_token(0, 0).unwrap_err();
        assert_eq!(retry, 1_000_000, "one full token must regenerate");
        // Tenant buckets are independent.
        assert!(admission.take_token(1, 0).is_ok());
        // Half a second later: still a fractional token short.
        let retry = admission.take_token(0, 500_000).unwrap_err();
        assert_eq!(retry, 500_000);
        // A full second after the empty-bucket read: admitted again.
        assert!(admission.take_token(0, 1_500_000).is_ok());
    }

    #[test]
    fn deadline_estimate_needs_history() {
        let admission = AdmissionControl::new(1, AdmissionConfig::default());
        // No completed requests: only the trivial estimate (now) exists,
        // so any future deadline is admitted.
        assert_eq!(admission.deadline_unmeetable(100, 50, 101), None);
        assert_eq!(
            admission.deadline_unmeetable(100, 0, 99),
            Some(100),
            "a deadline already in the past is always unmeetable"
        );
        admission.observe_service_us(40);
        assert_eq!(admission.estimated_service_us(), 40);
        // 3 queued ahead + self = 4 * 40 µs = done at now+160.
        assert_eq!(admission.estimated_done_us(1000, 3), 1160);
        assert_eq!(admission.deadline_unmeetable(1000, 3, 1100), Some(1160));
        assert_eq!(admission.deadline_unmeetable(1000, 3, 1160), None);
    }

    #[test]
    fn ewma_converges_toward_recent_samples() {
        let admission = AdmissionControl::new(1, AdmissionConfig::default());
        admission.observe_service_us(800);
        for _ in 0..64 {
            admission.observe_service_us(100);
        }
        let est = admission.estimated_service_us();
        assert!(est < 200, "EWMA stuck high: {est}");
        assert!(est >= 87, "EWMA must stay near the steady state: {est}");
    }
}
