//! Bounded per-tenant request queues, deadlines, and typed rejection.
//!
//! The front-end is *open-loop*: tenants submit on their own schedule,
//! regardless of how fast the service drains. An unbounded queue would
//! hide overload as unbounded latency; a bounded queue surfaces it
//! immediately as [`Backpressure`], which the load generator counts as
//! a shed request — the honest failure mode for a saturated service.
//!
//! Every [`Request`] may carry a *deadline*: an absolute reading of the
//! service's [`rip_obs::Clock`] after which its result is dead on
//! arrival. Deadlines are enforced three times, each with a distinct
//! typed outcome ([`Rejection`] at admission, a
//! [`FaultKind::DeadlineExceeded`](rip_exec::FaultKind) attribution
//! later):
//!
//! 1. at **admission** — a deadline the queue-age estimate already rules
//!    out is rejected immediately ([`Rejection::DeadlineUnmeetable`]);
//! 2. at **dispatch** — a request that expired while queued is dropped
//!    instead of tracing dead work;
//! 3. at **completion** — a request that finished late still returns its
//!    result but counts as a deadline miss in the SLO accounting.
//!
//! All timestamps are `u64` microsecond readings of the owning
//! service's clock (never raw `std::time::Instant`), so
//! `RIP_TRACE_CLOCK=logical` runs make every latency and deadline
//! decision deterministically.

use rip_bvh::{RayBatch, TraversalKind};
use std::collections::VecDeque;
use std::sync::Mutex;

/// The traffic classes the service distinguishes (each gets its own
/// latency histogram and coalesced batch per dispatch round).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Camera rays; closest-hit traversal.
    Primary,
    /// Ambient-occlusion probe rays; any-hit segments (§5.2 workload).
    AmbientOcclusion,
    /// Point-light shadow rays; any-hit segments.
    Shadow,
}

impl RequestClass {
    /// Every class, in stable report order.
    pub const ALL: [RequestClass; 3] = [
        RequestClass::Primary,
        RequestClass::AmbientOcclusion,
        RequestClass::Shadow,
    ];

    /// Stable lowercase label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RequestClass::Primary => "primary",
            RequestClass::AmbientOcclusion => "ao",
            RequestClass::Shadow => "shadow",
        }
    }

    /// The traversal kind this class requires.
    pub fn kind(&self) -> TraversalKind {
        match self {
            RequestClass::Primary => TraversalKind::ClosestHit,
            RequestClass::AmbientOcclusion | RequestClass::Shadow => TraversalKind::AnyHit,
        }
    }

    /// Stable index into per-class arrays (matches [`RequestClass::ALL`]).
    pub fn index(&self) -> usize {
        match self {
            RequestClass::Primary => 0,
            RequestClass::AmbientOcclusion => 1,
            RequestClass::Shadow => 2,
        }
    }
}

/// One submitted request: a batch of rays from one tenant, one class.
#[derive(Clone, Debug)]
pub struct Request {
    /// Monotone request id assigned at submission.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: usize,
    /// Traffic class.
    pub class: RequestClass,
    /// The rays to trace.
    pub rays: RayBatch,
    /// Service-clock reading at admission (latency is measured from
    /// here to the end of the dispatch round that traced the request).
    pub submitted_us: u64,
    /// Absolute service-clock deadline, if any. A queued request whose
    /// deadline passes is expired at dispatch; a traced one that beats
    /// the dispatch check but completes late counts as a deadline miss.
    pub deadline_us: Option<u64>,
}

impl Request {
    /// Whether the deadline (if any) has passed at clock reading `now_us`.
    pub fn expired(&self, now_us: u64) -> bool {
        self.deadline_us.is_some_and(|d| now_us > d)
    }

    /// Clock budget left before the deadline (`None` = unbounded;
    /// `Some(0)` = already expired).
    pub fn remaining_us(&self, now_us: u64) -> Option<u64> {
        self.deadline_us.map(|d| d.saturating_sub(now_us))
    }
}

/// The queue for `tenant` is full: the request was shed, not enqueued.
///
/// Carries the shed-time context — queue depth and the request's class —
/// so shed telemetry can distinguish a chatty tenant (depth at
/// capacity, one class dominating) from a slow dispatcher (every class
/// shedding at once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// The tenant whose queue rejected the request.
    pub tenant: usize,
    /// The queue's capacity at rejection time.
    pub capacity: usize,
    /// Requests sitting in the queue when the shed happened.
    pub depth: usize,
    /// The class of the request that was shed.
    pub class: RequestClass,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {} queue full ({} of capacity {}) shedding {} request",
            self.tenant,
            self.depth,
            self.capacity,
            self.class.label()
        )
    }
}

impl std::error::Error for Backpressure {}

/// Why a submission was refused. Each variant is a *different* signal
/// to the client: fix the rays ([`Rejection::InvalidRay`]), back off
/// ([`Rejection::Backpressure`]), slow down
/// ([`Rejection::RateLimited`]), or loosen the deadline
/// ([`Rejection::DeadlineUnmeetable`]) — conflating them (the seed
/// behaviour: shed-on-full was the only failure mode) hides which knob
/// is saturated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rejection {
    /// A ray cannot be traced: it has a non-finite origin or direction
    /// component, a zero direction, a NaN `t_min` or `t_max`, or
    /// `t_min > t_max`. Refused before any of it reaches the ray hash
    /// or the shared predictor table.
    InvalidRay {
        /// The submitting tenant.
        tenant: usize,
        /// Class of the refused request.
        class: RequestClass,
        /// Index of the first invalid ray in the submitted batch.
        index: usize,
    },
    /// The tenant's bounded queue is full.
    Backpressure(Backpressure),
    /// The tenant's admission token bucket is empty.
    RateLimited {
        /// The rate-limited tenant.
        tenant: usize,
        /// Class of the refused request.
        class: RequestClass,
        /// Clock µs until a token will be available again.
        retry_after_us: u64,
    },
    /// The requested deadline cannot be met: it already passed, or the
    /// queue-age estimate puts completion past it. Rejecting at
    /// admission beats tracing work that is dead on arrival.
    DeadlineUnmeetable {
        /// The submitting tenant.
        tenant: usize,
        /// Class of the refused request.
        class: RequestClass,
        /// The deadline that was asked for (absolute clock µs).
        deadline_us: u64,
        /// When the service estimates the request would have completed.
        estimated_done_us: u64,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::InvalidRay {
                tenant,
                class,
                index,
            } => write!(
                f,
                "tenant {tenant} {} request has an invalid ray at index {index}",
                class.label()
            ),
            Rejection::Backpressure(bp) => bp.fmt(f),
            Rejection::RateLimited {
                tenant,
                class,
                retry_after_us,
            } => write!(
                f,
                "tenant {tenant} rate-limited ({} request, retry in {retry_after_us} us)",
                class.label()
            ),
            Rejection::DeadlineUnmeetable {
                tenant,
                class,
                deadline_us,
                estimated_done_us,
            } => write!(
                f,
                "tenant {tenant} {} deadline {deadline_us} us unmeetable \
                 (estimated completion {estimated_done_us} us)",
                class.label()
            ),
        }
    }
}

impl std::error::Error for Rejection {}

impl From<Backpressure> for Rejection {
    fn from(bp: Backpressure) -> Self {
        Rejection::Backpressure(bp)
    }
}

/// A bounded FIFO of pending requests for one tenant.
#[derive(Debug)]
pub struct TenantQueue {
    tenant: usize,
    capacity: usize,
    pending: Mutex<VecDeque<Request>>,
}

impl TenantQueue {
    /// An empty queue for `tenant` holding at most `capacity` requests.
    pub fn new(tenant: usize, capacity: usize) -> Self {
        TenantQueue {
            tenant,
            capacity: capacity.max(1),
            pending: Mutex::new(VecDeque::new()),
        }
    }

    /// The owning tenant.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Maximum requests held at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a request, or sheds it with [`Backpressure`] when full.
    pub fn push(&self, request: Request) -> Result<(), Backpressure> {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        if pending.len() >= self.capacity {
            return Err(Backpressure {
                tenant: self.tenant,
                capacity: self.capacity,
                depth: pending.len(),
                class: request.class,
            });
        }
        pending.push_back(request);
        Ok(())
    }

    /// Dequeues the oldest pending request.
    pub fn pop(&self) -> Option<Request> {
        self.pending
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_front()
    }

    /// Whether the queue is at capacity (the next push would shed).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.pending.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(tenant: usize, id: u64) -> Request {
        Request {
            id,
            tenant,
            class: RequestClass::Primary,
            rays: RayBatch::default(),
            submitted_us: 0,
            deadline_us: None,
        }
    }

    #[test]
    fn bounded_queue_sheds_when_full() {
        let q = TenantQueue::new(3, 2);
        q.push(request(3, 0)).unwrap();
        q.push(request(3, 1)).unwrap();
        let err = q.push(request(3, 2)).unwrap_err();
        assert_eq!(
            err,
            Backpressure {
                tenant: 3,
                capacity: 2,
                depth: 2,
                class: RequestClass::Primary,
            }
        );
        // Draining frees capacity again, FIFO order.
        assert_eq!(q.pop().unwrap().id, 0);
        q.push(request(3, 2)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn class_metadata_is_stable() {
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
        assert_eq!(RequestClass::Primary.kind(), TraversalKind::ClosestHit);
        assert_eq!(RequestClass::Shadow.kind(), TraversalKind::AnyHit);
        assert_eq!(RequestClass::AmbientOcclusion.label(), "ao");
    }

    #[test]
    fn deadlines_expire_and_budget() {
        let mut r = request(0, 0);
        assert!(!r.expired(u64::MAX), "no deadline never expires");
        assert_eq!(r.remaining_us(100), None);
        r.deadline_us = Some(50);
        assert!(!r.expired(50), "deadline instant itself still counts");
        assert!(r.expired(51));
        assert_eq!(r.remaining_us(30), Some(20));
        assert_eq!(r.remaining_us(80), Some(0));
    }

    #[test]
    fn rejection_messages_name_the_cause() {
        let bp: Rejection = Backpressure {
            tenant: 1,
            capacity: 4,
            depth: 4,
            class: RequestClass::Shadow,
        }
        .into();
        assert!(bp.to_string().contains("queue full"));
        assert!(bp.to_string().contains("shadow"));
        let rl = Rejection::RateLimited {
            tenant: 2,
            class: RequestClass::Primary,
            retry_after_us: 900,
        };
        assert!(rl.to_string().contains("rate-limited"));
        let dl = Rejection::DeadlineUnmeetable {
            tenant: 0,
            class: RequestClass::AmbientOcclusion,
            deadline_us: 10,
            estimated_done_us: 90,
        };
        assert!(dl.to_string().contains("unmeetable"));
        let invalid = Rejection::InvalidRay {
            tenant: 0,
            class: RequestClass::Primary,
            index: 3,
        };
        assert!(invalid.to_string().contains("invalid ray at index 3"));
    }
}
