//! End-to-end request-lifecycle tests on a deterministic logical
//! clock.
//!
//! Every service here is pinned to its own `Obs` with
//! `ClockMode::Logical` (each clock read returns the next tick), so
//! latency and deadline decisions are pure functions of the call
//! sequence — no wall-clock flakiness, byte-stable assertions.

use rip_bvh::RayBatch;
use rip_exec::{CaseCache, CaseKey, FaultKind};
use rip_math::{Ray, Vec3};
use rip_obs::{ClockMode, Obs};
use rip_scene::{SceneId, SceneScale};
use rip_serve::{
    AdmissionConfig, ChaosConfig, RayService, Rejection, RequestClass, SceneRegistry,
    ServiceConfig, ServiceMode,
};
use std::sync::Arc;

fn logical_service(tenants: usize, config: ServiceConfig) -> RayService {
    let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
    let lease = registry.get(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16));
    RayService::with_obs(
        lease,
        tenants,
        config,
        Arc::new(Obs::new(ClockMode::Logical)),
    )
}

fn down_rays(n: usize, service: &RayService) -> RayBatch {
    let bounds = service.case().bvh.bounds();
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
fn queued_requests_expire_deterministically_at_dispatch() {
    let service = logical_service(
        1,
        ServiceConfig {
            chunk_rays: 8,
            ..ServiceConfig::default()
        },
    );
    let rays = down_rays(8, &service);
    // Admitted with a deadline a few ticks out...
    let deadline = service.now_us() + 4;
    service
        .submit_with_deadline(0, RequestClass::Primary, rays, Some(deadline))
        .unwrap();
    // ...then the clock ticks past it while the request sits queued.
    while service.now_us() <= deadline {}
    let round = service.run_round();
    assert_eq!(round.expired, 1);
    assert_eq!(round.requests, 0);
    assert_eq!(round.rays, 0, "expired requests are never traced");
    let stats = service.stats();
    assert_eq!(stats.expired_requests, 1);
    assert_eq!(stats.classes[RequestClass::Primary.index()].expired, 1);
    assert_eq!(
        stats.faults_by_kind[FaultKind::DeadlineExceeded.index()],
        1,
        "expiry must be attributed as a typed DeadlineExceeded fault"
    );
    assert_eq!(stats.availability(), 0.0);
}

#[test]
fn late_completion_counts_as_deadline_miss_not_expiry() {
    let service = logical_service(
        1,
        ServiceConfig {
            chunk_rays: 8,
            ..ServiceConfig::default()
        },
    );
    let rays = down_rays(8, &service);
    // Three ticks of budget: alive at the dispatch expiry check (the
    // round's span open and expiry read burn two), but the completion
    // read lands past it.
    let deadline = service.now_us() + 3;
    service
        .submit_with_deadline(0, RequestClass::Primary, rays, Some(deadline))
        .unwrap();
    let round = service.run_round();
    assert_eq!(round.requests, 1, "the request completes");
    assert_eq!(round.expired, 0);
    let stats = service.stats();
    assert_eq!(stats.completed_requests, 1);
    assert_eq!(stats.deadline_miss_requests, 1, "but it completed late");
    assert_eq!(
        stats.classes[RequestClass::Primary.index()].deadline_miss,
        1
    );
    assert_eq!(stats.availability(), 0.0);
}

#[test]
fn identical_logical_runs_produce_identical_stats() {
    // The determinism claim behind RIP_TRACE_CLOCK=logical: the same
    // submission/round sequence yields bit-identical accounting,
    // latencies included.
    let run = || {
        let service = logical_service(
            2,
            ServiceConfig {
                chunk_rays: 8,
                ..ServiceConfig::default()
            },
        );
        let rays = down_rays(24, &service);
        for tenant in 0..2 {
            service
                .submit(tenant, RequestClass::Primary, rays.clone())
                .unwrap();
            let deadline = service.now_us() + 50;
            service
                .submit_with_deadline(tenant, RequestClass::Shadow, rays.clone(), Some(deadline))
                .unwrap();
        }
        service.run_round();
        service.run_round();
        service.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed_requests, b.completed_requests);
    assert_eq!(a.deadline_miss_requests, b.deadline_miss_requests);
    assert_eq!(a.faults_by_kind, b.faults_by_kind);
    for class in RequestClass::ALL {
        let (ca, cb) = (&a.classes[class.index()], &b.classes[class.index()]);
        assert_eq!(ca.hits, cb.hits, "{}", class.label());
        assert_eq!(ca.latency_us.count(), cb.latency_us.count());
        assert_eq!(ca.latency_us.max(), cb.latency_us.max());
        assert_eq!(ca.latency_us.p50(), cb.latency_us.p50());
        assert_eq!(
            ca.latency_us.mean(),
            cb.latency_us.mean(),
            "logical-clock latencies must be bit-identical ({})",
            class.label()
        );
    }
}

#[test]
fn degraded_modes_return_bit_identical_hits_under_deadlines() {
    // The §4 transparency contract survives the whole ladder: a
    // deadline-carrying workload completes with identical hit counts in
    // Full, NoPredict, and Survival.
    let hits_in = |mode: ServiceMode| {
        let service = logical_service(
            1,
            ServiceConfig {
                chunk_rays: 8,
                ..ServiceConfig::default()
            },
        );
        service.force_mode(mode);
        let rays = down_rays(48, &service);
        let deadline = service.now_us() + 10_000;
        service
            .submit_with_deadline(0, RequestClass::Primary, rays, Some(deadline))
            .unwrap();
        while service.pending() > 0 {
            service.run_round();
        }
        let stats = service.stats();
        assert_eq!(stats.completed_requests, 1, "{mode}");
        assert_eq!(stats.failed_requests, 0, "{mode}");
        stats.classes[RequestClass::Primary.index()].hits
    };
    let full = hits_in(ServiceMode::Full);
    assert_eq!(full, hits_in(ServiceMode::NoPredict));
    assert_eq!(full, hits_in(ServiceMode::Survival));
    assert!(full > 0, "down rays must hit the scene");
}

#[test]
fn chaos_panics_are_contained_and_attributed_under_deadlines() {
    // 100% panic injection with deadlines: every request must reach a
    // typed terminal outcome (failed or expired — never a hang, never a
    // poisoned round), and the taxonomy must account for each one.
    let service = logical_service(
        2,
        ServiceConfig {
            chunk_rays: 8,
            chaos: ChaosConfig {
                panic_rate: 1.0,
                panic_attempts: u32::MAX,
                seed: 17,
                ..ChaosConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let rays = down_rays(16, &service);
    for tenant in 0..2 {
        let deadline = service.now_us() + 10_000;
        service
            .submit_with_deadline(tenant, RequestClass::Shadow, rays.clone(), Some(deadline))
            .unwrap();
    }
    let round = service.run_round();
    assert_eq!(round.failed + round.expired, 2);
    assert_eq!(service.pending(), 0);
    let stats = service.stats();
    assert_eq!(stats.finished_requests(), 2);
    assert_eq!(
        stats.faults_by_kind.iter().sum::<u64>(),
        2,
        "every failure carries exactly one typed fault"
    );
    assert!(stats.faults_by_kind[FaultKind::Panic.index()] > 0);
}

#[test]
fn rejections_never_consume_request_ids() {
    // A rejected submission must not burn an id or touch a queue — ids
    // stay dense over admitted requests only (replayable logs depend on
    // it). The token bucket holds exactly the four tokens the valid
    // submissions take and never refills, so an invalid-ray request
    // that consumed a token would rate-limit the last submission.
    let service = logical_service(
        1,
        ServiceConfig {
            chunk_rays: 8,
            queue_capacity: 1,
            admission: AdmissionConfig {
                rate_per_tenant: 1e-3,
                burst: 4.0,
            },
            ..ServiceConfig::default()
        },
    );
    let rays = down_rays(4, &service);
    let refuse_poisoned = |index: usize, poison: fn(&mut Ray)| {
        let mut batch = rays.to_rays();
        poison(&mut batch[index]);
        let err = service
            .submit(0, RequestClass::Primary, RayBatch::from_rays(&batch))
            .unwrap_err();
        assert_eq!(
            err,
            Rejection::InvalidRay {
                tenant: 0,
                class: RequestClass::Primary,
                index
            }
        );
    };
    refuse_poisoned(0, |r| r.origin.x = f32::NAN);
    refuse_poisoned(1, |r| r.origin.z = f32::INFINITY);
    refuse_poisoned(2, |r| r.direction.y = f32::NEG_INFINITY);
    refuse_poisoned(3, |r| r.direction = Vec3::ZERO);
    refuse_poisoned(1, |r| r.t_min = f32::NAN);
    refuse_poisoned(2, |r| r.t_max = f32::NAN);
    refuse_poisoned(3, |r| (r.t_min, r.t_max) = (2.0, 1.0));
    let first = service
        .submit(0, RequestClass::Primary, rays.clone())
        .unwrap();
    assert_eq!(first, 0);
    // Queue of 1 is full: backpressure.
    let err = service
        .submit(0, RequestClass::Primary, rays.clone())
        .unwrap_err();
    assert!(matches!(err, Rejection::Backpressure(_)));
    // A deadline in the past: unmeetable.
    let err = service
        .submit_with_deadline(0, RequestClass::Shadow, rays.clone(), Some(0))
        .unwrap_err();
    assert!(matches!(err, Rejection::DeadlineUnmeetable { .. }));
    service.run_round();
    let second = service.submit(0, RequestClass::Primary, rays).unwrap();
    assert_eq!(second, 1, "rejections must not consume ids");
    let stats = service.stats();
    assert_eq!(stats.admitted_requests, 2);
    assert_eq!(stats.shed_requests, 1);
    assert_eq!(stats.rejected_unmeetable, 1);
    assert_eq!(stats.rejected_invalid, 7);
    assert_eq!(stats.rate_limited, 0);
    assert_eq!(service.obs().get("serve.rejected_invalid"), 7);
}
