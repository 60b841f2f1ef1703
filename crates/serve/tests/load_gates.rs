//! Open-loop load gates on the service's reference workload.
//!
//! Every test drives the same workload through [`loadgen::run`]: SB
//! tiny at a 64² viewport, 2 tenants × 50 req/s × 256 rays over a 0.3 s
//! submission window, on an in-memory case cache and a service-owned
//! wall clock (deadlines are wall time whatever `RIP_TRACE_CLOCK` says).
//! One test per configuration:
//!
//! * the chaos plan (10% panicking and 10% slow chunks) must conserve
//!   outcomes, attribute every failure to a typed fault and keep
//!   availability at or above 0.95 — and returning at all is the
//!   zero-aborts check, since a panic escaping containment would crash
//!   the dispatch round;
//! * a plan whose panicking chunks fail on every attempt must fail some
//!   requests and still attribute each failure to a typed fault (the
//!   chaos plan's panics all recover on retry, so its attribution check
//!   alone counts no failures);
//! * with injection off and a 250 ms deadline the run must stay
//!   fault-free: full availability, no retries, no mode transitions;
//! * with injection off and no deadline the run must trace rays and
//!   report ordered per-class latency percentiles.
//!
//! The tests take turns on one lock: each gate asserts on wall-clock
//! deadlines, so two loads sharing the CPU would measure each other.

use rip_exec::{CaseCache, CaseKey};
use rip_obs::{ClockMode, Obs};
use rip_scene::{SceneId, SceneScale};
use rip_serve::loadgen::{self, LoadGenConfig, LoadReport};
use rip_serve::{ChaosConfig, RayService, SceneRegistry, ServiceConfig, ServiceMode};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

/// The chaos plan's selection seed, also its load-generator seed.
const CHAOS_SEED: u64 = 0xC4A05;
/// The load-generator seed of the injection-free runs.
const CLEAN_SEED: u64 = 0x5EED;
const DEADLINE: Duration = Duration::from_millis(250);
const AVAILABILITY_FLOOR: f64 = 0.95;

static ONE_LOAD_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs the reference workload under `chaos` with the given deadline
/// and load seed.
fn run_load(chaos: ChaosConfig, deadline: Option<Duration>, seed: u64) -> LoadReport {
    let _turn = ONE_LOAD_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    let registry = SceneRegistry::new(Arc::new(CaseCache::in_memory_only()));
    let lease = registry.get(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 64));
    let service = RayService::with_obs(
        lease,
        2,
        ServiceConfig {
            chaos,
            ..ServiceConfig::default()
        },
        Arc::new(Obs::new(ClockMode::Wall)),
    );
    let report = loadgen::run(
        &service,
        &LoadGenConfig {
            tenants: 2,
            rate: 50.0,
            rays_per_request: 256,
            duration: Duration::from_millis(300),
            deadline,
            seed,
        },
    );
    assert_eq!(service.pending(), 0, "the drain must finish empty");
    report
}

/// Keeps the injected panics, which the service contains, from running
/// the default hook inside a timed chunk: under `RUST_BACKTRACE=1` a
/// debug build prints a backtrace per panic, which raised the worst
/// request latency from about 11 ms to 55 ms on a 2-vCPU host. Every
/// other panic keeps the default report.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.starts_with("chaos: injected panic") {
                default_hook(info);
            }
        }));
    });
}

#[test]
fn chaos_plan_conserves_outcomes_and_holds_availability() {
    quiet_injected_panics();
    let chaos = ChaosConfig {
        panic_rate: 0.1,
        panic_attempts: 1,
        slow_rate: 0.1,
        slow_ms: 2,
        flaky_rate: 0.0,
        flaky_attempts: 1,
        seed: CHAOS_SEED,
    };
    let report = run_load(chaos, Some(DEADLINE), CHAOS_SEED);
    assert!(report.offered_requests > 0, "no load offered");
    let outcomes = report.completed_requests
        + report.shed_requests
        + report.rate_limited
        + report.rejected_unmeetable
        + report.expired_requests
        + report.failed_requests;
    assert_eq!(
        outcomes, report.offered_requests,
        "every offered request reaches exactly one typed outcome: {report:?}"
    );
    assert_eq!(
        report.faults_by_kind.iter().sum::<u64>(),
        report.failed_requests + report.expired_requests,
        "every failed or expired request carries one typed fault: {report:?}"
    );
    assert!(
        report.availability >= AVAILABILITY_FLOOR,
        "availability {} below the {AVAILABILITY_FLOOR} floor: {report:?}",
        report.availability
    );
}

#[test]
fn poisoned_chunks_fail_requests_with_typed_faults() {
    quiet_injected_panics();
    // A quarter of the chunks panic on every attempt, so retries cannot
    // save them and the attribution check has failures to count.
    let chaos = ChaosConfig {
        panic_rate: 0.25,
        panic_attempts: u32::MAX,
        seed: CHAOS_SEED,
        ..ChaosConfig::default()
    };
    let report = run_load(chaos, Some(DEADLINE), CHAOS_SEED);
    assert!(
        report.failed_requests > 0,
        "no chunk stayed poisoned: {report:?}"
    );
    let outcomes = report.completed_requests
        + report.shed_requests
        + report.rate_limited
        + report.rejected_unmeetable
        + report.expired_requests
        + report.failed_requests;
    assert_eq!(
        outcomes, report.offered_requests,
        "every offered request reaches exactly one typed outcome: {report:?}"
    );
    assert_eq!(
        report.faults_by_kind.iter().sum::<u64>(),
        report.failed_requests + report.expired_requests,
        "every failed or expired request carries one typed fault: {report:?}"
    );
}

#[test]
fn clean_deadlined_run_stays_fault_free() {
    let report = run_load(ChaosConfig::default(), Some(DEADLINE), CLEAN_SEED);
    assert_eq!(report.availability, 1.0, "{report:?}");
    assert_eq!(report.failed_requests, 0, "{report:?}");
    assert_eq!(report.expired_requests, 0, "{report:?}");
    assert_eq!(report.retried_chunks, 0, "{report:?}");
    assert_eq!(report.mode_transitions, 0, "{report:?}");
    assert_eq!(report.final_mode, ServiceMode::Full);
    assert_eq!(
        report.faults_by_kind, [0; 6],
        "degradation has to be earned by actual faults"
    );
}

#[test]
fn clean_run_traces_rays_with_ordered_percentiles() {
    let report = run_load(ChaosConfig::default(), None, CLEAN_SEED);
    assert!(report.completed_rays > 0, "zero rays completed");
    assert!(report.rays_per_sec > 0.0, "zero throughput");
    assert_eq!(report.failed_requests, 0, "{report:?}");
    let served: Vec<_> = report.classes.iter().filter(|c| c.requests > 0).collect();
    assert!(!served.is_empty(), "no class saw traffic");
    for class in served {
        assert!(
            class.p50_us <= class.p95_us
                && class.p95_us <= class.p99_us
                && class.p99_us <= class.max_us,
            "{class:?}"
        );
    }
}
