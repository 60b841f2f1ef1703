//! `serve_light` and `serve_saturated`: the ray service on quick-scale SP,
//! 256-ray requests cycling primary / AO / shadow over two tenants.
//!
//! `serve_light` is an open loop (`rip_serve::loadgen::run`, 50 requests
//! per second per tenant); `serve_saturated` is a closed loop run by this
//! thread with one outstanding request per tenant.

use crate::report::{self, EndToEnd};
use crate::{setup, Run};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rip_bvh::{StacklessKernel, TraversalKernel};
use rip_exec::{Case, CaseKey};
use rip_obs::{ClockMode, Histogram, Obs};
use rip_scene::{SceneId, SceneScale};
use rip_serve::loadgen::{self, LoadGenConfig, LoadReport};
use rip_serve::{RayService, RequestClass, SceneLease, ServiceConfig, ServiceStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
const RAYS_PER_REQUEST: usize = 256;
const RATE_PER_TENANT: f64 = 50.0;
const SETUP_REPS: usize = 41;
/// Target length of a closed-loop sub-window (see `run_saturated`).
const SLOT_SECONDS: f64 = 0.5;

fn key(run: &Run) -> CaseKey {
    let scale = if run.args.small {
        SceneScale::Tiny
    } else {
        SceneScale::Quick
    };
    CaseKey::square(SceneId::CrytekSponza, scale, 128)
}

/// A service over the leased scene with `jobs` pool workers, timestamped
/// by its own wall clock (returned: when that clock reads 0); `traced`
/// turns on the service's own `serve/round` spans.
fn new_service(run: &Run, lease: &SceneLease, traced: bool) -> (RayService, Instant) {
    let created = Instant::now();
    let obs = Arc::new(Obs::new(ClockMode::Wall));
    if traced {
        obs.trace().enable();
    }
    let config = ServiceConfig {
        jobs: run.jobs,
        ..ServiceConfig::default()
    };
    (
        RayService::with_obs(lease.clone(), TENANTS, config, obs),
        created,
    )
}

/// Set-up: lease the scene through the artifact store and build the
/// service.
fn set_up(run: &mut Run) -> (SceneLease, RayService, f64) {
    let ((lease, service), setup_s) = run.set_up(SETUP_REPS, |run, dir| {
        let lease = setup::lease(run, dir, key(run));
        let (service, _) = new_service(run, &lease, false);
        (lease, service)
    });
    setup::probe_build(run, &[key(run)]);
    (lease, service, setup_s)
}

/// Per class: (requests, hits) of a tenant's first `n` requests.
type Prefix = Vec<[(u64, u64); 3]>;

/// Replays tenant `tenant`'s seeded request stream (the stream
/// `loadgen::run` and the closed loop both draw) through the stackless
/// kernel without the service, returning per-class prefix sums.
fn reference_prefix(case: &Case, seed: u64, tenant: usize, requests: usize) -> Prefix {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(tenant as u64));
    let mut kernel = StacklessKernel::new(&case.bvh);
    let mut sums = [(0u64, 0u64); 3];
    let mut prefix = vec![sums];
    for sequence in 0..requests {
        let class = RequestClass::ALL[sequence % RequestClass::ALL.len()];
        let rays = loadgen::synthesize_rays(case, class, RAYS_PER_REQUEST, &mut rng);
        let hits = kernel
            .trace_batch(&rays, class.kind())
            .iter()
            .filter(|r| r.hit.is_some())
            .count() as u64;
        sums[class.index()].0 += 1;
        sums[class.index()].1 += hits;
        prefix.push(sums);
    }
    prefix
}

/// [`reference_prefix`] of every tenant, one thread per tenant.
fn reference_prefixes(case: &Case, seed: u64, requests: [usize; TENANTS]) -> Vec<Prefix> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| scope.spawn(move || reference_prefix(case, seed, t, requests[t])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a reference trace thread panicked"))
            .collect()
    })
}

/// The §4 transparency check: the service's per-class hit totals equal a
/// direct stackless trace of the same seeded requests. `splits` lists
/// the candidate per-tenant request counts; the open loop does not report
/// them, so any one that reproduces the per-class request counts and hit
/// totals passes. Returns the failed operations (0 when one matches).
fn hit_mismatch(
    stats: &ServiceStats,
    prefixes: &[Prefix],
    splits: &[[usize; TENANTS]],
    flip: bool,
) -> u64 {
    let mut best = u64::MAX;
    for split in splits {
        let mut mismatch = 0u64;
        let mut requests_match = true;
        for class in RequestClass::ALL {
            let c = class.index();
            let (requests, hits) = split
                .iter()
                .zip(prefixes)
                .map(|(&n, prefix)| prefix[n][c])
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            let hits = hits + u64::from(flip && c == 0);
            let served = &stats.classes[c];
            requests_match &= served.requests == requests;
            mismatch += served.hits.abs_diff(hits).min(served.requests.max(1));
        }
        if requests_match {
            best = best.min(mismatch);
        }
    }
    if best == u64::MAX {
        1
    } else {
        best
    }
}

/// Failed operations of a finished service: every offered request that
/// did not complete (shed, rate-limited, refused, expired or failed)
/// and every completed one past a deadline.
fn unfinished(run: &mut Run, offered: u64, stats: &ServiceStats, what: &str) {
    run.checks.attempt(offered);
    run.checks.fail(
        offered.saturating_sub(stats.completed_requests) + stats.deadline_miss_requests,
        format!(
            "{what}: {} of {offered} requests completed ({} shed, {} rate-limited, {} refused, \
             {} expired, {} failed, {} late)",
            stats.completed_requests,
            stats.shed_requests,
            stats.rate_limited,
            stats.rejected_unmeetable,
            stats.expired_requests,
            stats.failed_requests,
            stats.deadline_miss_requests
        ),
    );
}

fn merged_latency(stats: &ServiceStats) -> Histogram {
    let mut merged = Histogram::new();
    for class in &stats.classes {
        merged.merge(&class.latency_us);
    }
    merged
}

fn table_hit_rate(service: &RayService) -> f64 {
    let table = service.table_stats();
    table.tag_hits as f64 / table.lookups.max(1) as f64
}

/// Open-loop windows per timed phase of `serve_light`. Each runs on a
/// fresh service with its own seed, and the run reports the median
/// window, so a burst of interference from outside the process does not
/// set the result.
const WINDOWS: u32 = 5;

/// One open-loop window of `serve_light`.
struct OpenLoopWindow {
    duration: Duration,
    load: LoadReport,
    stats: ServiceStats,
    /// All classes' latency histograms merged.
    latency: Histogram,
    table_hit_rate: f64,
    /// Share of the window inside the service's own round spans (traced
    /// windows only).
    busy_frac: Option<f64>,
}

/// Runs one `loadgen::run` window on `service` (a fresh one when `None`)
/// and checks its outputs.
fn open_loop_window(
    run: &mut Run,
    lease: &SceneLease,
    service: Option<RayService>,
    duration: Duration,
    seed: u64,
) -> OpenLoopWindow {
    let traced = run.tracer.enabled();
    let (service, clock_origin) = match service {
        Some(service) => (service, None),
        None => {
            let (service, created) = new_service(run, lease, traced);
            (service, Some(created))
        }
    };
    let config = LoadGenConfig {
        tenants: TENANTS,
        rate: RATE_PER_TENANT,
        rays_per_request: RAYS_PER_REQUEST,
        duration,
        deadline: None,
        seed,
    };
    let start_ns = run.tracer.now_ns();
    let load = loadgen::run(&service, &config);
    let loadgen_span =
        run.tracer
            .record("serve.loadgen", None, start_ns, run.tracer.now_ns(), None);
    let mut busy_frac = None;
    if let (Some(created), true) = (clock_origin, traced) {
        // The service's own round spans, placed on this run's time axis.
        let offset_ns = created
            .saturating_duration_since(run.tracer.origin())
            .as_nanos() as u64;
        let mut busy_ns = 0;
        for event in service.obs().trace().sorted_events() {
            if event.ph == 'X' && event.cat == "serve" && event.name == "round" {
                let start = offset_ns + event.ts_us * 1_000;
                let duration = event.dur_us.unwrap_or(0) * 1_000;
                busy_ns += duration;
                run.tracer
                    .record("serve.round", loadgen_span, start, start + duration, None);
            }
        }
        busy_frac = Some(busy_ns as f64 * 1e-9 / load.wall.as_secs_f64());
    }
    let stats = service.stats();

    let check_start = run.tracer.now_ns();
    unfinished(run, load.offered_requests, &stats, "serve_light");
    if stats.completed_requests == load.offered_requests {
        let offered = load.offered_requests as usize;
        let half = offered / TENANTS;
        let most = half + 8;
        let prefixes = reference_prefixes(&lease.case, seed, [most.min(offered); TENANTS]);
        // The tenants share one schedule, so their counts differ by at
        // most a few requests.
        let splits: Vec<[usize; TENANTS]> = (half.saturating_sub(8)..=most.min(offered))
            .filter(|&n0| offered - n0 <= most)
            .map(|n0| [n0, offered - n0])
            .collect();
        let failed = hit_mismatch(&stats, &prefixes, &splits, run.args.flip_reference);
        run.checks.fail(
            failed,
            "serve_light: per-class hits differ from a direct stackless trace",
        );
    }
    let end = run.tracer.now_ns();
    run.tracer
        .record("bench.check", None, check_start, end, None);
    OpenLoopWindow {
        duration,
        latency: merged_latency(&stats),
        table_hit_rate: table_hit_rate(&service),
        busy_frac,
        load,
        stats,
    }
}

/// The median over `windows` of `figure`.
fn median_window(windows: &[OpenLoopWindow], figure: impl Fn(&OpenLoopWindow) -> f64) -> f64 {
    report::median(&windows.iter().map(figure).collect::<Vec<_>>())
}

pub fn run_light(run: &mut Run) -> EndToEnd {
    let (lease, first_service, setup_s) = set_up(run);
    // The first untraced window uses the service the set-up built.
    let mut first_service = Some(first_service);
    let mut phases: Vec<Vec<OpenLoopWindow>> = Vec::new();
    let cpu_start = report::cpu_seconds();
    let wall_start = Instant::now();
    for (traced, window) in run.phases() {
        run.tracer.set_enabled(traced);
        let mut windows = Vec::new();
        for w in 0..WINDOWS {
            let service = first_service.take().filter(|_| !traced);
            let seed = run.seed_for(100 + u64::from(w));
            windows.push(open_loop_window(
                run,
                &lease,
                service,
                window / WINDOWS,
                seed,
            ));
        }
        phases.push(windows);
    }
    let cpu_per_wall = (report::cpu_seconds() - cpu_start) / wall_start.elapsed().as_secs_f64();

    let windows = &phases[0];
    let layers = &mut run.layers;
    layers.set("exec.cpu_per_wall", cpu_per_wall);
    layers.set(
        "serve.rays_per_round",
        median_window(windows, |w| {
            w.stats.completed_rays as f64 / w.stats.rounds.max(1) as f64
        }),
    );
    layers.set(
        "serve.rounds_per_request",
        median_window(windows, |w| {
            w.stats.rounds as f64 / w.stats.completed_requests.max(1) as f64
        }),
    );
    layers.set(
        "serve.offered_shortfall",
        median_window(windows, |w| {
            let scheduled = RATE_PER_TENANT * w.duration.as_secs_f64() * TENANTS as f64;
            1.0 - w.load.offered_requests as f64 / scheduled
        }),
    );
    layers.set(
        "serve.table_hit_rate",
        median_window(windows, |w| w.table_hit_rate),
    );
    let mean_ms = |windows: &[OpenLoopWindow]| median_window(windows, |w| w.latency.mean() / 1e3);
    if let [untraced, traced] = &phases[..] {
        layers.set(
            "serve.round_busy_frac",
            median_window(traced, |w| w.busy_frac.unwrap_or(0.0)),
        );
        layers.set(
            "obs.trace_overhead",
            mean_ms(traced) / mean_ms(untraced) - 1.0,
        );
    }

    let completed: u64 = windows.iter().map(|w| w.load.completed_rays).sum();
    let wall: f64 = windows.iter().map(|w| w.load.wall.as_secs_f64()).sum();
    let rays_per_s = completed as f64 / wall;
    let us = |figure: fn(&Histogram) -> u64| median_window(windows, |w| figure(&w.latency) as f64);
    let (p50_us, p90_us, p99_us) = (
        us(Histogram::p50),
        us(|h| h.percentile(90.0)),
        us(Histogram::p99),
    );
    EndToEnd {
        setup_s,
        rays_per_s,
        p50_ms: p50_us / 1e3,
        p90_ms: p90_us / 1e3,
        mean_ms: mean_ms(windows),
        samples: windows.iter().map(|w| w.latency.count()).sum(),
        extra: vec![
            format!("serve_p50_us {p50_us} us (median window; histogram bucket upper bounds, buckets up to 12.5% wide)"),
            format!("serve_p99_us {p99_us} us (median window; histogram bucket upper bounds, buckets up to 12.5% wide)"),
            format!("serve_mean_us {} us (median window; exact within a window)", mean_ms(windows) * 1e3),
            format!(
                "offered_requests {} count",
                windows.iter().map(|w| w.load.offered_requests).sum::<u64>()
            ),
        ],
    }
}

/// One sub-window of a closed-loop window.
#[derive(Default)]
struct Slot {
    seconds: f64,
    rays: u64,
    latency_ms: Vec<f64>,
}

pub fn run_saturated(run: &mut Run) -> EndToEnd {
    let (lease, service, setup_s) = set_up(run);
    let case = &lease.case;
    let seed = run.seed_for(100);
    let mut rngs: Vec<SmallRng> = (0..TENANTS)
        .map(|t| SmallRng::seed_from_u64(seed.wrapping_add(t as u64)))
        .collect();
    let mut sequence = [0usize; TENANTS];
    let mut request_ordinal = 0u64;
    let mut phases: Vec<Vec<Slot>> = Vec::new();
    let cpu_start = report::cpu_seconds();
    let wall_start = Instant::now();
    for (traced, window) in run.phases() {
        run.tracer.set_enabled(traced);
        // Completed rays and latencies per sub-window, by the time each
        // cycle ended: every figure is that of the best tenth of the
        // sub-windows, so interference from outside the process, which
        // only ever slows the loop, sets it only if it lasts the whole run.
        let count = (window.as_secs_f64() / SLOT_SECONDS).round().max(1.0) as u32;
        let slot = window / count;
        let mut slots: Vec<Slot> = (0..count).map(|_| Slot::default()).collect();
        let start = Instant::now();
        while start.elapsed() < window {
            let submitted = run.tracer.span("bench.iteration", || {
                let mut submitted = Vec::with_capacity(TENANTS);
                for (tenant, rng) in rngs.iter_mut().enumerate() {
                    let class = RequestClass::ALL[sequence[tenant] % RequestClass::ALL.len()];
                    sequence[tenant] += 1;
                    let rays = loadgen::synthesize_rays(case, class, RAYS_PER_REQUEST, rng);
                    let at = Instant::now();
                    let at_ns = run.tracer.now_ns();
                    let admitted =
                        run.tracer
                            .span_request("serve.submit", Some(request_ordinal), || {
                                service.submit(tenant, class, rays)
                            });
                    if admitted.is_ok() {
                        submitted.push((request_ordinal, at, at_ns));
                    }
                    request_ordinal += 1;
                }
                while service.pending() > 0 {
                    run.tracer.span("serve.round", || service.run_round());
                }
                submitted
            });
            let end_ns = run.tracer.now_ns();
            let index = (start.elapsed().as_nanos() / slot.as_nanos().max(1)) as usize;
            let mut spare = Slot::default();
            let current = slots.get_mut(index).unwrap_or(&mut spare);
            current.rays += (submitted.len() * RAYS_PER_REQUEST) as u64;
            for (ordinal, at, at_ns) in submitted {
                current.latency_ms.push(at.elapsed().as_secs_f64() * 1e3);
                run.tracer
                    .record("serve.request", None, at_ns, end_ns, Some(ordinal));
            }
        }
        for current in &mut slots {
            current.seconds = slot.as_secs_f64();
        }
        phases.push(slots);
    }
    let cpu_per_wall = (report::cpu_seconds() - cpu_start) / wall_start.elapsed().as_secs_f64();
    let stats = service.stats();

    let check_start = run.tracer.now_ns();
    unfinished(run, request_ordinal, &stats, "serve_saturated");
    let prefixes = reference_prefixes(case, seed, sequence);
    let failed = hit_mismatch(&stats, &prefixes, &[sequence], run.args.flip_reference);
    run.checks.fail(
        failed,
        "serve_saturated: per-class hits differ from a direct stackless trace",
    );
    let end = run.tracer.now_ns();
    run.tracer
        .record("bench.check", None, check_start, end, None);

    let layers = &mut run.layers;
    layers.set("exec.cpu_per_wall", cpu_per_wall);
    layers.set(
        "serve.rays_per_round",
        stats.completed_rays as f64 / stats.rounds.max(1) as f64,
    );
    layers.set(
        "serve.rounds_per_request",
        stats.rounds as f64 / stats.completed_requests.max(1) as f64,
    );
    layers.set("serve.table_hit_rate", table_hit_rate(&service));
    // The boundary of the best tenth of the sub-windows: the 90th
    // percentile of a figure that is better higher, the 10th of one that
    // is better lower.
    let best_tenth = |slots: &[Slot], figure: fn(&Slot) -> f64, higher_is_better: bool| {
        let values: Vec<f64> = slots.iter().map(figure).collect();
        report::percentile(&values, if higher_is_better { 90.0 } else { 10.0 })
    };
    let rate = |s: &Slot| s.rays as f64 / s.seconds;
    if let [untraced, traced] = &phases[..] {
        layers.set(
            "obs.trace_overhead",
            best_tenth(untraced, rate, true) / best_tenth(traced, rate, true) - 1.0,
        );
    }

    let slots = &phases[0];
    let rays_per_s = best_tenth(slots, rate, true);
    let mean_ms = best_tenth(slots, |s| report::mean(&s.latency_ms), false);
    let p50_ms = best_tenth(slots, |s| report::median(&s.latency_ms), false);
    let latency_ms: Vec<f64> = slots.iter().flat_map(|s| s.latency_ms.clone()).collect();
    EndToEnd {
        setup_s,
        rays_per_s,
        p50_ms,
        p90_ms: best_tenth(slots, |s| report::percentile(&s.latency_ms, 90.0), false),
        mean_ms,
        samples: latency_ms.len() as u64,
        extra: vec![
            format!(
                "serve_rays_per_s {rays_per_s} 1/s (capacity, closed loop, best tenth of {} sub-windows)",
                slots.len()
            ),
            format!("serve_p50_us {} us (exact, best tenth)", p50_ms * 1e3),
            format!(
                "serve_p99_us {} us (exact, whole window)",
                report::percentile(&latency_ms, 99.0) * 1e3
            ),
            format!("serve_mean_us {} us (exact, best tenth)", mean_ms * 1e3),
            format!(
                "serve_rays_per_s_median {} 1/s (median sub-window)",
                report::median(&slots.iter().map(rate).collect::<Vec<_>>())
            ),
        ],
    }
}
