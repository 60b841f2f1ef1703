//! `sim_paper`: the cycle simulator with and without the predictor on
//! unsorted AO rays of paper-scale SP (high ray reuse) and BI (low reuse).

use crate::report::{self, EndToEnd};
use crate::{setup, Run};
use rip_bvh::{RayBatch, TraversalKernel, WhileWhileKernel};
use rip_core::{FunctionalSim, SimOptions};
use rip_exec::{Case, CaseKey};
use rip_gpusim::{GpuConfig, SimReport, Simulator};
use rip_render::{AoConfig, AoWorkload};
use rip_scene::{SceneId, SceneScale};
use std::sync::Arc;
use std::time::Instant;

/// The paper's Fig. 12 geomean speedup, on its original scenes.
pub const PAPER_FIG12_SPEEDUP: f64 = 1.26;

/// The two scenes of the simulated workloads, with their metric suffixes.
pub const SCENES: [(SceneId, &str); 2] = [
    (SceneId::CrytekSponza, "sp"),
    (SceneId::BistroInterior, "bi"),
];

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

/// One scene's prepared input.
pub struct Input {
    pub suffix: &'static str,
    pub case: Arc<Case>,
    pub batch: RayBatch,
}

/// Leases every scene at `viewport` and generates its seeded AO rays, in
/// generation (unsorted) order.
pub fn prepare(run: &Run, dir: &std::path::Path, viewport: u32) -> Vec<Input> {
    SCENES
        .iter()
        .enumerate()
        .map(|(i, &(id, suffix))| {
            let case = setup::lease(run, dir, key(run, id, viewport)).case;
            let config = AoConfig {
                seed: run.seed_for(i as u64),
                ..AoConfig::default()
            };
            let workload = run.tracer.span("render.ao_gen", || {
                AoWorkload::generate(&case.scene, &case.bvh, &config)
            });
            Input {
                suffix,
                batch: workload.batch(),
                case,
            }
        })
        .collect()
}

/// The case key of `id`: paper scale, or tiny scale for `--small`.
pub fn key(run: &Run, id: SceneId, viewport: u32) -> CaseKey {
    if run.args.small {
        CaseKey::square(id, SceneScale::Tiny, viewport.min(32))
    } else {
        CaseKey::square(id, SceneScale::Paper, viewport)
    }
}

/// Any-hit reference hit count of one batch (while-while kernel).
pub fn reference_hits(run: &Run, input: &Input, flip: bool) -> u64 {
    let hits = WhileWhileKernel::new(&input.case.bvh)
        .any_hit_batch(&input.batch)
        .iter()
        .filter(|r| r.hit.is_some())
        .count() as u64;
    hits + u64::from(flip && run.args.flip_reference)
}

/// The values that must repeat exactly, as `(key, exact text)`.
fn exact_values(input: &Input, base: &SimReport, pred: &SimReport) -> Vec<(String, String)> {
    let s = input.suffix;
    vec![
        (
            format!("gpusim.cycles.baseline.{s}"),
            base.cycles.to_string(),
        ),
        (
            format!("gpusim.cycles.predictor.{s}"),
            pred.cycles.to_string(),
        ),
        (
            format!("core.verified_rate.{s}"),
            format!("{:?}", pred.prediction.verified_rate()),
        ),
    ]
}

pub fn run(run: &mut Run) -> EndToEnd {
    let (inputs, setup_s) = run.set_up(SETUP_REPS, |run, dir| prepare(run, dir, 128));
    let keys: Vec<CaseKey> = SCENES.iter().map(|&(id, _)| key(run, id, 128)).collect();
    setup::probe_build(run, &keys);

    // Timed phase, on one simulator thread: parallel epochs synchronise
    // at every barrier, which on a shared machine makes timings swing
    // far beyond any bound.
    let rays_per_iteration: u64 = inputs.iter().map(|i| 2 * i.batch.len() as u64).sum();
    let mut reports: Vec<Vec<(SimReport, SimReport)>> = Vec::new();
    let mut phase_rates = Vec::new();
    let mut iteration_ms = Vec::new();
    let cpu_start = report::cpu_seconds();
    let wall_start = Instant::now();
    for (traced, window) in run.phases() {
        run.tracer.set_enabled(traced);
        let start = Instant::now();
        let mut busy = 0.0;
        let mut done = 0u64;
        while done < 1 || start.elapsed() < window {
            let t = Instant::now();
            let per_scene = run
                .tracer
                .span("bench.iteration", || simulate_all(run, &inputs, 1));
            let seconds = t.elapsed().as_secs_f64();
            busy += seconds;
            done += 1;
            iteration_ms.push(seconds * 1e3);
            reports.push(per_scene);
        }
        phase_rates.push(rays_per_iteration as f64 * done as f64 / busy);
    }
    let cpu_per_wall = (report::cpu_seconds() - cpu_start) / wall_start.elapsed().as_secs_f64();

    // Output checks: every simulated run hits exactly what the any-hit
    // reference hits, and every simulated number repeats exactly — in
    // every iteration and in one more pass on `jobs` simulator threads.
    let first = reports[0].clone();
    run.tracer.set_enabled(false);
    reports.push(simulate_all(run, &inputs, run.jobs));
    run.tracer.set_enabled(run.args.trace);
    let functional: Vec<_> = run.tracer.span("bench.check", || {
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let reference = reference_hits(run, input, i == 0);
                let config = GpuConfig::with_predictor()
                    .predictor
                    .expect("the predictor configuration has a predictor");
                let report = FunctionalSim::new(config, SimOptions::default())
                    .run_batch(&input.case.bvh, &input.batch);
                (reference, report)
            })
            .collect()
    });
    for (i, input) in inputs.iter().enumerate() {
        let rays = input.batch.len() as u64;
        let (reference, ref functional_report) = functional[i];
        let expected = exact_values(input, &first[i].0, &first[i].1);
        for (n, iteration) in reports.iter().enumerate() {
            let (base, pred) = &iteration[i];
            run.checks.attempt(2 * rays);
            run.checks.expect_eq(
                &format!("{} baseline hits, iteration {n}", input.suffix),
                reference,
                base.hits,
            );
            run.checks.expect_eq(
                &format!("{} predictor hits, iteration {n}", input.suffix),
                reference,
                pred.hits,
            );
            if exact_values(input, base, pred) != expected {
                run.checks.fail(
                    rays,
                    format!(
                        "{} simulated numbers of pass {n} differ from pass 0",
                        input.suffix
                    ),
                );
            }
        }
        run.checks.attempt(rays);
        run.checks.expect_eq(
            &format!("{} functional predictor hits", input.suffix),
            reference,
            functional_report.prediction.hits,
        );
    }
    let speedups: Vec<f64> = first.iter().map(|(b, p)| p.speedup_over(b)).collect();
    let speedup = report::geomean(&speedups);
    let mut record: Vec<(String, String)> = inputs
        .iter()
        .zip(&first)
        .flat_map(|(input, (b, p))| exact_values(input, b, p))
        .collect();
    record.push(("gpusim.speedup".into(), format!("{speedup:?}")));
    run.check_record(&record);

    // Per-layer figures.
    let layers = &mut run.layers;
    let total_cycles: u64 = reports[..iteration_ms.len()]
        .iter()
        .flatten()
        .map(|(b, p)| b.cycles + p.cycles)
        .sum();
    let total_ms: f64 = iteration_ms.iter().sum();
    layers.set(
        "gpusim.host_ns_per_kcycle",
        total_ms * 1e6 / (total_cycles as f64 / 1e3),
    );
    layers.set("gpusim.speedup", speedup);
    layers.set("exec.cpu_per_wall", cpu_per_wall);
    let rays: u64 = inputs.iter().map(|i| i.batch.len() as u64).sum();
    let baseline_fetches: u64 = first.iter().map(|(b, _)| b.traversal.node_fetches()).sum();
    layers.set("bvh.nodes_per_ray", baseline_fetches as f64 / rays as f64);
    let (mut l1, mut l2, mut dram, mut repacked) = ((0, 0), (0, 0), 0, 0);
    for (i, input) in inputs.iter().enumerate() {
        let (base, pred) = &first[i];
        let functional = &functional[i].1;
        for (name, value) in [
            ("gpusim.cycles.baseline", base.cycles as f64),
            ("gpusim.cycles.predictor", pred.cycles as f64),
            ("core.verified_rate", pred.prediction.verified_rate()),
            ("core.wasted_frac", functional.wasted_fraction()),
            (
                "core.nodes_skipped_per_ray",
                functional.actual_nodes_skipped_per_ray(),
            ),
        ] {
            layers.set(suffixed(name, input.suffix), value);
        }
        let memory = &pred.memory;
        let l1_stats = memory.l1_combined();
        l1 = (l1.0 + l1_stats.hits, l1.1 + l1_stats.accesses);
        l2 = (l2.0 + memory.l2.hits, l2.1 + memory.l2.accesses);
        dram += memory.dram.accesses;
        repacked += pred.repacked_warps;
    }
    layers.set("gpusim.l1_hit_rate", l1.0 as f64 / l1.1.max(1) as f64);
    layers.set("gpusim.l2_hit_rate", l2.0 as f64 / l2.1.max(1) as f64);
    layers.set("gpusim.dram_accesses", dram as f64);
    layers.set("gpusim.repacked_warps", repacked as f64);
    if let [untraced, traced] = phase_rates[..] {
        layers.set("obs.trace_overhead", untraced / traced - 1.0);
    }

    let rays_per_s = phase_rates[0];
    EndToEnd {
        setup_s,
        rays_per_s,
        p50_ms: report::median(&iteration_ms),
        p90_ms: report::percentile(&iteration_ms, 90.0),
        mean_ms: report::mean(&iteration_ms),
        samples: iteration_ms.len() as u64,
        extra: vec![
            format!("sim_rays_per_s {rays_per_s} 1/s"),
            format!(
                "sim_speedup {speedup:.4} ratio (unvalidated timing model; the paper's Fig. 12 \
                 geomean is {PAPER_FIG12_SPEEDUP} on its original scenes)"
            ),
        ],
    }
}

/// Simulates every input with the baseline and the predictor
/// configuration on `jobs` threads; modelled caches start empty.
fn simulate_all(run: &Run, inputs: &[Input], jobs: usize) -> Vec<(SimReport, SimReport)> {
    inputs
        .iter()
        .map(|input| {
            let simulate = |config: GpuConfig| {
                Simulator::new(config)
                    .with_jobs(jobs)
                    .run_batch(&input.case.bvh, &input.batch)
            };
            let base = run
                .tracer
                .span("gpusim.baseline", || simulate(GpuConfig::baseline()));
            let pred = run
                .tracer
                .span("gpusim.predictor", || simulate(GpuConfig::with_predictor()));
            (base, pred)
        })
        .collect()
}

/// `name.suffix` as a catalogue name.
pub fn suffixed(name: &str, suffix: &str) -> &'static str {
    let full = format!("{name}.{suffix}");
    report::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == full)
        .unwrap_or_else(|| panic!("{full} is not a per-layer metric"))
}
