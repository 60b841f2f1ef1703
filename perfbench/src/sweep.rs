//! `sweep_paper`: the Table-6 parameter sweep through the functional
//! simulator — hash once, capture one RIPT trace per scene, replay the
//! grid, and run the default configuration live once.

use crate::report::{self, EndToEnd};
use crate::sim::{self, Input, SCENES};
use crate::{setup, Run};
use rip_bvh::TraversalKind;
use rip_core::{FunctionalReport, FunctionalSim, PredictorConfig, SimOptions};
use rip_exec::{CaseKey, TraceStore};
use std::time::Instant;

/// Table 6: entries × nodes per entry, holding the default (1024, 1).
const GRID: [(usize, usize); 9] = [
    (512, 1),
    (512, 2),
    (512, 4),
    (1024, 1),
    (1024, 2),
    (1024, 4),
    (2048, 1),
    (2048, 2),
    (2048, 4),
];
const DEFAULT: (usize, usize) = (1024, 1);

const SETUP_REPS: usize = 5;

/// One scene's results of one sweep iteration.
struct SceneSweep {
    grid: Vec<FunctionalReport>,
    live: FunctionalReport,
    captures: u64,
}

fn config((entries, nodes_per_entry): (usize, usize)) -> PredictorConfig {
    PredictorConfig {
        entries,
        nodes_per_entry,
        ..PredictorConfig::paper_default()
    }
}

/// One full sweep over every scene, from a fresh in-memory trace store.
fn sweep(run: &Run, inputs: &[Input]) -> Result<Vec<SceneSweep>, String> {
    let store = TraceStore::in_memory_only().with_parallelism(run.jobs);
    let default = FunctionalSim::new(config(DEFAULT), SimOptions::default());
    inputs
        .iter()
        .map(|input| {
            let (bvh, batch) = (&input.case.bvh, &input.batch);
            let hashes = run
                .tracer
                .span("core.hash", || default.hash_batch(bvh, batch));
            let trace = run.tracer.span("exec.trace_capture", || {
                store.get_or_capture(input.suffix, bvh, batch, TraversalKind::AnyHit)
            });
            let grid = GRID
                .iter()
                .map(|&point| {
                    let sim = FunctionalSim::new(config(point), SimOptions::default());
                    run.tracer.span("core.replay", || {
                        sim.run_batch_replay_hashed(bvh, batch, &trace, &hashes)
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let live = run.tracer.span("core.live", || {
                default.run_batch_hashed(bvh, batch, &hashes)
            });
            Ok(SceneSweep {
                grid,
                live,
                captures: store.stats().captures,
            })
        })
        .collect()
}

pub fn run(run: &mut Run) -> EndToEnd {
    let (inputs, setup_s) = run.set_up(SETUP_REPS, |run, dir| sim::prepare(run, dir, 256));
    let keys: Vec<CaseKey> = SCENES
        .iter()
        .map(|&(id, _)| sim::key(run, id, 256))
        .collect();
    setup::probe_build(run, &keys);

    // Rays × configurations per iteration: the grid plus the live run.
    let work_per_iteration: u64 = inputs
        .iter()
        .map(|i| (GRID.len() as u64 + 1) * i.batch.len() as u64)
        .sum();
    let mut results: Vec<Result<Vec<SceneSweep>, String>> = Vec::new();
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
            let result = run.tracer.span("bench.iteration", || sweep(run, &inputs));
            let seconds = t.elapsed().as_secs_f64();
            busy += seconds;
            done += 1;
            iteration_ms.push(seconds * 1e3);
            results.push(result);
        }
        phase_rates.push(work_per_iteration as f64 * done as f64 / busy);
    }
    let cpu_per_wall = (report::cpu_seconds() - cpu_start) / wall_start.elapsed().as_secs_f64();
    run.layers.set("exec.cpu_per_wall", cpu_per_wall);

    // Output checks: the default configuration's replay equals its live
    // run, live hits equal the any-hit reference, one capture per scene,
    // and every iteration reproduces the first exactly.
    let references: Vec<u64> = run.tracer.span("bench.check", || {
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| sim::reference_hits(run, input, i == 0))
            .collect()
    });
    let default_index = GRID
        .iter()
        .position(|&p| p == DEFAULT)
        .expect("the grid holds the default configuration");
    let mut first: Option<String> = None;
    for (n, result) in results.iter().enumerate() {
        run.checks.attempt(work_per_iteration);
        let scenes = match result {
            Ok(scenes) => scenes,
            Err(e) => {
                run.checks.fail(
                    work_per_iteration,
                    format!("iteration {n}: replay refused: {e}"),
                );
                continue;
            }
        };
        for ((input, scene), &reference) in inputs.iter().zip(scenes).zip(&references) {
            let rays = input.batch.len() as u64;
            if format!("{:?}", scene.grid[default_index]) != format!("{:?}", scene.live) {
                run.checks.fail(
                    rays,
                    format!(
                        "{} iteration {n}: default replay report differs from live",
                        input.suffix
                    ),
                );
            }
            run.checks.expect_eq(
                &format!("{} iteration {n}: live hits", input.suffix),
                reference,
                scene.live.prediction.hits,
            );
        }
        let captures = scenes.last().map_or(0, |s| s.captures);
        run.checks.expect_eq(
            &format!("iteration {n}: trace captures"),
            inputs.len() as u64,
            captures,
        );
        let reports: Vec<_> = scenes.iter().map(|s| (&s.grid, &s.live)).collect();
        let digest = format!("{reports:?}");
        match &first {
            None => first = Some(digest),
            Some(expected) if *expected != digest => run.checks.fail(
                work_per_iteration,
                format!("iteration {n}: reports differ from iteration 0"),
            ),
            Some(_) => {}
        }
    }

    if let Some(Ok(scenes)) = results.first() {
        let record: Vec<(String, String)> = inputs
            .iter()
            .zip(scenes)
            .flat_map(|(input, scene)| {
                let live = &scene.live;
                [
                    (
                        format!("core.verified_rate.{}", input.suffix),
                        format!("{:?}", live.prediction.verified_rate()),
                    ),
                    (
                        format!("core.with_predictor_fetches.{}", input.suffix),
                        live.with_predictor.node_fetches().to_string(),
                    ),
                ]
            })
            .collect();
        run.check_record(&record);

        let layers = &mut run.layers;
        let rays: u64 = inputs.iter().map(|i| i.batch.len() as u64).sum();
        let fetches: u64 = scenes.iter().map(|s| s.live.baseline.node_fetches()).sum();
        layers.set("bvh.nodes_per_ray", fetches as f64 / rays as f64);
        layers.set(
            "exec.trace_captures",
            scenes.last().map_or(0, |s| s.captures) as f64,
        );
        for (input, scene) in inputs.iter().zip(scenes) {
            let live = &scene.live;
            layers.set(
                sim::suffixed("core.verified_rate", input.suffix),
                live.prediction.verified_rate(),
            );
            layers.set(
                sim::suffixed("core.wasted_frac", input.suffix),
                live.wasted_fraction(),
            );
            layers.set(
                sim::suffixed("core.nodes_skipped_per_ray", input.suffix),
                live.actual_nodes_skipped_per_ray(),
            );
        }
    }
    if let [untraced, traced] = phase_rates[..] {
        run.layers
            .set("obs.trace_overhead", untraced / traced - 1.0);
    }

    let rays_per_s = phase_rates[0];
    EndToEnd {
        setup_s,
        rays_per_s,
        p50_ms: report::median(&iteration_ms),
        p90_ms: report::percentile(&iteration_ms, 90.0),
        mean_ms: report::mean(&iteration_ms),
        samples: iteration_ms.len() as u64,
        extra: vec![format!("sweep_rays_per_s {rays_per_s} 1/s")],
    }
}
