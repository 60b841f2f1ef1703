//! Metric catalogue, run bookkeeping and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the metric lists of `BENCHMARK.json`
//! (the self-test checks that both agree). Every run prints every metric
//! of its list: a layer the workload never enters reads 0. Traced runs of
//! the ungated workloads also print `UNGATED_LAYERS`.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rays_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("mean_ms", "ms"),
];

/// Per-layer metrics of `BENCHMARK.json`, printed by traced runs:
/// `(name, unit)`. Each one moves on a workload the benchmark gates.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("scene.synth_s", "s"),
    ("bvh.build_s", "s"),
    ("bvh.nodes_per_ray", "count"),
    ("render.ao_gen_s", "s"),
    ("exec.lease_s", "s"),
    ("exec.artifact_map_s", "s"),
    ("exec.cpu_per_wall", "ratio"),
    ("core.verified_rate.sp", "ratio"),
    ("core.verified_rate.bi", "ratio"),
    ("core.wasted_frac.sp", "ratio"),
    ("core.wasted_frac.bi", "ratio"),
    ("core.nodes_skipped_per_ray.sp", "count"),
    ("core.nodes_skipped_per_ray.bi", "count"),
    ("gpusim.baseline_s", "s"),
    ("gpusim.predictor_s", "s"),
    ("gpusim.host_ns_per_kcycle", "ns"),
    ("gpusim.speedup", "ratio"),
    ("gpusim.cycles.baseline.sp", "count"),
    ("gpusim.cycles.baseline.bi", "count"),
    ("gpusim.cycles.predictor.sp", "count"),
    ("gpusim.cycles.predictor.bi", "count"),
    ("gpusim.l1_hit_rate", "ratio"),
    ("gpusim.l2_hit_rate", "ratio"),
    ("gpusim.dram_accesses", "count"),
    ("gpusim.repacked_warps", "count"),
    ("serve.submit_us", "us"),
    ("serve.round_ms", "ms"),
    ("serve.rays_per_round", "count"),
    ("serve.table_hit_rate", "ratio"),
    ("serve.rounds_per_request", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("bench.setup_self_s", "s"),
    ("bench.iteration_self_s", "s"),
    ("bench.check_s", "s"),
];

/// Per-layer metrics only the ungated workloads (`sweep_paper`,
/// `serve_light`) move; their traced runs print these after [`PER_LAYER`].
pub const UNGATED_LAYERS: [(&str, &str); 7] = [
    ("exec.trace_capture_s", "s"),
    ("exec.trace_captures", "count"),
    ("core.hash_s", "s"),
    ("core.replay_s", "s"),
    ("core.live_s", "s"),
    ("serve.round_busy_frac", "ratio"),
    ("serve.offered_shortfall", "ratio"),
];

/// How a span-timed layer metric folds its spans into one number.
#[derive(Clone, Copy)]
pub enum Per {
    /// Self seconds per set-up repetition.
    Setup,
    /// Self seconds per timed iteration.
    Iteration,
    /// Self seconds over the whole run (layer probes, output checks).
    Once,
    /// Mean self time per call, in the metric's unit (scale from seconds).
    Call(f64),
}

/// Span name → layer metric it feeds.
pub const SPAN_METRICS: [(&str, &str, Per); 16] = [
    ("scene.synth", "scene.synth_s", Per::Once),
    ("bvh.build", "bvh.build_s", Per::Once),
    ("render.ao_gen", "render.ao_gen_s", Per::Setup),
    ("exec.lease", "exec.lease_s", Per::Setup),
    ("exec.artifact_map", "exec.artifact_map_s", Per::Setup),
    ("exec.trace_capture", "exec.trace_capture_s", Per::Iteration),
    ("core.hash", "core.hash_s", Per::Iteration),
    ("core.replay", "core.replay_s", Per::Iteration),
    ("core.live", "core.live_s", Per::Iteration),
    ("gpusim.baseline", "gpusim.baseline_s", Per::Iteration),
    ("gpusim.predictor", "gpusim.predictor_s", Per::Iteration),
    ("serve.submit", "serve.submit_us", Per::Call(1e6)),
    ("serve.round", "serve.round_ms", Per::Call(1e3)),
    ("bench.setup", "bench.setup_self_s", Per::Setup),
    ("bench.iteration", "bench.iteration_self_s", Per::Iteration),
    ("bench.check", "bench.check_s", Per::Once),
];

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `ops` operations as attempted.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts `failed` failed operations (when non-zero) with a reason.
    pub fn fail(&mut self, failed: u64, why: impl Into<String>) {
        if failed > 0 {
            self.failed += failed;
            self.notes.push(why.into());
        }
    }

    /// Adds `other`'s attempts, failures and reasons to these.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// Compares two counts that must agree; every unit of difference is
    /// one failed operation (at least one when they differ).
    pub fn expect_eq(&mut self, what: &str, expected: u64, actual: u64) {
        if expected != actual {
            self.fail(
                expected.abs_diff(actual).max(1),
                format!("{what}: expected {expected}, got {actual}"),
            );
        }
    }
}

/// The end-to-end figures of one run.
#[derive(Default)]
pub struct EndToEnd {
    /// Median set-up time over the run's repetitions.
    pub setup_s: f64,
    /// Work completed per host second over the timed phase.
    pub rays_per_s: f64,
    /// Operation latency percentiles and mean, milliseconds.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub mean_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Workload-specific lines printed beside the generic metrics.
    pub extra: Vec<String>,
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive `values` (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// A `/proc/self/status` field in kB.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// CPU seconds this process has used, all threads (user + system).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 overall, in USER_HZ (100 per second) ticks.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Per-layer metrics gathered by one run, keyed by catalogue name.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets a catalogue metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`PER_LAYER`] or [`UNGATED_LAYERS`]
    /// (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER
                .iter()
                .chain(&UNGATED_LAYERS)
                .any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Folds the tracer's spans into the span-timed metrics.
    /// Per-set-up and per-iteration figures divide by the number of
    /// `bench.setup` and `bench.iteration` spans, which only traced
    /// set-ups and iterations leave.
    pub fn set_span_times(&mut self, tracer: &Tracer) {
        let summary = tracer.summary();
        let count = |span: &str| summary.get(span).map_or(1, |s| s.0.max(1)) as f64;
        let (setups, iterations) = (count("bench.setup"), count("bench.iteration"));
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, metric, per) in SPAN_METRICS {
            let Some(&(calls, _, self_ns)) = summary.get(span) else {
                continue;
            };
            let self_s = self_ns as f64 * 1e-9;
            let value = match per {
                Per::Setup => self_s / setups,
                Per::Iteration => self_s / iterations,
                Per::Once => self_s,
                Per::Call(scale) => self_s * scale / calls.max(1) as f64,
            };
            *totals.entry(metric).or_default() += value;
        }
        for (metric, value) in totals {
            self.set(metric, value);
        }
    }
}

/// Renders the human-readable table and the result line (the last line
/// of standard output). A traced run of an ungated workload adds
/// [`UNGATED_LAYERS`] to the per-layer metrics.
pub fn render(
    workload: &str,
    gated: bool,
    trace: bool,
    e2e: &EndToEnd,
    layers: &Layers,
    checks: &Checks,
) -> String {
    let mut out = String::new();
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    let _ = writeln!(out, "# workload {workload}  trace {}", u8::from(trace));
    let _ = writeln!(
        out,
        "error_rate {error_rate:.6} ratio  ({} failed of {} attempted)",
        checks.failed, checks.attempted
    );
    const SHOWN: usize = 8;
    for note in checks.notes.iter().take(SHOWN) {
        let _ = writeln!(out, "  failure: {note}");
    }
    if checks.notes.len() > SHOWN {
        let _ = writeln!(out, "  ... and {} more", checks.notes.len() - SHOWN);
    }
    let e2e_values = end_to_end_values(e2e);
    let mut metrics = Vec::new();
    if trace {
        let ungated: &[(&'static str, &'static str)] = if gated { &[] } else { &UNGATED_LAYERS };
        for &(name, unit) in PER_LAYER.iter().chain(ungated) {
            let value = layers.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "{name} {value} {unit}");
            metrics.push((name, value, unit));
        }
    } else {
        for ((name, unit), value) in END_TO_END.iter().zip(e2e_values) {
            let _ = writeln!(out, "{name} {value} {unit}");
            metrics.push((name, value, unit));
        }
        let _ = writeln!(out, "latency_samples {} count", e2e.samples);
        for line in &e2e.extra {
            let _ = writeln!(out, "{line}");
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    out
}

fn end_to_end_values(e2e: &EndToEnd) -> [f64; 6] {
    [
        e2e.setup_s,
        peak_rss_mb(),
        e2e.rays_per_s,
        e2e.p50_ms,
        e2e.p90_ms,
        e2e.mean_ms,
    ]
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mismatches_count_as_failures() {
        let mut checks = Checks::default();
        checks.expect_eq("hits", 10, 10);
        assert_eq!(checks.failed, 0);
        checks.expect_eq("hits", 10, 13);
        assert_eq!(checks.failed, 3);
        assert_eq!(checks.notes.len(), 1);
    }

    #[test]
    fn every_span_metric_is_in_the_catalogue() {
        for (_, metric, _) in SPAN_METRICS {
            assert!(
                PER_LAYER
                    .iter()
                    .chain(&UNGATED_LAYERS)
                    .any(|(n, _)| *n == metric),
                "{metric}"
            );
        }
    }
}
