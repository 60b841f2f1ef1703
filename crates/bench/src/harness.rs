//! Shared experiment scaffolding: scales, scene cases, GPU
//! configurations, and the parallel execution context.
//!
//! Every experiment receives a [`Context`]: scale and scene coverage plus
//! a [`JobPool`] and a process-shared [`CaseCache`] so scenes and BVHs
//! are built once per `(scene, scale, viewport)` no matter how many
//! experiments touch them, and persisted to the on-disk artifact store
//! for later runs. Parallel runs collect results in input order, so
//! experiment output is byte-identical at any `--jobs` count.

use rip_bvh::ript::RayTraceSet;
use rip_bvh::{RayBatch, TraversalKind};
use rip_core::{FunctionalReport, FunctionalSim};
use rip_exec::{CaseCache, CaseKey, JobPool, ShardedRunner, TraceStore};
use rip_gpusim::{GpuConfig, Simulator};
use rip_obs::{Obs, TraceFileGuard};
use rip_scene::{SceneId, SceneScale, SCENE_IDS};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub use rip_exec::Case;

/// How experiments interact with recorded RIPT ray traces.
///
/// `Capture` runs every experiment live but records each workload's
/// traversal trace into the [`TraceStore`] (memory tier plus
/// `$RIP_TRACE_DIR` disk tier). `Replay` resolves the trace — capturing
/// on a miss — and feeds it back to the simulators
/// (`FunctionalSim::run`'s trace, `Simulator::with_trace`), so a
/// parameter sweep pays for one functional traversal per workload
/// instead of one per configuration. Replayed results are byte-identical
/// to live runs; `rip-testkit`'s differential suite holds both paths to
/// that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// No trace interaction (the default).
    #[default]
    Off,
    /// Run live, recording traces for later replay.
    Capture,
    /// Replay recorded traces, capturing any that are missing.
    Replay,
}

/// Which benchmark scenes an experiment covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SceneSelection {
    /// All seven Table-1 scenes.
    All,
    /// The first `n` scenes (cheap smoke runs / parameter sweeps).
    Subset(usize),
    /// An explicit list.
    Explicit(Vec<SceneId>),
}

/// Execution context shared by every experiment.
#[derive(Clone)]
pub struct Context {
    /// Geometry/workload scale.
    pub scale: SceneScale,
    /// Scene coverage.
    pub selection: SceneSelection,
    jobs: usize,
    pool: JobPool,
    cache: Arc<CaseCache>,
    obs: Arc<Obs>,
    trace: Option<Arc<TraceFileGuard>>,
    /// `--trace PATH` seen during parsing, installed by
    /// [`Context::from_arg_slice`].
    trace_request: Option<PathBuf>,
    trace_mode: TraceMode,
    trace_store: Arc<TraceStore>,
    /// Memoized per-workload ray-hash streams, keyed by (batch content
    /// digest, hasher fingerprint). The spherical hash pays real
    /// trigonometry per ray and is a pure function of that key, so a
    /// parameter sweep (or a capture-then-replay pass) hashes each
    /// workload once instead of once per configuration.
    hash_memo: Arc<HashMemo>,
}

/// Bounded map behind [`Context`]'s per-workload hash-stream memo.
type HashMemo = Mutex<HashMap<(u64, u64), Arc<Vec<u32>>>>;

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("scale", &self.scale)
            .field("selection", &self.selection)
            .field("jobs", &self.jobs)
            .finish()
    }
}

/// Outcome of parsing a command line (see [`Context::parse_args`]).
#[derive(Debug)]
pub enum ParsedArgs {
    /// Run with this context.
    Run(Context),
    /// `--help` was requested.
    Help,
}

impl Context {
    /// Creates a context with default parallelism (`RIP_JOBS` env
    /// override, else available parallelism).
    pub fn new(scale: SceneScale, selection: SceneSelection) -> Self {
        Context::with_jobs(scale, selection, jobs_from_env())
    }

    /// Creates a context with an explicit worker-thread count.
    pub fn with_jobs(scale: SceneScale, selection: SceneSelection, jobs: usize) -> Self {
        Context::assemble(
            scale,
            selection,
            jobs,
            Arc::clone(Obs::global()),
            CaseCache::new(),
            TraceStore::new(),
        )
    }

    /// A context with an isolated [`Obs`] instance and an in-memory-only
    /// case cache — for tests that compare counter totals or traces
    /// across runs without cross-test pollution or disk-tier asymmetry.
    pub fn scoped(
        scale: SceneScale,
        selection: SceneSelection,
        jobs: usize,
        obs: Arc<Obs>,
    ) -> Self {
        Context::assemble(
            scale,
            selection,
            jobs,
            obs,
            CaseCache::in_memory_only(),
            TraceStore::in_memory_only(),
        )
    }

    fn assemble(
        scale: SceneScale,
        selection: SceneSelection,
        jobs: usize,
        obs: Arc<Obs>,
        cache: CaseCache,
        trace_store: TraceStore,
    ) -> Self {
        let jobs = jobs.max(1);
        Context {
            scale,
            selection,
            jobs,
            pool: JobPool::new(jobs),
            cache: Arc::new(cache.with_obs(Arc::clone(&obs))),
            trace_store: Arc::new(trace_store.with_obs(Arc::clone(&obs)).with_parallelism(
                // More capture threads than hardware threads is pure
                // scheduling overhead; byte-identity holds regardless.
                jobs.min(std::thread::available_parallelism().map_or(1, |n| n.get())),
            )),
            obs,
            trace: None,
            trace_request: None,
            trace_mode: TraceMode::Off,
            hash_memo: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The usage text shared by every experiment binary.
    pub fn usage() -> &'static str {
        "USAGE: <experiment> [OPTIONS]\n\
         \n\
         OPTIONS:\n\
         \x20 --scale tiny|quick|paper  geometry/workload scale (default: quick)\n\
         \x20 --scenes N                restrict to the first N Table-1 scenes\n\
         \x20 --jobs N                  worker threads (default: RIP_JOBS env, else\n\
         \x20                           available parallelism; 1 = serial)\n\
         \x20 --trace PATH              write a chrome://tracing JSONL trace to PATH\n\
         \x20 --capture-trace           run live, recording RIPT ray traces for replay\n\
         \x20 --replay                  replay recorded ray traces (capture on miss);\n\
         \x20                           results are byte-identical to live runs\n\
         \x20 --help                    print this help\n\
         \n\
         ENVIRONMENT:\n\
         \x20 RIP_JOBS         default worker-thread count\n\
         \x20 RIP_CACHE_DIR    scene/BVH artifact store (set empty to disable;\n\
         \x20                  default: <system temp dir>/rip-artifacts)\n\
         \x20 RIP_TRACE        default trace path for --trace (set empty to disable)\n\
         \x20 RIP_TRACE_CLOCK  trace timestamp source: wall (default) or logical\n\
         \x20 RIP_TRACE_DIR    RIPT ray-trace store for --capture-trace/--replay (set\n\
         \x20                  empty to disable the disk tier; default: <system temp\n\
         \x20                  dir>/rip-traces)\n\
         \n\
         Output at a given scale is byte-identical for every --jobs value;\n\
         with tracing enabled, counter totals and normalized traces are too."
    }

    /// Parses a context from command-line arguments; the production entry
    /// point is [`Context::from_args`].
    ///
    /// Malformed values (`--scale mars`, `--jobs zero`, missing operands)
    /// are errors. Unknown arguments are *not* errors — they are reported
    /// on stderr and ignored so binaries can grow private flags — but a
    /// `--help` anywhere wins.
    pub fn parse_args(args: &[String]) -> Result<ParsedArgs, String> {
        let mut scale = SceneScale::Quick;
        let mut selection = SceneSelection::All;
        let mut jobs = None;
        let mut trace_request: Option<PathBuf> = None;
        let mut trace_mode = TraceMode::Off;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => return Ok(ParsedArgs::Help),
                "--scale" => {
                    let v = it
                        .next()
                        .ok_or("--scale requires a value (tiny|quick|paper)")?;
                    scale = SceneScale::parse(v).ok_or_else(|| {
                        format!("unknown scale '{v}' (expected tiny|quick|paper)")
                    })?;
                }
                "--scenes" => {
                    let v = it.next().ok_or("--scenes requires a count")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid scene count '{v}' (expected a number)"))?;
                    if n == 0 {
                        return Err("--scenes must be at least 1".into());
                    }
                    selection = SceneSelection::Subset(n.min(SCENE_IDS.len()));
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs requires a count")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid job count '{v}' (expected a number)"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    jobs = Some(n);
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace requires a path")?;
                    if v.is_empty() {
                        return Err("--trace requires a non-empty path".into());
                    }
                    trace_request = Some(PathBuf::from(v));
                }
                "--capture-trace" => trace_mode = TraceMode::Capture,
                "--replay" => trace_mode = TraceMode::Replay,
                other => {
                    eprintln!("warning: ignoring unknown argument '{other}' (see --help)");
                }
            }
        }
        let mut ctx = Context::with_jobs(scale, selection, jobs.unwrap_or_else(jobs_from_env));
        ctx.trace_request = trace_request;
        ctx.trace_mode = trace_mode;
        Ok(ParsedArgs::Run(ctx))
    }

    /// Parses the process arguments, printing help or errors as needed.
    ///
    /// Exits with status 0 after printing usage for `--help`, and with
    /// status 2 (plus a stderr diagnostic and the usage text) on
    /// malformed arguments. Also installs the context's job count as the
    /// process-wide budget so nested pools share it.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Context::from_arg_slice(&args, Context::usage())
    }

    /// Like [`Context::from_args`] but over an explicit argument slice and
    /// usage text — for binaries (such as `run_all`) that extract their
    /// own private flags first and pass the remainder through.
    pub fn from_arg_slice(args: &[String], usage: &str) -> Self {
        match Context::parse_args(args) {
            Ok(ParsedArgs::Run(mut ctx)) => {
                rip_exec::set_global_budget(ctx.jobs);
                let trace_path = ctx.trace_request.take().or_else(|| {
                    std::env::var("RIP_TRACE")
                        .ok()
                        .filter(|v| !v.is_empty())
                        .map(PathBuf::from)
                });
                if let Some(path) = trace_path {
                    ctx.install_trace(path);
                }
                ctx
            }
            Ok(ParsedArgs::Help) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    /// The scene ids this context covers.
    pub fn scene_ids(&self) -> Vec<SceneId> {
        match &self.selection {
            SceneSelection::All => SCENE_IDS.to_vec(),
            SceneSelection::Subset(n) => SCENE_IDS[..(*n).min(SCENE_IDS.len())].to_vec(),
            SceneSelection::Explicit(ids) => ids.clone(),
        }
    }

    /// Worker threads this context targets (1 = serial).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The job pool experiments schedule onto.
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// The shared scene/BVH cache.
    pub fn cache(&self) -> &CaseCache {
        &self.cache
    }

    /// The observability instance this context's cache, runners, and
    /// simulators report into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Enables tracing on this context's [`Obs`] instance and arranges
    /// for the trace to be written to `path` when the context (strictly:
    /// its last clone) is dropped — or earlier via
    /// [`Context::flush_trace`].
    pub fn install_trace(&mut self, path: impl Into<PathBuf>) {
        self.trace = Some(Arc::new(TraceFileGuard::new(Arc::clone(&self.obs), path)));
    }

    /// The installed trace file guard, when `--trace`/`RIP_TRACE` (or
    /// [`Context::install_trace`]) enabled tracing.
    pub fn trace_guard(&self) -> Option<&Arc<TraceFileGuard>> {
        self.trace.as_ref()
    }

    /// Writes the pending trace file now, if tracing is enabled — call
    /// before `std::process::exit`, which skips destructors.
    pub fn flush_trace(&self) {
        if let Some(guard) = &self.trace {
            guard.flush();
        }
    }

    /// The counter-registry summary table (every `exec.*`, `gpusim.*`,
    /// `predictor.*` total recorded so far), followed — when tracing is
    /// enabled and spans were recorded — by per-span latency
    /// percentiles (p50/p95/p99) aggregated from the trace. Rendered
    /// onto stderr by `run_all` after the experiment tables.
    pub fn metrics_summary(&self) -> String {
        let mut out = self.obs.registry().summary_table();
        let spans = self.obs.span_latency_summary();
        if !spans.is_empty() {
            out.push_str("span latency percentiles:\n");
            out.push_str(&spans);
        }
        out
    }

    /// A sharded runner named `name` on this context's pool, reporting
    /// into this context's [`Obs`] instance.
    pub fn runner(&self, name: &str) -> ShardedRunner<'_> {
        ShardedRunner::new(&self.pool, name).with_obs(Arc::clone(&self.obs))
    }

    /// A simulator for `config` whose `gpusim.*` counters land in this
    /// context's [`Obs`] instance. Experiments construct simulators
    /// through here so scoped contexts observe their own runs.
    pub fn simulator(&self, config: GpuConfig) -> Simulator {
        Simulator::new(config).with_obs(Arc::clone(&self.obs))
    }

    /// The trace mode selected by `--capture-trace`/`--replay` (default
    /// [`TraceMode::Off`]).
    pub fn trace_mode(&self) -> TraceMode {
        self.trace_mode
    }

    /// Overrides the trace mode — for tests and drivers (`replay_bench`)
    /// that flip one context between live and replay runs.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace_mode = mode;
    }

    /// The shared store of recorded RIPT ray traces.
    pub fn trace_store(&self) -> &Arc<TraceStore> {
        &self.trace_store
    }

    /// Resolves the recorded trace for `batch` against `case` under the
    /// current [`TraceMode`]: `None` when off, and under `Capture` too
    /// (the trace is recorded as a side effect but the experiment still
    /// runs live); `Some` only under `Replay`. Traces are keyed by the
    /// case label (scene, scale, viewport) plus a workload `tag`
    /// (`"ao"`, `"shadow"`, …) so the same workload is captured once per
    /// process no matter how many configurations sweep over it.
    pub fn workload_trace(
        &self,
        case: &Case,
        tag: &str,
        batch: &RayBatch,
        kind: TraversalKind,
    ) -> Option<Arc<RayTraceSet>> {
        if self.trace_mode == TraceMode::Off {
            return None;
        }
        let label = format!("{}_{tag}", self.trace_label(case));
        let set = self
            .trace_store
            .get_or_capture(&label, &case.bvh, batch, kind);
        match self.trace_mode {
            TraceMode::Off => unreachable!("handled above"),
            TraceMode::Capture => None,
            TraceMode::Replay => Some(set),
        }
    }

    /// A timing simulator for `config` with the recorded any-hit AO
    /// trace for `batch` attached when this context is replaying.
    /// Experiments that sweep gpusim configurations over a case's AO
    /// workload construct their simulators through here.
    pub fn simulator_for(&self, config: GpuConfig, case: &Case, batch: &RayBatch) -> Simulator {
        let sim = self.simulator(config);
        match self.workload_trace(case, "ao", batch, TraversalKind::AnyHit) {
            Some(set) => sim.with_trace(set),
            None => sim,
        }
    }

    /// Runs `sim` over a case's any-hit AO `batch`, replaying the
    /// recorded trace when this context is replaying (live otherwise,
    /// with the trace recorded as a side effect under `Capture`). A
    /// trace the functional simulator rejects — unreachable through
    /// [`TraceStore`]'s validation, but defended anyway — falls back to
    /// the live run and bumps `bench.trace.replay_fallback`.
    pub fn run_functional(
        &self,
        sim: &FunctionalSim,
        case: &Case,
        batch: &RayBatch,
    ) -> FunctionalReport {
        let kind = TraversalKind::AnyHit;
        let hashes = self.workload_hashes(sim, case, batch);
        let trace = self.workload_trace(case, "ao", batch, kind);
        sim.run(&case.bvh, batch, kind, Some(&hashes), trace.as_deref())
            .unwrap_or_else(|e| {
                eprintln!(
                    "warning: replay rejected for {}: {e}; running live",
                    case.id.code()
                );
                self.obs.add("bench.trace.replay_fallback", 1);
                sim.run(&case.bvh, batch, kind, Some(&hashes), None)
                    .expect("no trace to reject")
            })
    }

    /// The memoized ray-hash stream for `batch` under `sim`'s hasher.
    /// Reports are byte-identical with or without the memo — it only
    /// hoists a pure per-ray computation out of repeated runs.
    fn workload_hashes(&self, sim: &FunctionalSim, case: &Case, batch: &RayBatch) -> Arc<Vec<u32>> {
        let key = (batch.content_digest(), sim.hasher(&case.bvh).fingerprint());
        let mut memo = self.hash_memo.lock().expect("hash memo poisoned");
        if let Some(hashes) = memo.get(&key) {
            return Arc::clone(hashes);
        }
        // Hash-function sweeps at paper scale could otherwise pin one
        // multi-MB stream per (workload, hasher) for the whole process.
        if memo.len() >= 16 {
            memo.clear();
        }
        let hashes = Arc::new(sim.hash_batch(&case.bvh, batch));
        memo.insert(key, Arc::clone(&hashes));
        hashes
    }

    /// The stable store label for `case`'s workload: the case-key label
    /// (scene, scale, viewport), which pins everything that determines
    /// the AO ray set.
    fn trace_label(&self, case: &Case) -> String {
        CaseKey {
            id: case.id,
            scale: self.scale,
            width: case.scene.camera.width(),
            height: case.scene.camera.height(),
        }
        .label()
    }

    /// Fans `f` over this context's scenes (each given its built case),
    /// returning results in Table-1 order regardless of scheduling.
    pub fn map_cases<U: Send>(&self, name: &str, f: impl Fn(&Case) -> U + Sync) -> Vec<U> {
        self.map_scenes(name, &self.scene_ids(), |id| f(&self.build_case(id)))
    }

    /// Fans `f` over an explicit scene list (the closure builds whatever
    /// case/viewport it needs), returning results in input order.
    pub fn map_scenes<U: Send>(
        &self,
        name: &str,
        ids: &[SceneId],
        f: impl Fn(SceneId) -> U + Sync,
    ) -> Vec<U> {
        self.runner(name)
            .run(ids, |id| id.code().to_string(), |&id| f(id))
            .into_iter()
            .map(|report| report.into_value())
            .collect()
    }

    /// Viewport edge (square) for the main experiments. The paper renders
    /// 1024×1024; lower scales shrink the viewport with the scene budget so
    /// the ray density over the hash space stays comparable.
    pub fn viewport(&self) -> u32 {
        match self.scale {
            SceneScale::Tiny => 48,
            SceneScale::Quick => 256,
            SceneScale::Paper => 1024,
        }
    }

    /// Reduced viewport for parameter sweeps (quarter the ray count).
    pub fn sweep_viewport(&self) -> u32 {
        (self.viewport() / 2).max(32)
    }

    /// Returns the shared case (scene + BVH) for `id` at this context's
    /// scale, building it at most once per process.
    pub fn build_case(&self, id: SceneId) -> Arc<Case> {
        self.build_case_with_viewport(id, self.viewport())
    }

    /// Returns the shared case for an explicit viewport edge.
    pub fn build_case_with_viewport(&self, id: SceneId, viewport: u32) -> Arc<Case> {
        self.cache
            .get_or_build(CaseKey::square(id, self.scale, viewport))
    }

    /// The baseline Table-2 GPU configuration.
    pub fn gpu_baseline(&self) -> GpuConfig {
        GpuConfig::baseline()
    }

    /// The Table-3 predictor configuration with repacking.
    pub fn gpu_predictor(&self) -> GpuConfig {
        GpuConfig::with_predictor()
    }
}

/// `RIP_JOBS` env override, else the machine's available parallelism.
fn jobs_from_env() -> usize {
    match std::env::var("RIP_JOBS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring invalid RIP_JOBS='{v}' (expected a positive number)");
                rip_exec::available_parallelism()
            }
        },
        Err(_) => rip_exec::available_parallelism(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn selection_expansion() {
        let all = Context::new(SceneScale::Tiny, SceneSelection::All);
        assert_eq!(all.scene_ids().len(), 7);
        let two = Context::new(SceneScale::Tiny, SceneSelection::Subset(2));
        assert_eq!(
            two.scene_ids(),
            vec![SceneId::Sibenik, SceneId::CrytekSponza]
        );
        let explicit = Context::new(
            SceneScale::Tiny,
            SceneSelection::Explicit(vec![SceneId::LostEmpire]),
        );
        assert_eq!(explicit.scene_ids(), vec![SceneId::LostEmpire]);
    }

    #[test]
    fn viewports_scale() {
        let tiny = Context::new(SceneScale::Tiny, SceneSelection::All);
        let paper = Context::new(SceneScale::Paper, SceneSelection::All);
        assert!(tiny.viewport() < paper.viewport());
        assert_eq!(paper.viewport(), 1024);
        assert_eq!(tiny.sweep_viewport(), 32);
    }

    #[test]
    fn build_case_produces_consistent_bvh() {
        let ctx = Context::new(SceneScale::Tiny, SceneSelection::All);
        let case = ctx.build_case(SceneId::Sibenik);
        assert_eq!(case.bvh.triangle_count(), case.scene.mesh.triangle_count());
        case.bvh.validate().unwrap();
    }

    #[test]
    fn build_case_is_shared_across_requests() {
        let ctx = Context::new(SceneScale::Tiny, SceneSelection::All);
        let a = ctx.build_case(SceneId::Sibenik);
        let b = ctx.build_case(SceneId::Sibenik);
        assert!(Arc::ptr_eq(&a, &b));
        let clone = ctx.clone();
        let c = clone.build_case(SceneId::Sibenik);
        assert!(Arc::ptr_eq(&a, &c), "clones share the cache");
    }

    #[test]
    fn ao_workload_generates() {
        let ctx = Context::new(SceneScale::Tiny, SceneSelection::All);
        let case = ctx.build_case_with_viewport(SceneId::FireplaceRoom, 16);
        let w = case.ao_workload();
        assert!(!w.rays.is_empty());
    }

    #[test]
    fn parse_args_accepts_known_flags() {
        let parsed =
            Context::parse_args(&args(&["--scale", "tiny", "--scenes", "3", "--jobs", "2"]))
                .unwrap();
        let ParsedArgs::Run(ctx) = parsed else {
            panic!("expected a context")
        };
        assert_eq!(ctx.scale, SceneScale::Tiny);
        assert_eq!(ctx.selection, SceneSelection::Subset(3));
        assert_eq!(ctx.jobs(), 2);
    }

    #[test]
    fn parse_args_reports_malformed_values() {
        for bad in [
            &["--scale", "mars"][..],
            &["--scale"][..],
            &["--scenes", "zero"][..],
            &["--scenes", "0"][..],
            &["--jobs", "-3"][..],
            &["--jobs", "0"][..],
            &["--jobs"][..],
        ] {
            assert!(
                Context::parse_args(&args(bad)).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn parse_args_help_and_unknown() {
        assert!(matches!(
            Context::parse_args(&args(&["--help"])).unwrap(),
            ParsedArgs::Help
        ));
        assert!(matches!(
            Context::parse_args(&args(&["--scale", "tiny", "-h"])).unwrap(),
            ParsedArgs::Help
        ));
        // Unknown flags warn but do not fail.
        let parsed = Context::parse_args(&args(&["--frobnicate", "--scenes", "2"])).unwrap();
        let ParsedArgs::Run(ctx) = parsed else {
            panic!("expected a context")
        };
        assert_eq!(ctx.selection, SceneSelection::Subset(2));
    }

    #[test]
    fn scenes_clamp_to_suite_size() {
        let ParsedArgs::Run(ctx) = Context::parse_args(&args(&["--scenes", "99"])).unwrap() else {
            panic!("expected a context")
        };
        assert_eq!(ctx.selection, SceneSelection::Subset(7));
    }

    fn scoped_ctx(mode: TraceMode) -> Context {
        let obs = Arc::new(Obs::new(rip_obs::ClockMode::Logical));
        let mut ctx = Context::scoped(SceneScale::Tiny, SceneSelection::Subset(1), 1, obs);
        ctx.set_trace_mode(mode);
        ctx
    }

    #[test]
    fn parse_args_accepts_trace_modes() {
        let ParsedArgs::Run(ctx) = Context::parse_args(&args(&["--capture-trace"])).unwrap() else {
            panic!("expected a context")
        };
        assert_eq!(ctx.trace_mode(), TraceMode::Capture);
        let ParsedArgs::Run(ctx) = Context::parse_args(&args(&["--replay"])).unwrap() else {
            panic!("expected a context")
        };
        assert_eq!(ctx.trace_mode(), TraceMode::Replay);
        let ParsedArgs::Run(ctx) = Context::parse_args(&args(&[])).unwrap() else {
            panic!("expected a context")
        };
        assert_eq!(ctx.trace_mode(), TraceMode::Off);
    }

    #[test]
    fn workload_trace_respects_mode() {
        let ctx = scoped_ctx(TraceMode::Off);
        let case = ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let batch = case.ao_batch();
        assert!(ctx
            .workload_trace(&case, "ao", &batch, TraversalKind::AnyHit)
            .is_none());
        assert_eq!(ctx.trace_store().stats().captures, 0, "Off never captures");

        let ctx = scoped_ctx(TraceMode::Capture);
        let case = ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let batch = case.ao_batch();
        assert!(ctx
            .workload_trace(&case, "ao", &batch, TraversalKind::AnyHit)
            .is_none());
        assert_eq!(ctx.trace_store().stats().captures, 1, "Capture records");

        let ctx = scoped_ctx(TraceMode::Replay);
        let case = ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let batch = case.ao_batch();
        let a = ctx
            .workload_trace(&case, "ao", &batch, TraversalKind::AnyHit)
            .expect("replay resolves a trace");
        let b = ctx
            .workload_trace(&case, "ao", &batch, TraversalKind::AnyHit)
            .expect("second lookup hits the memory tier");
        assert!(Arc::ptr_eq(&a, &b), "one capture serves every sweep config");
        assert_eq!(ctx.trace_store().stats().captures, 1);
    }

    #[test]
    fn run_functional_replay_is_byte_identical_to_live() {
        use rip_core::{PredictorConfig, SimOptions};
        let live_ctx = scoped_ctx(TraceMode::Off);
        let replay_ctx = scoped_ctx(TraceMode::Replay);
        let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
        let case = live_ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let batch = case.ao_batch();
        let live = live_ctx.run_functional(&sim, &case, &batch);
        let case2 = replay_ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let replayed = replay_ctx.run_functional(&sim, &case2, &batch);
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        assert_eq!(
            replay_ctx.obs().get("bench.trace.replay_fallback"),
            0,
            "the validated trace must replay, not fall back"
        );
    }

    #[test]
    fn simulator_for_replay_matches_live_run() {
        let live_ctx = scoped_ctx(TraceMode::Off);
        let replay_ctx = scoped_ctx(TraceMode::Replay);
        let case = live_ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let batch = case.ao_batch();
        let live = live_ctx
            .simulator_for(live_ctx.gpu_predictor(), &case, &batch)
            .run_batch(&case.bvh, &batch);
        let case2 = replay_ctx.build_case_with_viewport(SceneId::Sibenik, 16);
        let replayed = replay_ctx
            .simulator_for(replay_ctx.gpu_predictor(), &case2, &batch)
            .run_batch(&case2.bvh, &batch);
        assert_eq!(format!("{live:?}"), format!("{replayed:?}"));
        assert_eq!(replay_ctx.obs().get("gpusim.trace.rejected"), 0);
    }

    #[test]
    fn map_cases_returns_table_order() {
        let ctx = Context::with_jobs(SceneScale::Tiny, SceneSelection::Subset(3), 3);
        let codes = ctx.map_cases("test", |case| case.id.code().to_string());
        assert_eq!(codes, vec!["SB", "SP", "LE"]);
    }
}
