//! Replay-vs-live differential suite for the trace-driven replay pipeline.
//!
//! The contract (DESIGN.md §12): capture-then-replay is an *optimization*,
//! never a model change. Every one of the 23 experiments must render the
//! exact same report text whether its functional and timing runs traverse
//! the BVH live or replay recorded RIPT streams (`--replay`) — at **any**
//! worker-thread count.
//! The `gpusim.*` counter registry mirrored from the timing simulator must
//! likewise diff to zero between a live and a replayed run, which is what
//! makes the replay path auditable rather than merely plausible.

use rip_bench::{experiments, Context, SceneSelection, TraceMode};
use rip_obs::{ClockMode, Obs};
use rip_scene::SceneScale;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scene keeps the debug-mode suite affordable; every experiment and
/// every sweep configuration still runs.
const SCENES: SceneSelection = SceneSelection::Subset(1);

fn context(mode: TraceMode, jobs: usize) -> (Context, Arc<Obs>) {
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let mut ctx = Context::scoped(SceneScale::Tiny, SCENES, jobs, Arc::clone(&obs));
    ctx.set_trace_mode(mode);
    (ctx, obs)
}

/// The simulator-owned slice of the registry. Capture/replay bookkeeping
/// lives in `exec.trace.*` / `bench.trace.*` by design, precisely so this
/// slice can be required to match exactly between modes.
fn gpusim_counters(obs: &Obs) -> BTreeMap<String, u64> {
    obs.registry()
        .snapshot()
        .into_iter()
        .filter(|(path, _)| path.starts_with("gpusim."))
        .collect()
}

/// Runs all 23 experiments under `mode` at `jobs` worker threads and
/// returns (per-experiment report texts, mirrored `gpusim.*` registry,
/// trace-store counters).
fn run_all(mode: TraceMode, jobs: usize) -> (Vec<String>, BTreeMap<String, u64>, Arc<Obs>) {
    let (ctx, obs) = context(mode, jobs);
    let reports = experiments::run_all(&ctx);
    assert_eq!(reports.len(), experiments::ALL.len());
    let texts = reports.iter().map(|r| r.to_string()).collect();
    let counters = gpusim_counters(&obs);
    (texts, counters, obs)
}

fn diff_reports(label: &str, live: &[String], other: &[String]) {
    for (((name, _), a), b) in experiments::ALL.iter().zip(live).zip(other) {
        assert_eq!(
            a, b,
            "{name}: report text diverged between live and {label}"
        );
    }
}

fn diff_registries(label: &str, live: &BTreeMap<String, u64>, other: &BTreeMap<String, u64>) {
    let mismatches: Vec<String> = live
        .iter()
        .filter(|(path, value)| other.get(*path) != Some(value))
        .map(|(path, value)| {
            format!(
                "{path}: live {value} vs {label} {:?}",
                other.get(path.as_str())
            )
        })
        .chain(
            other
                .keys()
                .filter(|path| !live.contains_key(*path))
                .map(|path| format!("{path}: only present under {label}")),
        )
        .collect();
    assert!(
        mismatches.is_empty(),
        "gpusim.* registry diverged between live and {label}:\n{}",
        mismatches.join("\n")
    );
    assert!(
        !live.is_empty(),
        "no gpusim.* counters were mirrored — the differential would be vacuous"
    );
}

/// The tentpole differential: all 23 experiments, live versus
/// capture→replay, report-for-report and counter-for-counter, with the
/// replay side exercised at 1, 4 and 8 worker threads. The trace store
/// captures each workload once however the workers race, so its capture
/// count is the same at every job count.
#[test]
fn all_experiments_replay_byte_identical_to_live_at_every_job_count() {
    let (live_texts, live_counters, _live_obs) = run_all(TraceMode::Off, 2);

    let mut captures = Vec::new();
    for jobs in [1usize, 4, 8] {
        let (texts, counters, obs) = run_all(TraceMode::Replay, jobs);
        let label = format!("replay at --jobs {jobs}");
        diff_reports(&label, &live_texts, &texts);
        diff_registries(&label, &live_counters, &counters);
        assert_eq!(
            obs.get("bench.trace.replay_fallback"),
            0,
            "{label}: every replay-capable run must actually replay"
        );
        assert!(
            obs.get("exec.trace.memory_hit") > 0,
            "{label}: sweep configurations after the first must hit the store"
        );
        captures.push(obs.get("exec.trace.capture"));
    }
    assert!(
        captures[0] > 0,
        "replay mode captures each workload on a miss"
    );
    assert!(
        captures.iter().all(|&n| n == captures[0]),
        "exec.trace.capture differs across --jobs 1, 4, 8: {captures:?}"
    );
}

/// The §6.2.5 determinism matrix: the per-SM sweep report is one byte
/// stream across {live, replay} × {--jobs 1, 4, 8}, and the normalized
/// RIPT trace of its workload is one byte stream at every capture thread
/// count. Six report cells plus three capture cells, all pinned to a
/// single reference.
#[test]
fn sec625_report_and_normalized_trace_are_identical_across_the_matrix() {
    let sec625 = |mode: TraceMode, jobs: usize| {
        let (ctx, _) = context(mode, jobs);
        let (_, run) = experiments::ALL
            .iter()
            .find(|(name, _)| *name == "sec625_sm_sweep")
            .expect("sec625_sm_sweep is one of the 23 experiments");
        run(&ctx).to_string()
    };
    let reference = sec625(TraceMode::Off, 1);
    for jobs in [1usize, 4, 8] {
        for (label, mode) in [("live", TraceMode::Off), ("replay", TraceMode::Replay)] {
            assert_eq!(
                reference,
                sec625(mode, jobs),
                "sec625 report diverged under {label} at --jobs {jobs}"
            );
        }
    }

    // The recorded trace itself: capturing the sec625 workload sharded
    // over 1, 4 and 8 threads must produce the same RIPT container bytes.
    let (ctx, _) = context(TraceMode::Off, 1);
    let case = ctx.build_case(ctx.scene_ids()[0]);
    let batch = case.ao_batch();
    let capture_bytes = |threads: usize| {
        rip_exec::TraceStore::in_memory_only()
            .with_parallelism(threads)
            .get_or_capture(
                "sec625_matrix",
                &case.bvh,
                &batch,
                rip_bvh::TraversalKind::AnyHit,
            )
            .encode()
    };
    let one = capture_bytes(1);
    assert!(!one.is_empty());
    for threads in [4usize, 8] {
        assert_eq!(
            one,
            capture_bytes(threads),
            "normalized RIPT bytes diverged at capture parallelism {threads}"
        );
    }
}
