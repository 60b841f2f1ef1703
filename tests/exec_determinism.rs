//! Determinism and artifact-cache guarantees of the `rip-exec` engine
//! (ISSUE: parallel output must be byte-identical to serial, and cache
//! hits must return exactly the artifact a fresh build would produce).

use rip_bench::{experiments, Context, SceneSelection};
use rip_exec::{Case, CaseCache, CaseKey, JobPool};
use rip_obs::{ClockMode, Obs};
use rip_scene::{SceneScale, SCENE_IDS};
use rip_testkit::obs::{normalize_trace, validate_trace};
use std::sync::Arc;

/// A representative slice of the schedule: a per-scene table, a config
/// sweep, and a module with skippable rows.
const PROBES: [&str; 3] = ["fig12_speedup", "fig14_go_up_level", "ext_shadow_rays"];

#[test]
fn experiment_output_is_identical_at_any_job_count() {
    for probe in PROBES {
        let (_, run) = experiments::ALL
            .iter()
            .find(|(name, _)| *name == probe)
            .expect("probe experiment exists in the schedule");
        let serial = run(&Context::with_jobs(
            SceneScale::Tiny,
            SceneSelection::Subset(2),
            1,
        ));
        let parallel = run(&Context::with_jobs(
            SceneScale::Tiny,
            SceneSelection::Subset(2),
            4,
        ));
        assert_eq!(
            serial.text, parallel.text,
            "{probe}: report text diverged between --jobs 1 and --jobs 4"
        );
        assert_eq!(
            serial.metrics, parallel.metrics,
            "{probe}: metrics diverged between --jobs 1 and --jobs 4"
        );
    }
}

/// Runs the probe experiments under an isolated, tracing-enabled
/// [`Obs`] and returns the final counter snapshot plus the normalized
/// trace (ts/dur/tid and wall-time args stripped, lines sorted).
fn traced_run(jobs: usize) -> (std::collections::BTreeMap<String, u64>, String) {
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    obs.trace().enable();
    let ctx = Context::scoped(
        SceneScale::Tiny,
        SceneSelection::Subset(2),
        jobs,
        Arc::clone(&obs),
    );
    for probe in PROBES {
        let (_, run) = experiments::ALL
            .iter()
            .find(|(name, _)| *name == probe)
            .expect("probe experiment exists in the schedule");
        run(&ctx);
    }
    let jsonl = obs.export_trace_jsonl();
    validate_trace(&jsonl).expect("traced run must export schema-valid JSONL");
    let normalized = normalize_trace(&jsonl).expect("trace must normalize");
    (obs.registry().snapshot(), normalized)
}

#[test]
fn traced_counters_and_traces_are_schedule_independent() {
    let (counters_serial, trace_serial) = traced_run(1);
    let (counters_parallel, trace_parallel) = traced_run(4);

    assert!(
        counters_serial
            .get("exec.cache.build")
            .copied()
            .unwrap_or(0)
            > 0,
        "probe runs should exercise the case cache: {counters_serial:?}"
    );
    assert!(
        counters_serial.keys().any(|k| k.starts_with("gpusim.")),
        "probe runs should exercise the simulator: {counters_serial:?}"
    );
    assert_eq!(
        counters_serial, counters_parallel,
        "counter totals diverged between --jobs 1 and --jobs 4"
    );
    assert!(
        !trace_serial.is_empty(),
        "traced run should record spans and events"
    );
    assert_eq!(
        trace_serial, trace_parallel,
        "normalized traces diverged between --jobs 1 and --jobs 4"
    );
}

#[test]
fn run_all_report_order_is_fixed() {
    let ctx = Context::with_jobs(SceneScale::Tiny, SceneSelection::Subset(1), 4);
    let reports = experiments::run_all(&ctx);
    assert_eq!(reports.len(), experiments::ALL.len());
    // Reports must come back in paper order even when experiments finish
    // out of order under the shared pool.
    let first = &reports[0].id;
    assert!(
        first.contains("Table 1"),
        "first report should be Table 1, got {first}"
    );
}

#[test]
fn cache_hit_returns_bvh_identical_to_fresh_build() {
    let key = CaseKey::square(SCENE_IDS[0], SceneScale::Tiny, 64);
    let cache = CaseCache::in_memory_only();
    let first = cache.get_or_build(key);
    let hit = cache.get_or_build(key);
    assert!(
        std::sync::Arc::ptr_eq(&first, &hit),
        "second lookup must be a memory hit"
    );
    assert_eq!(cache.stats().builds, 1);
    assert_eq!(cache.stats().memory_hits, 1);

    hit.bvh.validate().expect("cached BVH must validate");
    let fresh = Case::build(key);
    assert_eq!(
        rip_bvh::serial::encode(&hit.bvh),
        rip_bvh::serial::encode(&fresh.bvh),
        "cached node buffer must equal a fresh build"
    );
}

#[test]
fn disk_artifacts_round_trip_across_cache_instances() {
    let dir = std::env::temp_dir().join(format!("rip-exec-itest-{}", std::process::id()));
    let key = CaseKey::square(SCENE_IDS[1], SceneScale::Tiny, 64);

    let writer = CaseCache::with_disk_dir(Some(dir.clone()));
    let built = writer.get_or_build(key);
    assert_eq!(writer.stats().builds, 1);

    // A second cache instance (fresh process, in effect) must load from
    // disk without rebuilding and reproduce the exact artifact.
    let reader = CaseCache::with_disk_dir(Some(dir.clone()));
    let loaded = reader.get_or_build(key);
    assert_eq!(
        reader.stats().disk_hits,
        1,
        "expected a disk hit, not a rebuild"
    );
    assert_eq!(reader.stats().builds, 0);
    loaded.bvh.validate().expect("decoded BVH must validate");
    assert_eq!(
        rip_bvh::serial::encode(&built.bvh),
        rip_bvh::serial::encode(&loaded.bvh)
    );
    assert_eq!(built.scene, loaded.scene, "the view must round-trip");
    assert!(loaded.bvh.is_shared(), "the BVH must borrow the artifact");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_pool_preserves_input_order() {
    let pool = JobPool::new(4);
    let items: Vec<u64> = (0..64).collect();
    let doubled = pool.map(&items, |&x| x * 2);
    assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}
