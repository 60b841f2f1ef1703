//! Input preparation shared by the workloads: every scene comes through
//! the artifact store, as experiment and service processes get theirs.

use crate::Run;
use rip_bvh::Bvh;
use rip_exec::{CaseCache, CaseKey};
use rip_serve::{SceneLease, SceneRegistry};
use std::path::Path;
use std::sync::Arc;

/// Leases `key` from the artifact directory `dir`, as a later process
/// would: a cold registry lease builds the case and writes its artifacts
/// (`exec.lease`), then a second cache over the same directory maps them
/// back (`exec.artifact_map`). Returns the lease of the mapped case; a
/// mapped lease that was not served from disk is a failed operation.
pub fn lease(run: &Run, dir: &Path, key: CaseKey) -> SceneLease {
    let registry = |dir: &Path| {
        SceneRegistry::new(Arc::new(CaseCache::with_disk_dir(Some(dir.to_path_buf()))))
    };
    let cold = run.tracer.span("exec.lease", || registry(dir).get(key));
    drop(cold);
    let warm = registry(dir);
    let lease = run.tracer.span("exec.artifact_map", || warm.get(key));
    let stats = warm.cache().stats();
    let mut checks = run.setup_checks.borrow_mut();
    checks.attempt(1);
    checks.expect_eq(
        "exec.artifact_map: leases served from disk",
        1,
        stats.disk_hits,
    );
    checks.expect_eq("exec.artifact_map: cases rebuilt", 0, stats.builds);
    lease
}

/// In a traced run, times direct calls of the scene synthesis and BVH
/// build that the cold lease ran inside `rip-exec`, so the lease's self
/// time splits into synthesis, build and artifact write.
pub fn probe_build(run: &Run, keys: &[CaseKey]) {
    if !run.args.trace {
        return;
    }
    run.tracer.span("bench.probe", || {
        for key in keys {
            let scene = run.tracer.span("scene.synth", || {
                key.id.build_with_viewport(key.scale, key.width, key.height)
            });
            let triangles: Vec<_> = scene.mesh.triangles().collect();
            let bvh = run.tracer.span("bvh.build", || Bvh::build(&triangles));
            std::hint::black_box(bvh.node_count());
        }
    });
}
