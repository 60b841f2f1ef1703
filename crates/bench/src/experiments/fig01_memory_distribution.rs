//! Figure 1: distribution of memory accesses for AO workloads (left) and
//! speedups of varying L1 cache sizes without the predictor (right).

use crate::{fmt_pct, Context, Report, Table};
use rip_bvh::{Bvh, RayBatch, Traversal, TraversalKind};

/// Regenerates both panels of Figure 1.
pub fn run(ctx: &Context) -> Report {
    let mut report = Report::new("Figure 1: AO memory-access distribution & L1 size sweep");

    // Left panel: classify baseline accesses. The paper reports ~88%
    // repeated BVH node accesses averaged over the seven scenes.
    let mut left = Table::new(&[
        "Scene",
        "Repeated node",
        "First-touch node",
        "Repeated tri",
        "First-touch tri",
    ]);
    let mut repeated_fracs = Vec::new();
    let left_results = ctx.map_cases("fig01_left", |case| {
        let (nodes, tris) = classify(&case.bvh, &case.ao_batch());
        let total = (nodes.first + nodes.repeated + tris.first + tris.repeated) as f64;
        let frac = |x: u64| if total == 0.0 { 0.0 } else { x as f64 / total };
        [
            frac(nodes.repeated),
            frac(nodes.first),
            frac(tris.repeated),
            frac(tris.first),
        ]
    });
    for (id, [rn, fn_, rt, ft]) in ctx.scene_ids().into_iter().zip(left_results) {
        left.row(&[
            id.code().to_string(),
            fmt_pct(rn),
            fmt_pct(fn_),
            fmt_pct(rt),
            fmt_pct(ft),
        ]);
        repeated_fracs.push(rn);
    }
    let mean_repeated = repeated_fracs.iter().sum::<f64>() / repeated_fracs.len().max(1) as f64;
    report.line("Left panel — per-unique-ray access classification (paper: ~88% repeated node):");
    report.line(left.render());
    report.line(format!(
        "Average repeated-BVH-node fraction: {}",
        fmt_pct(mean_repeated)
    ));
    report.metric("mean_repeated_node_fraction", mean_repeated);

    // Right panel: baseline speedup vs L1 size (relative to 64 KB), first
    // scene subset to bound runtime.
    let sizes_kb = [16usize, 32, 64, 128, 256, 384, 512, 1024];
    let scene_ids = ctx.scene_ids();
    let sweep_scenes = &scene_ids[..scene_ids.len().min(3)];
    let mut right = Table::new(&["L1 size", "Speedup vs 64KB (geomean)"]);
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes_kb.len()];
    let right_results = ctx.map_scenes("fig01_right", sweep_scenes, |id| {
        let case = ctx.build_case_with_viewport(id, ctx.sweep_viewport());
        let batch = case.ao_batch();
        let cycles: Vec<f64> = sizes_kb
            .iter()
            .map(|&kb| {
                let mut cfg = ctx.gpu_baseline();
                cfg.l1 = cfg.l1.with_size(kb * 1024);
                ctx.simulator_for(cfg, &case, &batch)
                    .run_batch(&case.bvh, &batch)
                    .cycles as f64
            })
            .collect();
        let base = cycles[sizes_kb
            .iter()
            .position(|&k| k == 64)
            .expect("64KB present")];
        cycles.into_iter().map(|c| base / c).collect::<Vec<_>>()
    });
    for per_scene in right_results {
        for (i, speedup) in per_scene.into_iter().enumerate() {
            per_size[i].push(speedup);
        }
    }
    for (i, &kb) in sizes_kb.iter().enumerate() {
        let gm = super::geomean_or_one(per_size[i].iter().copied());
        right.row(&[format!("{kb}KB"), format!("{gm:.3}")]);
        report.metric(format!("l1_speedup_{kb}kb"), gm);
    }
    report.line("Right panel — baseline (no predictor) speedup vs L1 capacity:");
    report.line(right.render());
    report
}

/// First-touch vs repeated fetches of one kind of baseline element.
struct Touches {
    seen: Vec<bool>,
    first: u64,
    repeated: u64,
}

impl Touches {
    fn new(elements: usize) -> Self {
        Touches {
            seen: vec![false; elements],
            first: 0,
            repeated: 0,
        }
    }

    fn fetch(&mut self, element: u32) {
        if std::mem::replace(&mut self.seen[element as usize], true) {
            self.repeated += 1;
        } else {
            self.first += 1;
        }
    }
}

/// Walks each ray's baseline any-hit traversal in batch order and splits
/// its node and triangle fetches into first touches of the render and
/// repeats.
fn classify(bvh: &Bvh, batch: &RayBatch) -> (Touches, Touches) {
    let mut nodes = Touches::new(bvh.node_count());
    let mut tris = Touches::new(bvh.triangle_count());
    let mut tested = Vec::new();
    for i in 0..batch.len() {
        let ray = batch.ray(i);
        let mut traversal = Traversal::new(TraversalKind::AnyHit);
        while let Some(node) = traversal.current_request() {
            nodes.fetch(node.index());
            tested.clear();
            traversal.step(bvh, &ray, &mut tested);
            tested.iter().for_each(|&t| tris.fetch(t));
        }
    }
    (nodes, tris)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Case;
    use crate::SceneSelection;
    use rip_obs::{ClockMode, Obs};
    use rip_scene::{SceneId, SceneScale};
    use std::sync::Arc;

    fn tiny_case() -> Arc<Case> {
        let obs = Arc::new(Obs::new(ClockMode::Logical));
        let ctx = Context::scoped(SceneScale::Tiny, SceneSelection::Subset(1), 1, obs);
        ctx.build_case_with_viewport(SceneId::Sibenik, 16)
    }

    #[test]
    fn classes_partition_the_baseline_fetches() {
        let case = tiny_case();
        let batch = case.ao_batch();
        let (nodes, tris) = classify(&case.bvh, &batch);
        let (mut node_fetches, mut tri_fetches) = (0, 0);
        for i in 0..batch.len() {
            let stats = Traversal::new(TraversalKind::AnyHit)
                .run(&case.bvh, &batch.ray(i))
                .stats;
            node_fetches += stats.node_fetches();
            tri_fetches += stats.tri_fetches;
        }
        assert_eq!(nodes.first + nodes.repeated, node_fetches);
        assert_eq!(tris.first + tris.repeated, tri_fetches);
    }

    #[test]
    fn a_repeated_ray_fetches_only_repeats() {
        let case = tiny_case();
        let ray = case.ao_batch().ray(0);
        let (once_nodes, once_tris) = classify(&case.bvh, &RayBatch::from_rays(&[ray]));
        let (nodes, tris) = classify(&case.bvh, &RayBatch::from_rays(&[ray, ray]));
        for (once, twice) in [(once_nodes, nodes), (once_tris, tris)] {
            assert_eq!(twice.first, once.first);
            assert_eq!(twice.repeated, 2 * once.repeated + once.first);
        }
    }

    #[test]
    fn repeated_accesses_dominate_baseline() {
        // The Figure-1 observation: most accesses are to already-seen nodes.
        let case = tiny_case();
        let (nodes, tris) = classify(&case.bvh, &case.ao_batch());
        let total = nodes.first + nodes.repeated + tris.first + tris.repeated;
        let fraction = nodes.repeated as f64 / total as f64;
        assert!(fraction > 0.5, "repeated fraction {fraction}");
    }
}
