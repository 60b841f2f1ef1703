//! Criterion macro-benchmark: a full AO workload through the functional
//! simulator and the cycle-level timing simulator, baseline vs predictor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};
use rip_gpusim::{GpuConfig, Simulator};
use rip_math::Triangle;
use rip_render::{AoConfig, AoWorkload};
use rip_scene::{SceneId, SceneScale};

fn end_to_end(c: &mut Criterion) {
    let scene = SceneId::FireplaceRoom.build_with_viewport(SceneScale::Tiny, 40, 40);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(rays.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("functional", "predictor"),
        &rays,
        |b, rays| {
            let sim = FunctionalSim::new(
                PredictorConfig::paper_default(),
                SimOptions {
                    classify_accesses: false,
                    ..SimOptions::default()
                },
            );
            let batch = RayBatch::from_rays(rays);
            b.iter(|| {
                let batch = std::hint::black_box(&batch);
                sim.run(&bvh, batch, TraversalKind::AnyHit, None, None)
                    .expect("no trace to reject")
                    .memory_savings()
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("timing", "baseline"), &rays, |b, rays| {
        b.iter(|| {
            Simulator::new(GpuConfig::baseline())
                .run(&bvh, std::hint::black_box(rays))
                .cycles
        })
    });
    group.bench_with_input(BenchmarkId::new("timing", "predictor"), &rays, |b, rays| {
        b.iter(|| {
            Simulator::new(GpuConfig::with_predictor())
                .run(&bvh, std::hint::black_box(rays))
                .cycles
        })
    });
    group.finish();
}

criterion_group!(benches, end_to_end);
criterion_main!(benches);
