//! Criterion micro-benchmark: cache and DRAM model throughput — these run
//! once per simulated memory request, so they dominate timing-sim speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rip_gpusim::{Cache, CacheConfig, Dram, DramConfig};

fn memory_models(c: &mut Criterion) {
    // A strided-with-reuse trace resembling BVH node fetches.
    let trace: Vec<u64> = (0..8192u64).map(|i| ((i * 37) % 3000) * 64).collect();
    let address_bytes = trace.iter().max().map_or(0, |&addr| addr + 1);

    let mut group = c.benchmark_group("memory_models");
    group.throughput(criterion::Throughput::Elements(trace.len() as u64));
    for (label, config) in [
        ("l1_fully_assoc_64kb", CacheConfig::l1_baseline()),
        ("l2_16way_1mb", CacheConfig::l2_baseline()),
        (
            "direct_mapped_16kb",
            CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 128,
                ways: 1,
            },
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::new("cache_access", label),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut cache = Cache::new(config, address_bytes);
                    let mut hits = 0u64;
                    for &addr in trace {
                        hits += cache.access(std::hint::black_box(addr)) as u64;
                    }
                    hits
                })
            },
        );
    }
    group.bench_with_input(
        BenchmarkId::new("dram_access", "16banks"),
        &trace,
        |b, trace| {
            b.iter(|| {
                let mut dram = Dram::new(DramConfig::baseline(), 128);
                let mut t = 0u64;
                for (i, &addr) in trace.iter().enumerate() {
                    t = t.max(dram.access(std::hint::black_box(addr), i as u64));
                }
                t
            })
        },
    );
    group.finish();
}

criterion_group!(benches, memory_models);
criterion_main!(benches);
