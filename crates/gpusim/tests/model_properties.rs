//! Property-based tests for the timing-simulator building blocks and
//! whole-simulation invariants.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, RayBatch, TraversalKind};
use rip_gpusim::{Cache, CacheConfig, Dram, DramConfig, GpuConfig, RepackMode, Simulator};
use rip_math::{Ray, Triangle, Vec3};
use std::collections::HashMap;
use std::sync::Arc;

/// Reference LRU cache: naive but obviously correct.
struct ReferenceLru {
    lines: usize,
    map: HashMap<u64, u64>,
    clock: u64,
}

impl ReferenceLru {
    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        if self.map.contains_key(&line) {
            self.map.insert(line, self.clock);
            return true;
        }
        if self.map.len() >= self.lines {
            let victim = *self.map.iter().min_by_key(|(_, &t)| t).expect("nonempty").0;
            self.map.remove(&victim);
        }
        self.map.insert(line, self.clock);
        false
    }
}

proptest! {
    #[test]
    fn fully_associative_cache_matches_reference_lru(
        trace in prop::collection::vec(0u64..256, 1..600),
        lines in 1usize..32,
    ) {
        let mut cache = Cache::new(
            CacheConfig {
                size_bytes: lines * 128,
                line_bytes: 128,
                ways: usize::MAX,
            },
            256 * 128,
        );
        let mut reference = ReferenceLru { lines, map: HashMap::new(), clock: 0 };
        for &line in &trace {
            let model = cache.access(line * 128);
            let expect = reference.access(line);
            prop_assert_eq!(model, expect, "divergence on line {}", line);
        }
    }

    #[test]
    fn cache_hit_rate_monotone_in_capacity(
        trace in prop::collection::vec(0u64..512, 50..400),
    ) {
        let run = |lines: usize| {
            let mut cache = Cache::new(
                CacheConfig {
                    size_bytes: lines * 128,
                    line_bytes: 128,
                    ways: usize::MAX,
                },
                512 * 128,
            );
            for &line in &trace {
                cache.access(line * 128);
            }
            cache.stats().hits
        };
        // Fully associative LRU has the stack property: a bigger cache
        // never hits less on the same trace.
        prop_assert!(run(64) >= run(16));
        prop_assert!(run(256) >= run(64));
    }

    #[test]
    fn dram_completion_is_monotone_and_causal(
        addrs in prop::collection::vec(0u64..100_000, 1..200),
    ) {
        let mut dram = Dram::new(DramConfig::baseline(), 128);
        let mut now = 0u64;
        for &addr in &addrs {
            let done = dram.access(addr * 64, now);
            prop_assert!(done >= now + dram.config().access_latency,
                "completion before minimum latency");
            now += 3; // requests arrive over time
        }
        let stats = dram.stats();
        prop_assert_eq!(stats.accesses, addrs.len() as u64);
        prop_assert_eq!(stats.per_bank.iter().sum::<u64>(), addrs.len() as u64);
    }

    #[test]
    fn dram_bank_balance_bounded(
        addrs in prop::collection::vec(0u64..4096, 2..300),
    ) {
        let mut dram = Dram::new(DramConfig::baseline(), 128);
        for (i, &addr) in addrs.iter().enumerate() {
            dram.access(addr * 128, i as u64);
        }
        let balance = dram.stats().bank_balance();
        prop_assert!(balance > 0.0 && balance <= 1.0 + 1e-9, "balance {balance}");
    }
}

/// A small porous scene for whole-simulation properties.
fn scene() -> Bvh {
    let mut tris = Vec::new();
    for i in 0..10 {
        for j in 0..10 {
            if (i * 3 + j) % 4 == 0 {
                continue;
            }
            let o = Vec3::new(i as f32, 2.0, j as f32);
            tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
        }
    }
    Bvh::build(&tris)
}

fn rays(n: usize, seed: u64) -> Vec<Ray> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let o = Vec3::new(rng.gen_range(1.0..9.0), 0.2, rng.gen_range(1.0..9.0));
            let d = rip_math::sampling::cosine_hemisphere_around(Vec3::Y, rng.gen(), rng.gen());
            Ray::segment(o, d, 6.0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulation_is_functionally_exact_for_any_config(
        seed in 0u64..200,
        n in 32usize..400,
        repack_idx in 0usize..3,
        l1_kb_idx in 0usize..3,
        predictor_on in any::<bool>(),
    ) {
        let bvh = scene();
        let rays = rays(n, seed);
        let mut config =
            if predictor_on { GpuConfig::with_predictor() } else { GpuConfig::baseline() };
        config.repack = [RepackMode::Off, RepackMode::On, RepackMode::WithExtraWarps(2)]
            [repack_idx];
        config.l1 = config.l1.with_size([4, 16, 64][l1_kb_idx] * 1024);
        let report = Simulator::new(config).run(&bvh, &rays);
        prop_assert_eq!(report.completed_rays, n as u64);
        let functional = rays
            .iter()
            .filter(|r| bvh.intersect(r, TraversalKind::AnyHit).hit.is_some())
            .count() as u64;
        prop_assert_eq!(report.hits, functional);
        prop_assert!(report.cycles > 0);
        // Memory-side transactions never exceed issued requests.
        prop_assert!(report.memory.l2.accesses <= report.activity.l1_accesses);
        prop_assert!(report.memory.dram.accesses <= report.memory.l2.accesses);
    }

    #[test]
    fn simulation_is_deterministic(seed in 0u64..100) {
        let bvh = scene();
        let rays = rays(128, seed);
        let a = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
        let b = Simulator::new(GpuConfig::with_predictor()).run(&bvh, &rays);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.activity.l1_accesses, b.activity.l1_accesses);
        prop_assert_eq!(a.prediction.verified, b.prediction.verified);
    }

    #[test]
    fn slower_memory_never_speeds_execution(seed in 0u64..60) {
        let bvh = scene();
        let rays = rays(192, seed);
        let fast = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
        let mut slow_cfg = GpuConfig::baseline();
        slow_cfg.dram.access_latency *= 4;
        slow_cfg.latency.l2_hit *= 4;
        let slow = Simulator::new(slow_cfg).run(&bvh, &rays);
        prop_assert!(slow.cycles >= fast.cycles,
            "slower memory produced fewer cycles: {} vs {}", slow.cycles, fast.cycles);
    }
}

/// A warp's worth of ordinary rays interleaved with one degenerate ray
/// after each: a NaN or infinite origin, a NaN, zero or denormal
/// direction, or an empty interval (`t_min > t_max`).
fn degenerate_mix() -> Vec<Ray> {
    let denormal = f32::MIN_POSITIVE / 2.0;
    rays(64, 43)
        .into_iter()
        .enumerate()
        .map(|(i, ray)| {
            if i % 2 == 0 {
                return ray;
            }
            let o = ray.origin;
            match (i / 2) % 6 {
                0 => Ray {
                    origin: Vec3::new(f32::NAN, o.y, o.z),
                    ..ray
                },
                1 => Ray {
                    origin: Vec3::new(o.x, f32::INFINITY, o.z),
                    ..ray
                },
                2 => Ray {
                    direction: Vec3::new(0.0, f32::NAN, 0.0),
                    ..ray
                },
                3 => Ray {
                    direction: Vec3::ZERO,
                    ..ray
                },
                4 => Ray {
                    direction: Vec3::new(denormal, denormal, denormal),
                    ..ray
                },
                _ => Ray::with_interval(o, ray.direction, 5.0, 1.0),
            }
        })
        .collect()
}

#[test]
fn degenerate_rays_complete_with_functional_hits() {
    let bvh = scene();
    let rays = degenerate_mix();
    let functional = rays
        .iter()
        .filter(|r| bvh.intersect(r, TraversalKind::AnyHit).hit.is_some())
        .count() as u64;
    assert!(functional > 0, "the ordinary rays must hit something");
    let batch = RayBatch::from_rays(&rays);
    let trace = Arc::new(RayTraceSet::capture(&bvh, &batch, TraversalKind::AnyHit));
    let obs = Arc::new(rip_obs::Obs::new(rip_obs::ClockMode::Logical));
    for config in [GpuConfig::baseline(), GpuConfig::with_predictor()] {
        let live = Simulator::new(config.clone()).run_batch(&bvh, &batch);
        let replayed = Simulator::new(config)
            .with_obs(Arc::clone(&obs))
            .with_trace(Arc::clone(&trace))
            .run_batch(&bvh, &batch);
        for report in [&live, &replayed] {
            assert_eq!(report.completed_rays, rays.len() as u64);
            assert_eq!(report.hits, functional);
        }
    }
    assert_eq!(obs.get("gpusim.trace.rejected"), 0, "the replay ran live");
}
