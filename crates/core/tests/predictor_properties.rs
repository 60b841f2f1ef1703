//! Property-based tests for the predictor's data structures and the §3
//! trace flow invariants.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_bvh::{Bvh, NodeId, TraversalKind};
use rip_core::{
    fold_hash, trace, HashFunction, NodeReplacement, PredictorConfig, PredictorTable, RayHasher,
};
use rip_math::{Ray, Triangle, Vec3};

fn table_config(entries: usize, ways: usize, nodes: usize) -> PredictorConfig {
    PredictorConfig {
        entries,
        ways,
        nodes_per_entry: nodes,
        ..PredictorConfig::paper_default()
    }
}

proptest! {
    #[test]
    fn fold_output_always_fits(hash in 0u32..(1 << 15), m in 1u32..15) {
        let folded = fold_hash(hash, 15, m);
        prop_assert!(folded < (1 << m), "{folded:#x} exceeds {m} bits");
    }

    #[test]
    fn fold_is_deterministic_and_total(hash in any::<u32>(), n in 1u32..31, m in 1u32..31) {
        let a = fold_hash(hash, n, m);
        let b = fold_hash(hash, n, m);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn table_lookup_returns_only_inserted_nodes(
        inserts in prop::collection::vec((0u32..(1 << 15), 0u32..100_000), 1..200),
        probe in 0u32..(1 << 15),
    ) {
        let mut table = PredictorTable::new(table_config(64, 4, 2));
        let mut inserted_nodes = std::collections::HashSet::new();
        for &(hash, node) in &inserts {
            table.insert(hash, NodeId::new(node));
            inserted_nodes.insert(NodeId::new(node));
        }
        if let Some(nodes) = table.lookup(probe) {
            for n in nodes {
                prop_assert!(inserted_nodes.contains(&n), "phantom node {n}");
            }
            // A tag hit implies the probe hash was actually inserted.
            prop_assert!(inserts.iter().any(|&(h, _)| h == probe));
        }
    }

    #[test]
    fn table_occupancy_never_exceeds_capacity(
        inserts in prop::collection::vec((0u32..(1 << 15), 0u32..1000), 0..500),
        ways in 1usize..8,
    ) {
        let ways = [1usize, 2, 4, 8][ways % 4];
        let entries = 32 * ways;
        let mut table = PredictorTable::new(table_config(entries, ways, 1));
        for &(hash, node) in &inserts {
            table.insert(hash, NodeId::new(node));
        }
        prop_assert!(table.occupancy() <= entries);
        prop_assert!(table.stored_nodes().count() <= entries);
    }

    #[test]
    fn most_recent_insert_for_a_hash_is_always_found(
        hashes in prop::collection::vec(0u32..(1 << 15), 1..60),
    ) {
        // Within one set there are `ways` entries; the most recent insert
        // must be resident immediately afterwards regardless of history.
        let mut table = PredictorTable::new(table_config(64, 4, 1));
        for (i, &hash) in hashes.iter().enumerate() {
            table.insert(hash, NodeId::new(i as u32));
            let nodes = table.lookup(hash);
            prop_assert_eq!(nodes.as_deref(), Some(&[NodeId::new(i as u32)][..]),
                "freshly inserted entry missing");
        }
    }

    #[test]
    fn node_replacement_policies_keep_entry_size_bounded(
        nodes in prop::collection::vec(0u32..50, 1..80),
        policy_idx in 0usize..4,
    ) {
        let policy = [
            NodeReplacement::Lru,
            NodeReplacement::Lfu,
            NodeReplacement::LruK(2),
            NodeReplacement::LruK(4),
        ][policy_idx];
        let mut config = table_config(16, 1, 3);
        config.node_replacement = policy;
        let mut table = PredictorTable::new(config);
        for &n in &nodes {
            table.insert(0x1234, NodeId::new(n));
            let stored = table.lookup(0x1234).expect("entry resident");
            prop_assert!(stored.len() <= 3, "{policy:?} overgrew: {}", stored.len());
        }
    }

    #[test]
    fn hash_is_translation_consistent(
        ox in -10.0f32..10.0, oy in -10.0f32..10.0, oz in -10.0f32..10.0,
        dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0,
    ) {
        // Hashing the same ray twice gives the same value; hashing a far
        // away ray (different grid cell) gives a different origin code.
        let d = Vec3::new(dx, dy, dz);
        prop_assume!(d.length() > 1e-2);
        let bounds = rip_math::Aabb::new(Vec3::splat(-16.0), Vec3::splat(16.0));
        let hasher = RayHasher::new(HashFunction::default(), bounds);
        let ray = Ray::new(Vec3::new(ox, oy, oz), d.normalized());
        prop_assert_eq!(hasher.hash(&ray), hasher.hash(&ray));
    }
}

/// A deterministic porous scene for flow-level properties.
fn porous_scene() -> Bvh {
    let mut tris = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            if (i + j) % 3 == 0 {
                continue;
            }
            let o = Vec3::new(i as f32, 1.5, j as f32);
            tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
        }
    }
    Bvh::build(&tris)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_flow_is_exact_under_any_config(
        seed in 0u64..1000,
        go_up_level in 0u32..6,
        ways in 0usize..3,
        update_delay in 0usize..64,
    ) {
        let bvh = porous_scene();
        let config = PredictorConfig {
            go_up_level,
            ways: [1, 2, 4][ways],
            entries: 256 * [1, 2, 4][ways],
            update_delay,
            ..PredictorConfig::paper_default()
        };
        let mut predictor = rip_core::Predictor::new(config, bvh.bounds());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let o = Vec3::new(rng.gen_range(0.0..12.0), 0.1, rng.gen_range(0.0..12.0));
            let d = rip_math::sampling::cosine_hemisphere_around(
                Vec3::Y, rng.gen(), rng.gen());
            let ray = Ray::segment(o, d, rng.gen_range(2.0..9.0));
            let reference = bvh.intersect(&ray, TraversalKind::AnyHit).hit.is_some();
            let trace = trace(&mut predictor, &bvh, &ray, TraversalKind::AnyHit);
            prop_assert_eq!(reference, trace.hit.is_some(),
                "visibility diverged under {:?}", config);
        }
        // Bookkeeping invariants hold for any configuration.
        let stats = predictor.stats();
        prop_assert!(stats.verified <= stats.predicted);
        prop_assert!(stats.predicted <= stats.rays);
        prop_assert!(stats.hits <= stats.rays);
    }

    #[test]
    fn verified_rays_are_always_hits(seed in 0u64..500) {
        let bvh = porous_scene();
        let config = PredictorConfig { update_delay: 0, ..PredictorConfig::paper_default() };
        let mut predictor = rip_core::Predictor::new(config, bvh.bounds());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..150 {
            let o = Vec3::new(rng.gen_range(2.0..8.0), 0.2, rng.gen_range(2.0..8.0));
            let d = rip_math::sampling::cosine_hemisphere_around(
                Vec3::Y, rng.gen(), rng.gen());
            let ray = Ray::segment(o, d, 6.0);
            let trace = trace(&mut predictor, &bvh, &ray, TraversalKind::AnyHit);
            if trace.outcome == rip_core::RayOutcome::Verified {
                prop_assert!(trace.hit.is_some(), "verified ray without a hit");
                prop_assert_eq!(trace.fallback_stats, rip_bvh::TraversalStats::default(),
                    "verified ray paid a fallback traversal");
            }
        }
    }
}
