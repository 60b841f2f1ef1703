//! Golden pin of the per-ray §3 flow.
//!
//! Runs one small workload through every combination of ray kind,
//! oracle mode and fallback source (live while-while traversal, or a
//! recorded trace with the memoized probe), plus one run through a
//! four-shard shared table, and compares each run's `Debug` output
//! against recorded values. Any change to what the flow computes,
//! records, rewards or trains shows up here as a changed digest.

use crate::sim::trace_ray;
use crate::{
    ConcurrentPredictorTable, HashFunction, NodeReplacement, OracleMode, Predicted, Predictor,
    PredictorConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rip_bvh::ript::RayTraceSet;
use rip_bvh::{Bvh, RayBatch, TraversalKind, WhileWhileKernel};
use rip_math::{Ray, Triangle, Vec3};
use std::fmt::Write;
use std::sync::Arc;

/// `(run, FNV-1a digest of the per-ray traces, final stats, final table stats)`.
const GOLDEN: &[(&str, u64, &str, &str)] = &[
    (
        "AnyHit/Predictor/live",
        0x480bf6c0b7a179ad,
        "PredictionStats { rays: 160, hits: 81, predicted: 125, verified: 48, predicted_nodes_evaluated: 200, prediction_eval_fetches: 183 }",
        "TableStats { lookups: 160, tag_hits: 125, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "AnyHit/Predictor/replay",
        0x480bf6c0b7a179ad,
        "PredictionStats { rays: 160, hits: 81, predicted: 125, verified: 48, predicted_nodes_evaluated: 200, prediction_eval_fetches: 183 }",
        "TableStats { lookups: 160, tag_hits: 125, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "AnyHit/OL/live",
        0xa45926dec540dfb8,
        "PredictionStats { rays: 160, hits: 81, predicted: 57, verified: 57, predicted_nodes_evaluated: 57, prediction_eval_fetches: 57 }",
        "TableStats { lookups: 0, tag_hits: 0, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "AnyHit/OL/replay",
        0xa45926dec540dfb8,
        "PredictionStats { rays: 160, hits: 81, predicted: 57, verified: 57, predicted_nodes_evaluated: 57, prediction_eval_fetches: 57 }",
        "TableStats { lookups: 0, tag_hits: 0, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "AnyHit/OT/live",
        0xa45926dec540dfb8,
        "PredictionStats { rays: 160, hits: 81, predicted: 57, verified: 57, predicted_nodes_evaluated: 57, prediction_eval_fetches: 57 }",
        "TableStats { lookups: 0, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "AnyHit/OT/replay",
        0xa45926dec540dfb8,
        "PredictionStats { rays: 160, hits: 81, predicted: 57, verified: 57, predicted_nodes_evaluated: 57, prediction_eval_fetches: 57 }",
        "TableStats { lookups: 0, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "AnyHit/OU/live",
        0xa45926dec540dfb8,
        "PredictionStats { rays: 160, hits: 81, predicted: 57, verified: 57, predicted_nodes_evaluated: 57, prediction_eval_fetches: 57 }",
        "TableStats { lookups: 0, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "AnyHit/OU/replay",
        0xa45926dec540dfb8,
        "PredictionStats { rays: 160, hits: 81, predicted: 57, verified: 57, predicted_nodes_evaluated: 57, prediction_eval_fetches: 57 }",
        "TableStats { lookups: 0, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "ClosestHit/Predictor/live",
        0xe9b20b464e46e072,
        "PredictionStats { rays: 160, hits: 81, predicted: 125, verified: 48, predicted_nodes_evaluated: 200, prediction_eval_fetches: 183 }",
        "TableStats { lookups: 160, tag_hits: 125, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "ClosestHit/Predictor/replay",
        0xe9b20b464e46e072,
        "PredictionStats { rays: 160, hits: 81, predicted: 125, verified: 48, predicted_nodes_evaluated: 200, prediction_eval_fetches: 183 }",
        "TableStats { lookups: 160, tag_hits: 125, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "ClosestHit/OL/live",
        0xe9b20b464e46e072,
        "PredictionStats { rays: 160, hits: 81, predicted: 125, verified: 48, predicted_nodes_evaluated: 200, prediction_eval_fetches: 183 }",
        "TableStats { lookups: 160, tag_hits: 125, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "ClosestHit/OL/replay",
        0xe9b20b464e46e072,
        "PredictionStats { rays: 160, hits: 81, predicted: 125, verified: 48, predicted_nodes_evaluated: 200, prediction_eval_fetches: 183 }",
        "TableStats { lookups: 160, tag_hits: 125, insertions: 81, entry_evictions: 1, node_evictions: 7 }",
    ),
    (
        "ClosestHit/OT/live",
        0xed09120c3b8d6125,
        "PredictionStats { rays: 160, hits: 81, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }",
        "TableStats { lookups: 160, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "ClosestHit/OT/replay",
        0xed09120c3b8d6125,
        "PredictionStats { rays: 160, hits: 81, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }",
        "TableStats { lookups: 160, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "ClosestHit/OU/live",
        0xed09120c3b8d6125,
        "PredictionStats { rays: 160, hits: 81, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }",
        "TableStats { lookups: 160, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "ClosestHit/OU/replay",
        0xed09120c3b8d6125,
        "PredictionStats { rays: 160, hits: 81, predicted: 0, verified: 0, predicted_nodes_evaluated: 0, prediction_eval_fetches: 0 }",
        "TableStats { lookups: 160, tag_hits: 0, insertions: 0, entry_evictions: 0, node_evictions: 0 }",
    ),
    (
        "shared4/alternating",
        0x9b086054c2c9a1da,
        "PredictionStats { rays: 160, hits: 81, predicted: 124, verified: 48, predicted_nodes_evaluated: 199, prediction_eval_fetches: 182 }",
        "TableStats { lookups: 160, tag_hits: 124, insertions: 81, entry_evictions: 2, node_evictions: 7 }",
    ),
];

/// A floor at `y = 0` under a ceiling at `y = 2` with every third tile
/// missing, so rays from between them both hit and miss.
fn scene() -> Bvh {
    let mut tris = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            let o = Vec3::new(i as f32, 0.0, j as f32);
            tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
            tris.push(Triangle::new(
                o + Vec3::X,
                o + Vec3::X + Vec3::Z,
                o + Vec3::Z,
            ));
            if (i + 2 * j) % 3 != 0 {
                let c = o + Vec3::new(0.0, 2.0, 0.0);
                tris.push(Triangle::new(c, c + Vec3::X, c + Vec3::Z));
            }
        }
    }
    Bvh::build(&tris)
}

/// Short rays from five origins in four jittered directions: coherent
/// enough to verify, mixed enough to mispredict.
fn rays() -> Vec<Ray> {
    let mut rng = SmallRng::seed_from_u64(15);
    let dirs = [
        Vec3::new(0.3, 1.0, 0.2),
        Vec3::new(-0.4, 1.0, 0.5),
        Vec3::new(0.2, -1.0, -0.3),
        Vec3::new(0.9, 0.6, 0.0),
    ];
    (0..160)
        .map(|i| {
            let o = Vec3::new(2.3 + (i % 5) as f32 * 1.7, 1.0, 3.1 + (i % 5) as f32 * 1.1);
            let jitter = Vec3::new(rng.gen_range(-0.5..0.5), 0.0, rng.gen_range(-0.5..0.5));
            let d = dirs[i / 5 % 4] + jitter;
            Ray::segment(o, d.normalized(), 3.0)
        })
        .collect()
}

/// A small table with two leaf slots per entry under a coarse direction
/// hash, so tags collide, slots get replaced and LRU-K makes the
/// `reward` of a verified ray observable.
fn config(oracle: OracleMode) -> PredictorConfig {
    PredictorConfig {
        entries: 16,
        nodes_per_entry: 2,
        go_up_level: 0,
        hash: HashFunction::GridSpherical {
            origin_bits: 5,
            direction_bits: 1,
        },
        node_replacement: NodeReplacement::LruK(2),
        update_delay: 3,
        ..PredictorConfig::paper_default()
    }
    .with_oracle(oracle)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Traces every ray through `p`, returning the digest of the traces.
fn run(
    p: &mut Predictor,
    bvh: &Bvh,
    rays: &[Ray],
    kind: TraversalKind,
    replay: Option<&RayTraceSet>,
) -> u64 {
    let mut log = String::new();
    for (i, ray) in rays.iter().enumerate() {
        let hash = p.hash_ray(ray);
        let trace = trace_ray(p, bvh, ray, i, kind, hash, replay);
        writeln!(log, "{trace:?}").unwrap();
    }
    fnv1a(&log)
}

#[test]
fn flow_matches_golden() {
    let bvh = scene();
    let rays = rays();
    let batch = RayBatch::from_rays(&rays);
    let mut actual: Vec<(String, u64, String, String)> = Vec::new();
    for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
        let set = RayTraceSet::capture(&bvh, &batch, kind);
        for oracle in [
            OracleMode::None,
            OracleMode::Lookup,
            OracleMode::UnboundedTraining,
            OracleMode::ImmediateUpdates,
        ] {
            for replay in [None, Some(&set)] {
                let mut p = Predictor::new(config(oracle), bvh.bounds());
                let digest = run(&mut p, &bvh, &rays, kind, replay);
                let source = if replay.is_some() { "replay" } else { "live" };
                actual.push((
                    format!("{kind:?}/{}/{source}", oracle.label()),
                    digest,
                    format!("{:?}", p.stats()),
                    format!("{:?}", p.table_stats()),
                ));
            }
        }
    }

    // Alternating kinds through a predictor learning into a 4-shard table.
    let shared = config(OracleMode::None);
    let table = Arc::new(ConcurrentPredictorTable::new(shared, 4));
    let mut k = Predicted::with_shared_table(&bvh, shared, table, WhileWhileKernel::new(&bvh));
    let mut log = String::new();
    for (i, ray) in rays.iter().enumerate() {
        let kind = [TraversalKind::AnyHit, TraversalKind::ClosestHit][i % 2];
        writeln!(log, "{:?}", k.trace_detailed(ray, kind)).unwrap();
    }
    actual.push((
        "shared4/alternating".to_string(),
        fnv1a(&log),
        format!("{:?}", k.predictor().stats()),
        format!("{:?}", k.predictor().table_stats()),
    ));

    let matches = actual
        .iter()
        .map(|(name, digest, stats, tstats)| {
            (name.as_str(), *digest, stats.as_str(), tstats.as_str())
        })
        .eq(GOLDEN.iter().copied());
    if !matches {
        let mut table = String::new();
        for (name, digest, stats, tstats) in &actual {
            writeln!(
                table,
                "    (\n        {name:?},\n        {digest:#018x},\n        {stats:?},\n        {tstats:?},\n    ),"
            )
            .unwrap();
        }
        panic!("flow diverged from the golden values; actual:\n{table}");
    }
}
