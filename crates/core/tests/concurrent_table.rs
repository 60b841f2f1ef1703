//! Differential and stress tests for [`ConcurrentPredictorTable`].
//!
//! Two guarantees the `rip-serve` layer leans on:
//!
//! 1. **Single-shard equivalence** (proptest): with one shard, any
//!    sequential stream of lookup/insert/reward/peek operations produces
//!    byte-identical results and statistics to the single-owner
//!    [`PredictorTable`] — the concurrent wrapper adds a mutex, nothing
//!    else. The sharded configurations are additionally checked against
//!    a per-shard oracle that routes the same stream through plain
//!    tables using the same shard function.
//! 2. **No lost updates** (threaded stress): N threads hammering the
//!    table concurrently must conserve the counters exactly — every
//!    lookup and insertion accounted once, `tag_hits <= lookups`, and
//!    every surviving node retrievable.

use proptest::prelude::*;
use rip_bvh::NodeId;
use rip_core::{ConcurrentPredictorTable, PredictorConfig, PredictorTable};
use std::sync::Arc;

fn config(entries: usize, ways: usize) -> PredictorConfig {
    PredictorConfig {
        entries,
        ways,
        ..PredictorConfig::paper_default()
    }
}

/// One predictor-table operation, as generated by proptest.
#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u32),
    Peek(u32),
    Insert(u32, u32),
    Reward(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (selector, hash, node) tuples mapped onto the four op kinds — the
    // vendored proptest stand-in has no `prop_oneof`, a tuple + map is
    // equivalent here.
    (0u8..4, 0u32..(1 << 14), 0u32..100_000).prop_map(|(kind, h, n)| match kind {
        0 => Op::Lookup(h),
        1 => Op::Peek(h),
        2 => Op::Insert(h, n),
        _ => Op::Reward(h, n),
    })
}

/// Applies `op` to a shared table, returning the observable result.
fn apply_shared(table: &ConcurrentPredictorTable, op: Op) -> Option<Vec<NodeId>> {
    match op {
        Op::Lookup(h) => table.lookup(h).map(|c| c.into_vec()),
        Op::Peek(h) => table.peek(h).map(|c| c.into_vec()),
        Op::Insert(h, n) => {
            table.insert(h, NodeId::new(n));
            None
        }
        Op::Reward(h, n) => {
            table.reward(h, NodeId::new(n));
            None
        }
    }
}

/// Applies `op` to a single-owner table, returning the same observable.
fn apply_owned(table: &mut PredictorTable, op: Op) -> Option<Vec<NodeId>> {
    match op {
        Op::Lookup(h) => table.lookup(h).map(|c| c.into_vec()),
        Op::Peek(h) => table.peek(h).map(|c| c.into_vec()),
        Op::Insert(h, n) => {
            table.insert(h, NodeId::new(n));
            None
        }
        Op::Reward(h, n) => {
            table.reward(h, NodeId::new(n));
            None
        }
    }
}

proptest! {
    /// With one shard, every interleaving *is* the sequential order, so
    /// the concurrent table must match the single-owner oracle op for
    /// op: same lookup results, same statistics, same occupancy.
    #[test]
    fn single_shard_equals_sequential_oracle(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let shared = ConcurrentPredictorTable::new(config(256, 4), 1);
        let mut oracle = PredictorTable::new(config(256, 4));
        for (i, &op) in ops.iter().enumerate() {
            let got = apply_shared(&shared, op);
            let want = apply_owned(&mut oracle, op);
            prop_assert_eq!(got, want, "op {} ({:?}) diverged", i, op);
        }
        prop_assert_eq!(shared.stats(), oracle.stats());
        prop_assert_eq!(shared.occupancy(), oracle.occupancy());
        let mut a = shared.stored_nodes();
        let mut b: Vec<NodeId> = oracle.stored_nodes().collect();
        a.sort_unstable_by_key(|n| n.index());
        b.sort_unstable_by_key(|n| n.index());
        prop_assert_eq!(a, b);
    }

    /// A sharded table run sequentially must equal a bank of plain
    /// tables routed by the same shard function — sharding partitions
    /// the key space and changes nothing else.
    #[test]
    fn sharded_table_equals_per_shard_oracle(
        ops in prop::collection::vec(op_strategy(), 1..400),
        shard_pow in 0u32..4,
    ) {
        let shards = 1usize << shard_pow;
        let shared = ConcurrentPredictorTable::new(config(256, 4), shards);
        let shard_config = config(256 / shards, 4);
        let mut oracle: Vec<PredictorTable> =
            (0..shards).map(|_| PredictorTable::new(shard_config)).collect();
        for (i, &op) in ops.iter().enumerate() {
            let hash = match op {
                Op::Lookup(h) | Op::Peek(h) | Op::Insert(h, _) | Op::Reward(h, _) => h,
            };
            let got = apply_shared(&shared, op);
            let want = apply_owned(&mut oracle[shared.shard_of(hash)], op);
            prop_assert_eq!(got, want, "op {} ({:?}) diverged", i, op);
        }
        let mut want_stats = rip_core::TableStats::default();
        for table in &oracle {
            let s = table.stats();
            want_stats.lookups += s.lookups;
            want_stats.tag_hits += s.tag_hits;
            want_stats.insertions += s.insertions;
            want_stats.entry_evictions += s.entry_evictions;
            want_stats.node_evictions += s.node_evictions;
        }
        prop_assert_eq!(shared.stats(), want_stats);
    }
}

/// N threads x M mixed operations: counters must conserve exactly (no
/// lost updates under contention). Threads use disjoint hash *values*,
/// but the gshare set-index folds the whole hash, so different threads
/// can still collide into the same 4-way set and evict each other's
/// freshly inserted entries — a per-op "my insert must hit" assertion
/// would be a race, not an invariant. What IS exact: every operation is
/// accounted once, and the table's `tag_hits` counter equals the number
/// of `Some` lookups the threads observed.
#[test]
fn threaded_stress_conserves_counters() {
    const THREADS: usize = 8;
    const OPS: usize = 2_000;
    let table = Arc::new(ConcurrentPredictorTable::new(config(4096, 4), 8));
    let observed_hits: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    // Disjoint per-thread hash values (not sets — see above).
                    let base = (t as u32) << 16;
                    let mut hits = 0u64;
                    for i in 0..OPS as u32 {
                        let hash = base | (i % 512);
                        table.insert(hash, NodeId::new(i % 777));
                        if table.lookup(hash).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let stats = table.stats();
    let total = (THREADS * OPS) as u64;
    assert_eq!(stats.lookups, total, "lost lookup updates");
    assert_eq!(stats.insertions, total, "lost insertion updates");
    assert_eq!(
        stats.tag_hits, observed_hits,
        "tag-hit counter disagrees with the hits the threads saw"
    );
    assert!(
        observed_hits >= total / 2,
        "lookups straight after inserts should mostly hit \
         ({observed_hits}/{total} did)"
    );
    assert!(stats.entry_evictions <= total);
    // Occupancy is bounded by capacity and consistent with stored nodes.
    assert!(table.occupancy() <= 4096);
    assert!(!table.stored_nodes().is_empty());
}

/// Mixed contended traffic on *shared* hashes: totals still conserve
/// (tag_hits <= lookups, every op accounted once) even when threads
/// race on the same sets and evict each other's entries.
#[test]
fn threaded_stress_on_shared_hashes_accounts_every_op() {
    const THREADS: usize = 6;
    const OPS: usize = 1_500;
    let table = Arc::new(ConcurrentPredictorTable::new(config(1024, 4), 4));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let table = Arc::clone(&table);
            scope.spawn(move || {
                for i in 0..OPS as u32 {
                    let hash = i % 97; // heavy deliberate contention
                    match (i as usize + t) % 3 {
                        0 => {
                            table.insert(hash, NodeId::new(i % 31));
                        }
                        1 => {
                            let _ = table.lookup(hash);
                        }
                        _ => {
                            table.reward(hash, NodeId::new(i % 31));
                        }
                    }
                }
            });
        }
    });
    let stats = table.stats();
    let per_thread = OPS as u64 / 3;
    assert_eq!(stats.insertions, THREADS as u64 * per_thread);
    assert_eq!(stats.lookups, THREADS as u64 * per_thread);
    assert!(stats.tag_hits <= stats.lookups);
    assert!(stats.node_evictions <= stats.insertions);
}
