//! The predictor table every [`Predictor`](crate::Predictor) drives.
//!
//! The per-SM [`PredictorTable`] is single-owner: every operation takes
//! `&mut self`, which is the right shape for the paper's simulator but
//! not for a service that traces many tenants' rays on a thread pool.
//! [`ConcurrentPredictorTable`] splits one logical table into `shards`
//! independent [`PredictorTable`]s, each behind its own mutex, selected
//! by a multiplicative hash of the ray-hash tag.
//!
//! With `shards == 1` the concurrent table is literally a mutex around
//! the single-owner table: the single shard receives every operation in
//! program order, so its behaviour (stats, LRU aging, evictions) is
//! bit-identical to it. That equivalence is what the differential tests
//! in `tests/concurrent_table.rs` pin down, and it is why a predictor of
//! its own uses a one-shard table.

use crate::{NodeCandidates, PredictorConfig, PredictorTable, TableStats};
use rip_bvh::NodeId;
use std::sync::Mutex;

/// Golden-ratio multiplicative constant used to spread ray hashes over
/// shards independently of the per-shard set-index bits.
const SHARD_MIX: u32 = 0x9E37_79B9;

/// A lock-striped concurrent predictor table: `shards` independent
/// [`PredictorTable`]s, each guarded by its own [`Mutex`], with a ray
/// hash routed to a shard by the *top* bits of a multiplicative mix so
/// shard choice stays independent of each shard's set-index bits (which
/// use the low bits via `fold_hash`).
///
/// The configured `entries` budget is divided evenly across shards, so
/// the total capacity matches a single-owner table of the same
/// configuration and `shards == 1` reproduces it exactly.
///
/// # Examples
///
/// ```
/// use rip_bvh::NodeId;
/// use rip_core::{ConcurrentPredictorTable, PredictorConfig};
///
/// let table = ConcurrentPredictorTable::new(PredictorConfig::paper_default(), 4);
/// table.insert(0xBEEF, NodeId::new(7));
/// assert_eq!(table.lookup(0xBEEF).as_deref(), Some(&[NodeId::new(7)][..]));
/// assert_eq!(table.stats().tag_hits, 1);
/// ```
#[derive(Debug)]
pub struct ConcurrentPredictorTable {
    shards: Vec<Mutex<PredictorTable>>,
    shard_bits: u32,
}

impl ConcurrentPredictorTable {
    /// Creates a table with `shards` lock stripes (rounded up to a
    /// power of two), dividing the configured entry budget evenly.
    ///
    /// # Panics
    ///
    /// Panics when the per-shard configuration is invalid — e.g. the
    /// entry budget does not divide into `shards` tables with at least
    /// one set each.
    pub fn new(config: PredictorConfig, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        assert!(
            config.entries.is_multiple_of(shards),
            "entry budget {} does not divide across {} shards",
            config.entries,
            shards
        );
        let shard_config = PredictorConfig {
            entries: config.entries / shards,
            ..config
        };
        let stripes = (0..shards)
            .map(|_| Mutex::new(PredictorTable::new(shard_config)))
            .collect();
        ConcurrentPredictorTable {
            shards: stripes,
            shard_bits: shards.trailing_zeros(),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a ray hash routes to.
    pub fn shard_of(&self, hash: u32) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        (hash.wrapping_mul(SHARD_MIX) >> (32 - self.shard_bits)) as usize
    }

    fn shard(&self, hash: u32) -> std::sync::MutexGuard<'_, PredictorTable> {
        // A poisoned mutex means another worker panicked mid-operation;
        // the table itself is plain data, so keep serving.
        self.shards[self.shard_of(hash)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Full lookup: accounts the access and returns the stored
    /// candidates on a tag match (see [`PredictorTable::lookup`]).
    pub fn lookup(&self, hash: u32) -> Option<NodeCandidates> {
        self.shard(hash).lookup(hash)
    }

    /// Read-only probe that leaves statistics and aging untouched (see
    /// [`PredictorTable::peek`]).
    pub fn peek(&self, hash: u32) -> Option<NodeCandidates> {
        self.shard(hash).peek(hash)
    }

    /// Stores a trained `(hash, node)` pair (see
    /// [`PredictorTable::insert`]).
    pub fn insert(&self, hash: u32, node: NodeId) {
        self.shard(hash).insert(hash, node);
    }

    /// Rewards a node that verified a prediction (see
    /// [`PredictorTable::reward`]).
    pub fn reward(&self, hash: u32, node: NodeId) {
        self.shard(hash).reward(hash, node);
    }

    /// Aggregate statistics over the whole logical table.
    pub fn stats(&self) -> TableStats {
        let mut total = TableStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner()).stats();
            total.lookups += s.lookups;
            total.tag_hits += s.tag_hits;
            total.insertions += s.insertions;
            total.entry_evictions += s.entry_evictions;
            total.node_evictions += s.node_evictions;
        }
        total
    }

    /// Valid entries currently stored across the whole logical table.
    pub fn occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).occupancy())
            .sum()
    }

    /// Every node currently stored, shard by shard.
    pub fn stored_nodes(&self) -> Vec<NodeId> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .stored_nodes()
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Removes all entries, keeping statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> PredictorConfig {
        PredictorConfig::paper_default()
    }

    #[test]
    fn single_shard_matches_owned_table() {
        let shared = ConcurrentPredictorTable::new(config(), 1);
        let mut owned = PredictorTable::new(config());
        let hashes: Vec<u32> = (0..512)
            .map(|i| (i * 2654435761u64 % 65536) as u32)
            .collect();
        for (i, &h) in hashes.iter().enumerate() {
            let node = NodeId::new((i % 97) as u32);
            shared.insert(h, node);
            owned.insert(h, node);
            let a = shared.lookup(h);
            let b = owned.lookup(h);
            assert_eq!(a, b, "lookup diverged at op {i}");
        }
        assert_eq!(shared.stats(), owned.stats());
        assert_eq!(shared.occupancy(), owned.occupancy());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let t = ConcurrentPredictorTable::new(config(), 3);
        assert_eq!(t.shard_count(), 4);
        let t = ConcurrentPredictorTable::new(config(), 0);
        assert_eq!(t.shard_count(), 1);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let t = ConcurrentPredictorTable::new(config(), 8);
        for h in 0..10_000u32 {
            let s = t.shard_of(h);
            assert!(s < 8);
            assert_eq!(s, t.shard_of(h));
        }
    }

    #[test]
    fn clear_keeps_stats() {
        let t = ConcurrentPredictorTable::new(config(), 4);
        t.insert(1, NodeId::new(1));
        t.insert(2, NodeId::new(2));
        assert!(t.occupancy() > 0);
        t.clear();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats().insertions, 2);
        assert!(t.stored_nodes().is_empty());
    }

    #[test]
    fn peek_does_not_perturb_stats() {
        let t = ConcurrentPredictorTable::new(config(), 2);
        t.insert(42, NodeId::new(5));
        let before = t.stats();
        assert!(t.peek(42).is_some());
        assert!(t.peek(43).is_none());
        assert_eq!(t.stats(), before);
    }
}
