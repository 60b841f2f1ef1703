//! The predictor module: table + hash + Go Up Level + training pipeline.

#[cfg(test)]
use crate::OracleMode;
use crate::{
    ConcurrentPredictorTable, NodeCandidates, PredictionStats, PredictorConfig, RayHasher,
};
use rip_bvh::{Bvh, NodeId};
use rip_math::{Aabb, Ray};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// A prediction returned by a table lookup: the ray hash that matched and
/// the node(s) to verify, in slot order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The full ray hash (also the tag that matched).
    pub hash: u32,
    /// Predicted BVH nodes to start traversal from.
    pub nodes: NodeCandidates,
}

/// The per-SM ray intersection predictor (§4).
///
/// Owns the predictor table, the ray hasher, the Go Up Level policy and the
/// training pipeline, including the in-flight update delay that models the
/// latency between a ray issuing and its traversal result becoming
/// available for training (removed by the OU oracle, §6.3).
///
/// The table is always a [`ConcurrentPredictorTable`]: one shard of its
/// own (op-for-op identical to a [`PredictorTable`](crate::PredictorTable),
/// the simulator's per-SM shape) or a sharded table shared with other
/// predictors (the service shape).
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_core::{Predictor, PredictorConfig};
/// use rip_math::{Ray, Triangle, Vec3};
///
/// let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
/// let mut p = Predictor::new(PredictorConfig::paper_default(), bvh.bounds());
/// let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
/// assert!(p.lookup_hashed(p.hash_ray(&ray)).is_none(), "cold table has no predictions");
/// ```
#[derive(Debug)]
pub struct Predictor {
    config: PredictorConfig,
    hasher: RayHasher,
    table: Arc<ConcurrentPredictorTable>,
    /// Unbounded training store for the OT/OU oracles.
    unbounded_store: HashSet<NodeId>,
    /// Delayed training updates: `(apply_at_ray, hash, node)`.
    pending: VecDeque<(u64, u32, NodeId)>,
    ray_clock: u64,
    stats: PredictionStats,
}

impl Predictor {
    /// Creates a predictor for a scene with the given bounding box.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn new(config: PredictorConfig, scene_bounds: Aabb) -> Self {
        let table = Arc::new(ConcurrentPredictorTable::new(config, 1));
        Predictor::with_shared_table(config, scene_bounds, table)
    }

    /// Creates a predictor whose table is learned into by many predictors
    /// at once (the `rip-serve` shape). Per-ray state — the training
    /// pipeline, in-flight update delay and outcome statistics — stays
    /// local to this predictor; only table lookups, insertions and
    /// rewards route through the shared table.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn with_shared_table(
        config: PredictorConfig,
        scene_bounds: Aabb,
        table: Arc<ConcurrentPredictorTable>,
    ) -> Self {
        config.validate().expect("invalid predictor configuration");
        let hasher = RayHasher::new(config.hash, scene_bounds);
        Predictor {
            config,
            hasher,
            table,
            unbounded_store: HashSet::new(),
            pending: VecDeque::new(),
            ray_clock: 0,
            stats: PredictionStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The bound hasher.
    pub fn hasher(&self) -> &RayHasher {
        &self.hasher
    }

    /// Outcome statistics accumulated by the trace functions.
    pub fn stats(&self) -> PredictionStats {
        self.stats
    }

    /// Mutable access for the trace functions in this crate and the timing
    /// simulator.
    pub fn stats_mut(&mut self) -> &mut PredictionStats {
        &mut self.stats
    }

    /// Table-level statistics (lookups, evictions, …).
    pub fn table_stats(&self) -> crate::TableStats {
        self.table.stats()
    }

    /// Advances the per-ray clock and applies training updates whose delay
    /// has elapsed. Call once per ray before [`Predictor::lookup_hashed`].
    pub fn begin_ray(&mut self) {
        self.ray_clock += 1;
        while let Some(&(due, hash, node)) = self.pending.front() {
            if due > self.ray_clock {
                break;
            }
            self.pending.pop_front();
            self.apply_update(hash, node);
        }
    }

    fn apply_update(&mut self, hash: u32, node: NodeId) {
        if self.config.oracle.unbounded() {
            self.unbounded_store.insert(node);
        } else {
            self.table.insert(hash, node);
        }
    }

    /// Hashes a ray with the configured function.
    pub fn hash_ray(&self, ray: &Ray) -> u32 {
        self.hasher.hash(ray)
    }

    /// Performs the realistic predictor lookup for a ray hashed by
    /// [`Predictor::hash_ray`]. The spherical hash costs real
    /// trigonometry, so the per-ray flow hashes once and shares the value
    /// between lookup and training — exactly as the hardware unit
    /// computes it a single time per ray.
    ///
    /// Oracle modes do not use this path — see
    /// [`Predictor::oracle_lookup`].
    pub fn lookup_hashed(&mut self, hash: u32) -> Option<Prediction> {
        self.table
            .lookup(hash)
            .map(|nodes| Prediction { hash, nodes })
    }

    /// Oracle lookup (§6.3): returns the deepest stored node lying on the
    /// given root-ward `ancestor_chain` of the ray's true hit leaf
    /// (`chain[0]` = leaf, ascending). Approximates "always identify the
    /// correct entry if one exists" — see DESIGN.md for why ancestors of
    /// the verified hit leaf are the verifying candidates.
    pub fn oracle_lookup(&mut self, ray: &Ray, ancestor_chain: &[NodeId]) -> Option<Prediction> {
        let hash = self.hash_ray(ray);
        if self.config.oracle.unbounded() {
            ancestor_chain
                .iter()
                .find(|n| self.unbounded_store.contains(n))
                .map(|&n| Prediction {
                    hash,
                    nodes: NodeCandidates::single(n),
                })
        } else {
            let stored: HashSet<NodeId> = self.table.stored_nodes().into_iter().collect();
            ancestor_chain
                .iter()
                .find(|n| stored.contains(n))
                .map(|&n| Prediction {
                    hash,
                    nodes: NodeCandidates::single(n),
                })
        }
    }

    /// Trains the predictor from a verified or fully-traversed hit: stores
    /// the Go-Up-Level ancestor of the intersected leaf under the ray's
    /// hash, after the configured in-flight delay.
    pub fn train(&mut self, bvh: &Bvh, hash: u32, hit_leaf: NodeId) {
        let node = bvh.ancestor(hit_leaf, self.config.go_up_level);
        if self.config.update_delay == 0 {
            self.apply_update(hash, node);
        } else {
            let due = self.ray_clock + self.config.update_delay as u64;
            self.pending.push_back((due, hash, node));
        }
    }

    /// Rewards the node that verified a prediction (feeds LFU/LRU-K).
    pub fn reward(&mut self, hash: u32, node: NodeId) {
        self.table.reward(hash, node);
    }

    /// Discards all learned state (table contents, unbounded store and
    /// in-flight updates), keeping statistics. Used between frames by the
    /// dynamic-scene study to model a predictor that is flushed on every
    /// acceleration-structure update, versus one whose state persists
    /// across refits (§8 future work).
    pub fn clear_learned_state(&mut self) {
        self.table.clear();
        self.unbounded_store.clear();
        self.pending.clear();
    }

    /// Number of nodes in the oracle's unbounded store (0 for realistic
    /// configurations).
    pub fn unbounded_store_len(&self) -> usize {
        self.unbounded_store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::{Triangle, Vec3};

    fn test_bvh() -> Bvh {
        let mut tris = Vec::new();
        for i in 0..32 {
            let o = Vec3::new((i % 8) as f32, 0.0, (i / 8) as f32);
            tris.push(Triangle::new(o, o + Vec3::X, o + Vec3::Z));
        }
        Bvh::build(&tris)
    }

    fn immediate_config() -> PredictorConfig {
        PredictorConfig {
            update_delay: 0,
            ..PredictorConfig::paper_default()
        }
    }

    #[test]
    fn train_then_lookup_same_hash() {
        let bvh = test_bvh();
        let mut p = Predictor::new(immediate_config(), bvh.bounds());
        let ray = Ray::new(Vec3::new(2.5, 3.0, 2.5), -Vec3::Y);
        let hash = p.hash_ray(&ray);
        let leaf = bvh.leaf_of_triangle(0).unwrap();
        p.begin_ray();
        p.train(&bvh, hash, leaf);
        let pred = p
            .lookup_hashed(p.hash_ray(&ray))
            .expect("trained entry must be found");
        assert_eq!(pred.hash, hash);
        assert_eq!(pred.nodes, vec![bvh.ancestor(leaf, 3)]);
    }

    #[test]
    fn update_delay_defers_visibility() {
        let bvh = test_bvh();
        let config = PredictorConfig {
            update_delay: 3,
            ..PredictorConfig::paper_default()
        };
        let mut p = Predictor::new(config, bvh.bounds());
        let ray = Ray::new(Vec3::new(2.5, 3.0, 2.5), -Vec3::Y);
        let hash = p.hash_ray(&ray);
        let leaf = bvh.leaf_of_triangle(0).unwrap();
        p.begin_ray();
        p.train(&bvh, hash, leaf);
        for _ in 0..2 {
            p.begin_ray();
            assert!(
                p.lookup_hashed(p.hash_ray(&ray)).is_none(),
                "update visible too early"
            );
        }
        p.begin_ray();
        p.begin_ray();
        assert!(
            p.lookup_hashed(p.hash_ray(&ray)).is_some(),
            "update should be visible after the delay"
        );
    }

    #[test]
    fn go_up_level_zero_stores_leaf_itself() {
        let bvh = test_bvh();
        let config = PredictorConfig {
            go_up_level: 0,
            update_delay: 0,
            ..Default::default()
        };
        let mut p = Predictor::new(config, bvh.bounds());
        let ray = Ray::new(Vec3::new(0.2, 3.0, 0.2), -Vec3::Y);
        let hash = p.hash_ray(&ray);
        let leaf = bvh.leaf_of_triangle(0).unwrap();
        p.train(&bvh, hash, leaf);
        assert_eq!(p.lookup_hashed(p.hash_ray(&ray)).unwrap().nodes, vec![leaf]);
    }

    #[test]
    fn oracle_lookup_finds_stored_ancestor() {
        let bvh = test_bvh();
        let config = immediate_config().with_oracle(OracleMode::UnboundedTraining);
        let mut p = Predictor::new(config, bvh.bounds());
        let ray = Ray::new(Vec3::new(0.2, 3.0, 0.2), -Vec3::Y);
        let hash = p.hash_ray(&ray);
        let leaf = bvh.leaf_of_triangle(0).unwrap();
        p.train(&bvh, hash, leaf);
        assert_eq!(p.unbounded_store_len(), 1);
        // Build the chain leaf → root.
        let mut chain = vec![leaf];
        while let Some(parent) = bvh.node(*chain.last().unwrap()).parent() {
            chain.push(parent);
        }
        let pred = p
            .oracle_lookup(&ray, &chain)
            .expect("stored ancestor on chain");
        assert_eq!(pred.nodes, vec![bvh.ancestor(leaf, 3)]);
        // A chain that avoids the stored node yields no prediction.
        assert!(p.oracle_lookup(&ray, &[]).is_none());
    }

    #[test]
    fn oracle_finite_lookup_searches_table() {
        let bvh = test_bvh();
        let config = immediate_config().with_oracle(OracleMode::Lookup);
        let mut p = Predictor::new(config, bvh.bounds());
        // OracleMode::Lookup is not unbounded: training goes to the table.
        let ray = Ray::new(Vec3::new(0.2, 3.0, 0.2), -Vec3::Y);
        let hash = p.hash_ray(&ray);
        let leaf = bvh.leaf_of_triangle(0).unwrap();
        p.train(&bvh, hash, leaf);
        let stored = bvh.ancestor(leaf, 3);
        let pred = p.oracle_lookup(&ray, &[stored]).unwrap();
        assert_eq!(pred.nodes, vec![stored]);
    }

    #[test]
    fn cold_lookup_misses() {
        let bvh = test_bvh();
        let mut p = Predictor::new(immediate_config(), bvh.bounds());
        assert!(p
            .lookup_hashed(p.hash_ray(&Ray::new(Vec3::ONE, Vec3::Z)))
            .is_none());
    }
}
