//! Statistics of the memory hierarchy: (optional RT cache) → per-SM L1 →
//! shared L2 → banked DRAM (§5.1.4). The simulator's engine (`sim.rs`)
//! models the hierarchy itself.

use crate::{CacheStats, DramStats};

/// Aggregate memory-system statistics.
#[derive(Clone, Debug, Default)]
pub struct MemoryStats {
    /// Per-SM RT cache stats (empty when no RT cache is configured).
    pub rt_cache: Vec<CacheStats>,
    /// Per-SM L1 stats.
    pub l1: Vec<CacheStats>,
    /// Shared L2 stats.
    pub l2: CacheStats,
    /// DRAM stats.
    pub dram: DramStats,
}

impl MemoryStats {
    /// Combined L1 statistics over all SMs.
    pub fn l1_combined(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.l1 {
            total.accesses += s.accesses;
            total.hits += s.hits;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_combined_sums_every_sm() {
        let stats = MemoryStats {
            l1: vec![
                CacheStats {
                    accesses: 2,
                    hits: 1,
                },
                CacheStats {
                    accesses: 5,
                    hits: 3,
                },
            ],
            ..MemoryStats::default()
        };
        assert_eq!(
            stats.l1_combined(),
            CacheStats {
                accesses: 7,
                hits: 4
            }
        );
    }
}
