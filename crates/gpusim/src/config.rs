//! Top-level GPU / RT-unit configuration (Tables 2 and 3).

use crate::{CacheConfig, DramConfig};
use rip_core::{OracleMode, PredictorConfig};

/// Fixed-function latencies of the RT unit (§5.1.5, Figure 17 sweeps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Cycles to enqueue a ray query into the RT unit.
    pub queue: u64,
    /// L1 hit latency.
    pub l1_hit: u64,
    /// Additional latency of an L2 hit (on top of the L1 path).
    pub l2_hit: u64,
    /// Latency of one pipelined intersection test (box or triangle).
    pub intersection: u64,
}

impl LatencyConfig {
    /// §5.1.5 minimum-traversal numbers: 1-cycle queue, 1-cycle L1,
    /// 2-cycle intersection; L2 at an interconnect-realistic 30 cycles.
    pub fn baseline() -> Self {
        LatencyConfig {
            queue: 1,
            l1_hit: 1,
            l2_hit: 30,
            intersection: 2,
        }
    }
}

/// Predictor unit port/latency parameters (§4.1, Figure 17 sweeps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorUnitConfig {
    /// Table access ports (lookups per cycle). The paper finds four ideal.
    pub ports: u64,
    /// Table access latency in cycles (Table 3: 1; §5.1.5 budget: 2 with
    /// queueing).
    pub access_latency: u64,
}

impl PredictorUnitConfig {
    /// Table 3: four accesses per cycle, 1-cycle access.
    pub fn baseline() -> Self {
        PredictorUnitConfig {
            ports: 4,
            access_latency: 1,
        }
    }
}

/// Warp repacking operating mode (§4.4, Figure 15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepackMode {
    /// Predictor without repacking ("Default" in Figure 15): predicted and
    /// not-predicted rays stay in their original warp.
    #[default]
    Off,
    /// Repacking via the partial warp collector ("Repack").
    On,
    /// Repacking plus `extra` additional concurrent warps ("Repack 4" uses
    /// 4, §4.4.2).
    WithExtraWarps(
        /// Additional warps beyond the RT unit's base limit.
        u32,
    ),
}

impl RepackMode {
    /// Whether predicted rays are split out into the collector.
    pub fn repacks(self) -> bool {
        !matches!(self, RepackMode::Off)
    }

    /// Additional warp slots granted to repacked warps.
    pub fn extra_warps(self) -> u32 {
        match self {
            RepackMode::WithExtraWarps(n) => n,
            _ => 0,
        }
    }
}

/// Full timing-simulator configuration.
///
/// # Examples
///
/// ```
/// use rip_gpusim::GpuConfig;
///
/// let baseline = GpuConfig::baseline();
/// assert!(baseline.predictor.is_none());
/// let predicted = GpuConfig::with_predictor();
/// assert!(predicted.predictor.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Streaming multiprocessors; Table 2 models two, each with one RT
    /// unit and one predictor.
    pub num_sms: usize,
    /// Concurrent warps per RT unit (§5.1.1: eight).
    pub max_warps_per_rt: usize,
    /// Threads (rays) per warp.
    pub warp_size: usize,
    /// Per-SM L1 configuration.
    pub l1: CacheConfig,
    /// Optional dedicated RT cache in front of the L1 (§6.2.3).
    pub rt_cache: Option<CacheConfig>,
    /// Shared L2 configuration.
    pub l2: CacheConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Fixed-function latencies.
    pub latency: LatencyConfig,
    /// Predictor configuration; `None` simulates the baseline RT unit.
    pub predictor: Option<PredictorConfig>,
    /// Predictor unit ports/latency.
    pub predictor_unit: PredictorUnitConfig,
    /// Warp repacking mode (only meaningful with a predictor).
    pub repack: RepackMode,
    /// Partial warp collector timeout in cycles (§4.4.1: 5–30 show
    /// insignificant differences; default 16).
    pub collector_timeout: u64,
    /// Partial warp collector capacity in ray IDs (§4.4.1: 64).
    pub collector_capacity: usize,
}

impl GpuConfig {
    /// The baseline RT unit of §5.1 (no predictor), Table 2 memory system.
    pub fn baseline() -> Self {
        GpuConfig {
            num_sms: 2,
            max_warps_per_rt: 8,
            warp_size: 32,
            l1: CacheConfig::l1_baseline(),
            rt_cache: None,
            l2: CacheConfig::l2_baseline(),
            dram: DramConfig::baseline(),
            latency: LatencyConfig::baseline(),
            predictor: None,
            predictor_unit: PredictorUnitConfig::baseline(),
            repack: RepackMode::Off,
            collector_timeout: 16,
            collector_capacity: 64,
        }
    }

    /// Baseline plus the Table 3 predictor with repacking on — the
    /// configuration behind the headline Figure 12 numbers.
    pub fn with_predictor() -> Self {
        GpuConfig {
            predictor: Some(PredictorConfig::paper_default()),
            repack: RepackMode::On,
            ..Self::baseline()
        }
    }

    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.max_warps_per_rt == 0 || self.warp_size == 0 {
            return Err("num_sms, max_warps_per_rt and warp_size must be positive".into());
        }
        self.l1.validate()?;
        self.l2.validate()?;
        if let Some(rt) = &self.rt_cache {
            rt.validate()?;
        }
        if !self.dram.banks.is_power_of_two() {
            return Err(format!(
                "{} DRAM banks: the bank count must be a power of two",
                self.dram.banks
            ));
        }
        if let Some(p) = &self.predictor {
            p.validate()?;
            // §6.3's oracles need a ground-truth traversal first.
            if p.oracle != OracleMode::None {
                return Err(format!("oracle {:?} runs only in FunctionalSim", p.oracle));
            }
        }
        if self.predictor_unit.ports == 0 {
            return Err("predictor needs at least one port".into());
        }
        if self.collector_capacity < self.warp_size {
            return Err("collector must hold at least one full warp".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_2() {
        let c = GpuConfig::baseline();
        c.validate().unwrap();
        assert_eq!(c.num_sms, 2);
        assert_eq!(c.max_warps_per_rt, 8);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
    }

    #[test]
    fn repack_modes() {
        assert!(!RepackMode::Off.repacks());
        assert!(RepackMode::On.repacks());
        assert_eq!(RepackMode::WithExtraWarps(4).extra_warps(), 4);
        assert_eq!(RepackMode::On.extra_warps(), 0);
    }

    #[test]
    fn validation_catches_zero_fields() {
        let mut c = GpuConfig::baseline();
        c.num_sms = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::with_predictor();
        c.predictor_unit.ports = 0;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::baseline();
        c.collector_capacity = 8;
        assert!(c.validate().is_err());
        let mut c = GpuConfig::baseline();
        c.dram.banks = 12;
        assert!(c.validate().unwrap_err().contains("12 DRAM banks"));
    }

    #[test]
    fn validation_rejects_oracle_predictors() {
        let mut c = GpuConfig::with_predictor();
        let oracle = c.predictor.unwrap().with_oracle(OracleMode::Lookup);
        c.predictor = Some(oracle);
        assert!(c.validate().unwrap_err().contains("oracle Lookup"));
    }
}
