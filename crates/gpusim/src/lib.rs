//! Cycle-level timing simulator for the baseline RT unit and the ray
//! intersection predictor (§5.1, Figure 10).
//!
//! Where the paper reports *speedups* (Figures 12, 15, 16, 17; Tables 6–8)
//! it runs GPGPU-Sim with an RT-unit model. This crate rebuilds that model
//! as a discrete-event simulator:
//!
//! * a [`Cache`] model (L1 per SM, shared L2, optional dedicated RT cache),
//! * a banked [`Dram`] with occupancy-based contention,
//! * an RT unit per SM executing up to eight 32-ray warps with
//!   greedy-then-oldest memory scheduling and MSHR-style intra-warp request
//!   merging (§5.1.2),
//! * a predictor unit with ported lookup queues (§4.1),
//! * **warp repacking** with the partial warp collector (§4.4) and the
//!   additional-warps extension (§4.4.2).
//!
//! The simulator reuses `rip-bvh`'s steppable [`rip_bvh::Traversal`] for
//! functional correctness and `rip-core`'s [`rip_core::Predictor`] for
//! prediction semantics, and adds cycle accounting on top.
//!
//! # Examples
//!
//! ```
//! use rip_gpusim::{GpuConfig, Simulator};
//! use rip_bvh::Bvh;
//! use rip_math::{Ray, Triangle, Vec3};
//!
//! let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
//! let rays = vec![Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z); 64];
//! let report = Simulator::new(GpuConfig::baseline()).run(&bvh, &rays);
//! assert!(report.cycles > 0);
//! assert_eq!(report.completed_rays, 64);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cache;
mod collector;
mod config;
mod dram;
mod memory;
mod report;
mod rt_unit;
mod sim;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use collector::PartialWarpCollector;
pub use config::{GpuConfig, LatencyConfig, PredictorUnitConfig, RepackMode};
pub use dram::{Dram, DramConfig, DramStats};
pub use memory::MemoryStats;
pub use report::{ActivityCounts, SimReport};
pub use sim::Simulator;
