//! The ray intersection predictor — the primary contribution of
//! *Intersection Prediction for Accelerated GPU Ray Tracing* (MICRO 2021).
//!
//! The predictor (§3–§4) memoizes which BVH node previous, spatially
//! similar rays intersected, keyed by a lossy ray hash. A future ray whose
//! hash collides is *predicted*: traversal starts directly at the stored
//! node instead of the root. If the ray finds an intersection there it is
//! *verified* and the entire interior traversal was skipped; otherwise it is
//! *mispredicted* and must restart from the root.
//!
//! This crate provides:
//!
//! * [`RayHasher`] — the Grid Spherical and Two Point hash functions
//!   (§4.2) plus gshare-style folding,
//! * [`PredictorTable`] — the set-associative table of Figure 5 with
//!   configurable entries, ways, nodes-per-entry and node replacement
//!   policies (§4.1, §6.1),
//! * [`Predictor`] — table + hash + Go Up Level (§4.3) + training,
//! * [`PredictedRay`] — one ray's §3 prediction / verification /
//!   fallback / training decisions, resumable one traversal leg at a
//!   time; both the functional and the timing simulator drive it,
//! * [`trace_with`] — runs that flow to completion for occlusion and
//!   closest-hit (GI, §6.4) rays, generic over the fallback kernel and
//!   the probe evaluator; [`trace`] binds the while-while fallback,
//! * [`Predicted`] — the predictor as a composable wrapper kernel: wraps
//!   any [`rip_bvh::TraversalKernel`] (while-while, stackless, wide) with
//!   the prediction flow, itself implementing the kernel trait,
//! * [`FunctionalSim`] — a trace-level simulator producing the
//!   memory-access and rate metrics of Figures 1, 2, 14 and Tables 5–8,
//!   including the oracle modes of the §6.3 limit study,
//! * [`Eq1Model`] — the analytic node-skip model of Equation 1.
//!
//! # Examples
//!
//! ```
//! use rip_bvh::Bvh;
//! use rip_core::{Predictor, PredictorConfig};
//! use rip_math::{Ray, Triangle, Vec3};
//!
//! let bvh = Bvh::build(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
//! let mut predictor = Predictor::new(PredictorConfig::paper_default(), bvh.bounds());
//! let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
//! let outcome = rip_core::trace(&mut predictor, &bvh, &ray, rip_bvh::TraversalKind::AnyHit);
//! assert!(outcome.hit.is_some());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod adaptive;
mod config;
mod eq1;
#[cfg(test)]
mod flow_golden;
mod hash;
mod oracle;
mod policies;
mod predicted;
mod predictor;
mod shared;
mod sim;
mod stats;
mod table;
mod traverse;

pub use adaptive::AdaptivePredictor;
pub use config::PredictorConfig;
pub use eq1::Eq1Model;
pub use hash::{fold_hash, HashFunction, RayHasher};
pub use oracle::OracleMode;
pub use policies::NodeReplacement;
pub use predicted::Predicted;
pub use predictor::{Prediction, Predictor};
pub use shared::ConcurrentPredictorTable;
pub use sim::{FunctionalReport, FunctionalSim, SimOptions};
pub use stats::PredictionStats;
pub use table::{NodeCandidates, PredictorTable, TableStats, INLINE_CANDIDATES};
pub use traverse::{eval_probe, trace, trace_with, Leg, PredictedRay, PredictedTrace, RayOutcome};
