//! Ray-tracing-as-a-service over the intersection-predictor stack.
//!
//! The paper's predictor (§3–§4) exploits ray locality *across* rays;
//! a service multiplexing many tenants over one scene multiplies that
//! locality — every tenant's traffic trains the table every other
//! tenant predicts from. This crate is the ROADMAP's service-layer
//! step: the long-lived, concurrent front-end the single-shot CLI
//! experiments cannot express.
//!
//! The pieces, designed around immutability, bounded queues, and typed
//! failure:
//!
//! * [`SceneRegistry`] — epoch-based immutable scene/BVH leases backed
//!   by the shared `rip-exec` [`CaseCache`](rip_exec::CaseCache);
//!   reloads publish a new epoch, never mutate in place, and
//!   [`SceneRegistry::try_reload`] survives failed rebuilds behind a
//!   circuit breaker.
//! * [`ConcurrentPredictorTable`](rip_core::ConcurrentPredictorTable)
//!   (from `rip-core`) — the lock-striped predictor table that one
//!   service learns into, driven here by per-chunk
//!   [`Predicted`](rip_core::Predicted) kernels.
//! * [`RayService`] — admission control ([`AdmissionConfig`]) and
//!   deadlines in front of bounded per-tenant queues with typed
//!   [`Rejection`]s, round-robin fairness, per-class coalescing into
//!   Morton-sorted [`RayBatch`](rip_bvh::RayBatch) streams,
//!   fault-isolated chunk tracing over the `rip-exec`
//!   [`JobPool`](rip_exec::JobPool), and per-class latency
//!   [`Histogram`](rip_obs::Histogram)s.
//! * [`ServiceMode`] — the graceful-degradation ladder
//!   (`Full → NoPredict → Survival`) driven by windowed round health.
//! * [`ChaosConfig`] — deterministic probabilistic fault injection into
//!   trace chunks, composing with the `RIP_FAULT_INJECT` plan under the
//!   `serve_chunk` / `serve_reload` labels; feeds the `chaos_bench`
//!   harness and `BENCH_chaos.json`.
//! * [`loadgen`] — synthetic multi-tenant *open-loop* load generation
//!   (absolute schedules, shed-on-full, optional per-request deadlines)
//!   feeding the `serve_bench` binary and `BENCH_serve.json`.
//!
//! See DESIGN.md §9–§10 for the architecture rationale and
//! EXPERIMENTS.md for the `serve_bench` / `chaos_bench` knobs.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod admission;
mod chaos;
pub mod loadgen;
mod mode;
mod queue;
mod registry;
mod service;

pub use admission::{AdmissionConfig, AdmissionControl};
pub use chaos::{apply_chunk_injections, ChaosConfig, CHUNK_INJECT_LABEL, RELOAD_INJECT_LABEL};
pub use loadgen::{ClassReport, LoadGenConfig, LoadReport};
pub use mode::{DegradeConfig, ModeController, ModeTransition, ServiceMode};
pub use queue::{Backpressure, Rejection, Request, RequestClass, TenantQueue};
pub use registry::{BreakerConfig, ReloadError, SceneLease, SceneRegistry};
pub use service::{ClassStats, RayService, RoundReport, ServiceConfig, ServiceStats};
