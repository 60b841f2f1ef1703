//! rip-exec: parallel, fault-tolerant experiment execution engine.
//!
//! Five layers, each usable on its own:
//!
//! - [`pool`]: a scoped-thread [`JobPool`] with a global job
//!   budget and *ordered* result collection, so parallel runs produce
//!   byte-identical output to serial runs.
//! - [`cache`]: a process-wide [`CaseCache`] mapping
//!   `(scene, scale, viewport)` to a built [`Case`], backed by an on-disk
//!   artifact store of serialized meshes and BVH node buffers; corrupt
//!   artifacts are quarantined to `*.quarantine` and rebuilt from source.
//! - [`runner`]: a [`ShardedRunner`] fanning
//!   `(scene, config)` work units across the pool with per-unit timing and
//!   progress telemetry on stderr (stdout stays deterministic), plus a
//!   fault-isolated mode ([`try_run`](runner::ShardedRunner::try_run))
//!   with panic isolation, watchdog deadlines, and bounded retry.
//! - [`fault`]: the structured fault taxonomy
//!   ([`FaultKind`]), the retry/backoff policy, the
//!   `RIP_UNIT_TIMEOUT` watchdog knob, and the `RIP_FAULT_INJECT` test
//!   hook.
//! - [`journal`]: a crash-safe checkpoint journal of completed units so a
//!   killed sweep resumes where it left off.
//! - [`trace_store`]: a capture-once [`TraceStore`]
//!   of recorded RIPT ray-trace sets keyed by workload label, honoring
//!   `$RIP_TRACE_DIR`, with the same quarantine-and-recapture fault
//!   contract as the artifact store.
//!
//! Every diagnostic that used to be a raw `eprintln!` is now a
//! structured [`rip_obs`] event: the stderr text is printed verbatim
//! (greps keep working), while the structured part feeds the bounded
//! event log, the `exec.*` counters, and — when tracing is enabled —
//! the chrome://tracing export. Caches and runners accept a scoped
//! [`Obs`](rip_obs::Obs) via their `with_obs` builders; everything else
//! uses the process-wide instance.

pub mod artifact;
pub mod cache;
pub mod case;
pub mod fault;
pub mod journal;
pub mod pool;
pub mod runner;
pub mod trace_store;

pub use artifact::MappedArtifact;
pub use cache::{CacheError, CacheStats, CaseCache};
pub use case::{Case, CaseKey};
pub use fault::{
    apply_injections, unit_timeout_from_env, Fault, FaultKind, InjectionPlan, RetryPolicy,
};
pub use journal::{Journal, JournalEntry};
pub use pool::{available_parallelism, global_budget, set_global_budget, JobPool};
pub use runner::{ShardedRunner, UnitReport};
pub use trace_store::{TraceStore, TraceStoreStats};
