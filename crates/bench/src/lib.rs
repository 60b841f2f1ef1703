//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6).
//!
//! Each experiment lives in [`experiments`] as a function from a
//! [`Context`] to a [`Report`]; the `src/bin/*` binaries are thin wrappers
//! so results can be produced one figure at a time or all at once via
//! `run_all`. Experiments run at three scales (`--scale tiny|quick|paper`)
//! with viewport and workload density scaled alongside the procedural
//! scene budgets, preserving the ray-density-to-hash-space ratio that the
//! predictor's training depends on (see DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use rip_bench::{Context, SceneSelection};
//! use rip_scene::SceneScale;
//!
//! let ctx = Context::new(SceneScale::Tiny, SceneSelection::Subset(1));
//! let report = rip_bench::experiments::table1_scenes::run(&ctx);
//! assert!(report.text.contains("Sibenik"));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
mod harness;
mod table;

pub use harness::{Case, Context, ParsedArgs, SceneSelection, TraceMode};
pub use table::{fmt_f64, fmt_pct, Report, Table};
