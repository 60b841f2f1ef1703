//! One module per reproduced table/figure. Every experiment is a pure
//! function `run(&Context) -> Report` so the binaries, `run_all` and the
//! integration tests share one implementation.

pub mod ext_adaptive_hash;
pub mod ext_dynamic_scenes;
pub mod ext_shadow_rays;
pub mod ext_wide_bvh;
pub mod ext_wide_predictor;
pub mod fig01_memory_distribution;
pub mod fig02_limit_study;
pub mod fig11_correlation;
pub mod fig12_speedup;
pub mod fig13_memory_accesses;
pub mod fig14_go_up_level;
pub mod fig15_repacking;
pub mod fig16_cache;
pub mod fig17_latency;
pub mod sec613_node_replacement;
pub mod sec625_sm_sweep;
pub mod sec64_gi;
pub mod table1_scenes;
pub mod table4_energy;
pub mod table5_eq1;
pub mod table6_table_size;
pub mod table7_placement;
pub mod table8_hash;

use crate::{Context, Report};
use rip_exec::{fault, Fault, Journal, JournalEntry, RetryPolicy};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// An experiment entry point: pure function from context to report.
pub type Experiment = fn(&Context) -> Report;

/// Every experiment in paper order, as `(name, run)` pairs. This is the
/// schedule consumed by [`run_all`] and by the determinism tests.
pub const ALL: [(&str, Experiment); 23] = [
    ("table1_scenes", table1_scenes::run),
    ("fig01_memory_distribution", fig01_memory_distribution::run),
    ("fig02_limit_study", fig02_limit_study::run),
    ("fig11_correlation", fig11_correlation::run),
    ("fig12_speedup", fig12_speedup::run),
    ("fig13_memory_accesses", fig13_memory_accesses::run),
    ("table4_energy", table4_energy::run),
    ("table5_eq1", table5_eq1::run),
    ("table6_table_size", table6_table_size::run),
    ("table7_placement", table7_placement::run),
    ("table8_hash", table8_hash::run),
    ("sec613_node_replacement", sec613_node_replacement::run),
    ("fig14_go_up_level", fig14_go_up_level::run),
    ("fig15_repacking", fig15_repacking::run),
    ("fig16_cache", fig16_cache::run),
    ("fig17_latency", fig17_latency::run),
    ("sec625_sm_sweep", sec625_sm_sweep::run),
    ("sec64_gi", sec64_gi::run),
    ("ext_dynamic_scenes", ext_dynamic_scenes::run),
    ("ext_adaptive_hash", ext_adaptive_hash::run),
    ("ext_shadow_rays", ext_shadow_rays::run),
    ("ext_wide_bvh", ext_wide_bvh::run),
    ("ext_wide_predictor", ext_wide_predictor::run),
];

/// Runs every experiment in paper order.
///
/// Whole experiments are fanned over the shared job pool: each experiment
/// still parallelizes internally, but the global permit budget keeps the
/// total worker count bounded, so scheduling experiments concurrently
/// fills the machine even while one experiment is in a serial stretch.
/// Reports come back in paper order regardless of completion order.
pub fn run_all(ctx: &Context) -> Vec<Report> {
    ctx.runner("run_all")
        .run(&ALL, |(name, _)| (*name).to_string(), |&(_, run)| run(ctx))
        .into_iter()
        .map(|report| report.into_value())
        .collect()
}

/// One failed work unit of a fault-isolated sweep.
#[derive(Clone, Debug)]
pub struct UnitFailure {
    /// Experiment name (the schedule key).
    pub name: String,
    /// The structured fault that felled it.
    pub fault: Fault,
    /// Attempts consumed (>1 when retries fired).
    pub attempts: u32,
    /// Wall-clock time spent on the unit.
    pub elapsed: Duration,
}

/// Outcome of a fault-isolated (and possibly resumed) sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepOutcome {
    /// Successful reports in paper order (failed units are absent).
    pub reports: Vec<Report>,
    /// Failed units in paper order.
    pub failures: Vec<UnitFailure>,
    /// Units served from the resume journal instead of re-running.
    pub resumed: usize,
}

impl SweepOutcome {
    /// Renders the per-unit failure table (empty string when clean).
    pub fn failure_report(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut table = crate::Table::new(&["Unit", "Fault", "Attempts", "Elapsed (ms)", "Detail"]);
        for failure in &self.failures {
            let mut detail = failure.fault.message.replace('\n', " ");
            if detail.len() > 60 {
                detail.truncate(57);
                detail.push_str("...");
            }
            table.row(&[
                failure.name.clone(),
                failure.fault.kind.label().to_string(),
                failure.attempts.to_string(),
                failure.elapsed.as_millis().to_string(),
                detail,
            ]);
        }
        format!(
            "=== Failure report ===\n{}{} of {} unit(s) failed; completed units are unaffected.\n",
            table.render(),
            self.failures.len(),
            ALL.len(),
        )
    }
}

/// Configuration fingerprint tying a resume journal to one sweep shape:
/// scale, scene selection, the experiment schedule, and the BVH and
/// trace artifact format versions. A journal written under any other fingerprint is
/// refused on resume.
pub fn sweep_fingerprint(ctx: &Context) -> String {
    let scenes: Vec<&str> = ctx.scene_ids().iter().map(|id| id.code()).collect();
    let schedule: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
    format!(
        "run_all scale={:?} scenes={} schedule={} formats=b{}t{} trace={:?}",
        ctx.scale,
        scenes.join(","),
        schedule.join(","),
        rip_bvh::serial::FORMAT_VERSION,
        rip_bvh::ript::FORMAT_VERSION,
        ctx.trace_mode(),
    )
}

/// Fault-isolated, resumable variant of [`run_all`].
///
/// Every experiment runs behind `catch_unwind`, the `RIP_UNIT_TIMEOUT`
/// watchdog, and bounded retry for retryable faults, so one bad unit is
/// recorded in [`SweepOutcome::failures`] while the rest of the sweep
/// completes. Units named in `completed` (decoded from a resume journal)
/// are served from their recorded reports instead of re-running; each
/// fresh success is appended to `journal` the moment it finishes, so a
/// killed sweep restarts where it left off.
///
/// For an all-success, non-resumed sweep the returned reports are
/// *identical* to [`run_all`]'s — fault isolation must never perturb
/// clean output.
pub fn run_all_isolated(
    ctx: &Context,
    journal: Option<&Journal>,
    completed: &HashMap<String, Report>,
) -> SweepOutcome {
    let pending: Vec<&(&str, Experiment)> = ALL
        .iter()
        .filter(|(name, _)| !completed.contains_key(*name))
        .collect();
    let runner = ctx
        .runner("run_all")
        .with_deadline(fault::unit_timeout_from_env())
        .with_retry(RetryPolicy::standard());
    let unit_reports = runner.try_run(
        &pending,
        |(name, _)| (*name).to_string(),
        |&&(name, run), attempt| {
            fault::apply_injections(name, attempt)?;
            let start = Instant::now();
            let report = run(ctx);
            if let Some(journal) = journal {
                journal
                    .append(&JournalEntry {
                        label: name.to_string(),
                        attempts: attempt,
                        elapsed: start.elapsed(),
                        payload: report.encode(),
                    })
                    .map_err(|e| Fault::io(format!("cannot checkpoint unit {name}: {e}")))?;
            }
            Ok(report)
        },
    );

    let mut fresh: HashMap<&str, Result<Report, UnitFailure>> = HashMap::new();
    for report in unit_reports {
        let name = report.label.clone();
        fresh.insert(
            pending[report.index].0,
            match report.outcome {
                Ok(value) => Ok(value),
                Err(fault) => Err(UnitFailure {
                    name,
                    fault,
                    attempts: report.attempts,
                    elapsed: report.elapsed,
                }),
            },
        );
    }

    let mut outcome = SweepOutcome::default();
    for (name, _) in &ALL {
        if let Some(report) = completed.get(*name) {
            outcome.reports.push(report.clone());
            outcome.resumed += 1;
        } else {
            match fresh
                .remove(*name)
                .expect("every pending unit has a report")
            {
                Ok(report) => outcome.reports.push(report),
                Err(failure) => outcome.failures.push(failure),
            }
        }
    }
    outcome
}

/// Decodes journal entries into per-unit reports, dropping entries whose
/// labels are not in the schedule or whose payloads fail decoding (either
/// way the unit simply re-runs).
pub fn decode_journal_entries(entries: &[JournalEntry]) -> HashMap<String, Report> {
    let mut completed = HashMap::new();
    for entry in entries {
        if !ALL.iter().any(|(name, _)| *name == entry.label) {
            eprintln!(
                "[run_all] journal names unknown unit '{}'; ignoring it",
                entry.label
            );
            continue;
        }
        match Report::decode(&entry.payload) {
            Some(report) => {
                completed.insert(entry.label.clone(), report);
            }
            None => eprintln!(
                "[run_all] journal payload for '{}' is damaged; the unit will re-run",
                entry.label
            ),
        }
    }
    completed
}

/// Helper: geometric mean that tolerates empty input by returning 1.0.
pub(crate) fn geomean_or_one(values: impl IntoIterator<Item = f64>) -> f64 {
    rip_math::geometric_mean(values).unwrap_or(1.0)
}
