//! Sharded experiment runner: fan work units over a [`JobPool`] with
//! per-unit timing, fault isolation, and progress telemetry.
//!
//! Results come back in **input order** regardless of completion order,
//! so tables rendered from them are byte-identical to a serial run.
//! Progress and timing lines go to stderr; experiment output on stdout
//! never depends on scheduling.
//!
//! Two execution modes:
//!
//! - [`ShardedRunner::run`] — the fast path for infallible work; a panic
//!   propagates (as `JobPool`'s named error) exactly as before.
//! - [`ShardedRunner::try_run`] — the fault-isolated path: every unit is
//!   wrapped in `catch_unwind`, optionally raced against a watchdog
//!   deadline ([`ShardedRunner::with_deadline`]), and retried with
//!   deterministic backoff for [retryable](Fault::is_retryable) faults
//!   ([`ShardedRunner::with_retry`]). One bad unit yields a recorded
//!   [`Fault`] in its [`UnitReport`]; every other unit still completes.

use crate::fault::{Fault, RetryPolicy};
use crate::pool::JobPool;
use rip_obs::Obs;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished work unit: identity, timing, and a structured outcome.
#[derive(Clone, Debug)]
pub struct UnitReport<U> {
    /// Position of the unit in the input slice.
    pub index: usize,
    /// Human-readable unit label (scene code, config name, …).
    pub label: String,
    /// Wall-clock time the unit took (deadline for timed-out units).
    pub elapsed: Duration,
    /// Attempts the unit consumed (1 unless retries fired).
    pub attempts: u32,
    /// The unit's result: a value, or the structured fault that felled it.
    pub outcome: Result<U, Fault>,
}

impl<U> UnitReport<U> {
    /// Whether the unit succeeded.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The fault that felled the unit, if any.
    pub fn fault(&self) -> Option<&Fault> {
        self.outcome.as_ref().err()
    }

    /// The unit's value.
    ///
    /// # Panics
    ///
    /// Panics with the recorded fault when the unit failed; use
    /// [`UnitReport::outcome`] to handle faults.
    pub fn value(&self) -> &U {
        match &self.outcome {
            Ok(value) => value,
            Err(fault) => panic!("unit '{}' failed: {fault}", self.label),
        }
    }

    /// Consumes the report, returning the unit's value.
    ///
    /// # Panics
    ///
    /// Panics with the recorded fault when the unit failed.
    pub fn into_value(self) -> U {
        match self.outcome {
            Ok(value) => value,
            Err(fault) => panic!("unit '{}' failed: {fault}", self.label),
        }
    }
}

/// Fans `(scene × config)`-style work units across a job pool.
///
/// # Examples
///
/// ```
/// use rip_exec::{JobPool, ShardedRunner};
///
/// let pool = JobPool::new(2);
/// let runner = ShardedRunner::new(&pool, "demo").quiet();
/// let reports = runner.run(&[10u32, 20, 30], |u| format!("u{u}"), |&u| u * 2);
/// assert_eq!(reports.iter().map(|r| *r.value()).collect::<Vec<_>>(), vec![20, 40, 60]);
/// assert_eq!(reports[2].label, "u30");
/// ```
pub struct ShardedRunner<'p> {
    pool: &'p JobPool,
    name: String,
    progress: bool,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    obs: Arc<Obs>,
}

impl<'p> ShardedRunner<'p> {
    /// A runner named `name` (the prefix of its telemetry lines).
    pub fn new(pool: &'p JobPool, name: impl Into<String>) -> Self {
        ShardedRunner {
            pool,
            name: name.into(),
            progress: true,
            deadline: None,
            retry: RetryPolicy::none(),
            obs: Arc::clone(Obs::global()),
        }
    }

    /// Disables per-unit progress lines (timings are still collected).
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Routes this runner's `exec.unit.*` counters, per-unit spans, and
    /// progress events to `obs` instead of the process-wide default.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the per-unit watchdog deadline for [`ShardedRunner::try_run`]
    /// (`None` = no watchdog). A unit that overruns is recorded as a
    /// `Timeout` fault while the rest of the queue keeps draining.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the retry policy for [`ShardedRunner::try_run`]. Only faults
    /// whose [`Fault::is_retryable`] holds are re-attempted.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The pool this runner schedules onto.
    pub fn pool(&self) -> &JobPool {
        self.pool
    }

    /// Runs `work` over every unit, returning timed reports in input
    /// order. `label` names a unit for telemetry.
    ///
    /// This is the infallible fast path: every report's outcome is `Ok`,
    /// and a panicking unit propagates (after all workers finish) as the
    /// pool's named panic. For fault isolation use
    /// [`ShardedRunner::try_run`].
    pub fn run<T, U, L, F>(&self, units: &[T], label: L, work: F) -> Vec<UnitReport<U>>
    where
        T: Sync,
        U: Send,
        L: Fn(&T) -> String + Sync,
        F: Fn(&T) -> U + Sync,
    {
        let total = units.len();
        let done = AtomicUsize::new(0);
        let indexed: Vec<(usize, &T)> = units.iter().enumerate().collect();
        self.pool.map(&indexed, |&(index, unit)| {
            let unit_label = label(unit);
            let span = self
                .obs
                .span("exec.unit", &unit_label)
                .arg("runner", &self.name);
            let start = Instant::now();
            let value = work(unit);
            let elapsed = start.elapsed();
            drop(span);
            self.obs.add("exec.unit.completed", 1);
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if self.progress {
                // The completion rank is schedule-dependent, so it lives
                // only in the stderr text — never in structured args.
                self.obs
                    .event("exec.runner", "unit_done")
                    .arg("runner", &self.name)
                    .arg("unit", &unit_label)
                    .stderr(format!(
                        "[rip-exec] {}: {finished}/{total} {unit_label} done in {} ms",
                        self.name,
                        elapsed.as_millis(),
                    ))
                    .emit();
            }
            UnitReport {
                index,
                label: unit_label,
                elapsed,
                attempts: 1,
                outcome: Ok(value),
            }
        })
    }

    /// Fault-isolated run: applies the fallible `work` to every unit with
    /// panic isolation, the configured watchdog deadline, and bounded
    /// retry for retryable faults, returning reports in input order.
    ///
    /// `work` receives the unit and the 1-based attempt number. A unit
    /// that panics is recorded as a `Panic` fault; one that overruns the
    /// deadline as `Timeout`; a retryable fault is re-attempted up to the
    /// policy's `max_attempts` with deterministic jittered backoff, and
    /// records its final fault if it never succeeds. Faults never
    /// propagate: the sweep always drains and every unit gets a report.
    pub fn try_run<T, U, L, F>(&self, units: &[T], label: L, work: F) -> Vec<UnitReport<U>>
    where
        T: Sync,
        U: Send,
        L: Fn(&T) -> String + Sync,
        F: Fn(&T, u32) -> Result<U, Fault> + Sync,
    {
        let total = units.len();
        let labels: Vec<String> = units.iter().map(&label).collect();
        let mut attempts: Vec<AtomicU32> = Vec::new();
        attempts.resize_with(total, || AtomicU32::new(1));
        let done = AtomicUsize::new(0);
        let indexed: Vec<(usize, &T)> = units.iter().enumerate().collect();

        let outcomes = self.pool.map_units(
            &indexed,
            self.deadline,
            |&(index, unit)| {
                let mut attempt = 1u32;
                loop {
                    attempts[index].store(attempt, Ordering::Relaxed);
                    let span = self
                        .obs
                        .span("exec.unit", &labels[index])
                        .arg("runner", &self.name)
                        .arg_u64("attempt", attempt as u64);
                    let outcome = Fault::catch(|| work(unit, attempt));
                    drop(span);
                    match outcome {
                        Err(fault) if fault.is_retryable() && attempt < self.retry.max_attempts => {
                            let pause = self.retry.backoff(attempt + 1, index as u64);
                            self.obs.add("exec.unit.retries", 1);
                            if self.progress {
                                self.obs
                                    .event("exec.runner", "unit_retry")
                                    .arg("runner", &self.name)
                                    .arg("unit", &labels[index])
                                    .arg_u64("attempt", attempt as u64)
                                    .stderr(format!(
                                        "[rip-exec] {}: {} attempt {attempt} hit a retryable \
                                         fault ({}); retrying in {} ms",
                                        self.name,
                                        labels[index],
                                        fault.message,
                                        pause.as_millis(),
                                    ))
                                    .emit();
                            }
                            std::thread::sleep(pause);
                            attempt += 1;
                        }
                        outcome => return outcome,
                    }
                }
            },
            |index, outcome, elapsed| {
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if self.progress {
                    match outcome {
                        Ok(_) => self
                            .obs
                            .event("exec.runner", "unit_done")
                            .arg("runner", &self.name)
                            .arg("unit", &labels[index])
                            .stderr(format!(
                                "[rip-exec] {}: {finished}/{total} {} done in {} ms",
                                self.name,
                                labels[index],
                                elapsed.as_millis(),
                            ))
                            .emit(),
                        Err(fault) => self
                            .obs
                            .event("exec.runner", "unit_failed")
                            .arg("runner", &self.name)
                            .arg("unit", &labels[index])
                            .arg("fault", fault.kind.to_string())
                            .stderr(format!(
                                "[rip-exec] {}: {finished}/{total} {} FAILED ({}) after {} ms",
                                self.name,
                                labels[index],
                                fault.kind,
                                elapsed.as_millis(),
                            ))
                            .emit(),
                    }
                }
            },
        );

        outcomes
            .into_iter()
            .zip(labels)
            .zip(&attempts)
            .enumerate()
            .map(|(index, (((outcome, elapsed), label), attempts))| {
                match &outcome {
                    Ok(_) => self.obs.add("exec.unit.completed", 1),
                    Err(_) => self.obs.add("exec.unit.failed", 1),
                }
                let attempts = attempts.load(Ordering::Relaxed);
                self.obs.add("exec.unit.attempts", attempts as u64);
                UnitReport {
                    index,
                    label,
                    elapsed,
                    attempts,
                    outcome,
                }
            })
            .collect()
    }

    /// Like [`ShardedRunner::run`] but discards timing metadata and
    /// returns bare values in input order.
    pub fn run_values<T, U, F>(&self, units: &[T], work: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.pool.map(units, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    #[test]
    fn reports_come_back_in_input_order() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(4);
        let runner = ShardedRunner::new(&pool, "test").quiet();
        let units: Vec<u64> = (0..40).collect();
        let reports = runner.run(
            &units,
            |u| format!("unit{u}"),
            |&u| {
                if u % 5 == 0 {
                    std::thread::sleep(Duration::from_micros(300));
                }
                u + 1
            },
        );
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.index, i);
            assert_eq!(*report.value(), units[i] + 1);
            assert_eq!(report.label, format!("unit{}", units[i]));
            assert_eq!(report.attempts, 1);
        }
    }

    #[test]
    fn serial_and_parallel_values_match() {
        let _budget = rip_bvh::budget::test_lock();
        let serial_pool = JobPool::new(1);
        let parallel_pool = JobPool::new(8);
        let units: Vec<u32> = (0..64).collect();
        let f = |&u: &u32| u.wrapping_mul(2654435761).rotate_left(7);
        let serial = ShardedRunner::new(&serial_pool, "s")
            .quiet()
            .run_values(&units, f);
        let parallel = ShardedRunner::new(&parallel_pool, "p")
            .quiet()
            .run_values(&units, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_run_isolates_a_panicking_unit() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(4);
        let runner = ShardedRunner::new(&pool, "isolate").quiet();
        let units: Vec<u32> = (0..12).collect();
        let reports = runner.try_run(
            &units,
            |u| format!("u{u}"),
            |&u, _| {
                if u == 7 {
                    panic!("unit seven is cursed");
                }
                Ok(u * 2)
            },
        );
        assert_eq!(reports.len(), 12);
        for (i, report) in reports.iter().enumerate() {
            if i == 7 {
                let fault = report.fault().expect("unit 7 must fault");
                assert_eq!(fault.kind, FaultKind::Panic);
                assert!(fault.message.contains("cursed"));
            } else {
                assert_eq!(*report.value(), i as u32 * 2, "unit {i} must complete");
            }
        }
    }

    #[test]
    fn try_run_retries_retryable_faults_then_succeeds() {
        let _budget = rip_bvh::budget::test_lock();
        use std::sync::atomic::AtomicU32;
        let pool = JobPool::new(2);
        let runner = ShardedRunner::new(&pool, "retry")
            .quiet()
            .with_retry(RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
            });
        let failures_left = AtomicU32::new(2);
        let reports = runner.try_run(
            &[1u32],
            |_| "flaky".to_string(),
            |&u, _| {
                if failures_left
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err(Fault::retryable("transient"));
                }
                Ok(u)
            },
        );
        assert_eq!(reports[0].attempts, 3);
        assert_eq!(*reports[0].value(), 1);
    }

    #[test]
    fn try_run_reports_exhausted_retries_as_the_final_fault() {
        let pool = JobPool::new(1);
        let runner = ShardedRunner::new(&pool, "exhaust")
            .quiet()
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
            });
        let reports = runner.try_run(
            &[0u32],
            |_| "doomed".to_string(),
            |_, _| -> Result<u32, Fault> { Err(Fault::retryable("never works")) },
        );
        let report = &reports[0];
        assert_eq!(report.attempts, 2);
        assert_eq!(report.fault().unwrap().kind, FaultKind::Retryable);
    }

    #[test]
    fn try_run_honors_the_watchdog_deadline() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(2);
        let runner = ShardedRunner::new(&pool, "watchdog")
            .quiet()
            .with_deadline(Some(Duration::from_millis(40)));
        let units: Vec<u32> = (0..4).collect();
        let reports = runner.try_run(
            &units,
            |u| format!("u{u}"),
            |&u, _| {
                if u == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(u)
            },
        );
        assert_eq!(reports[1].fault().unwrap().kind, FaultKind::Timeout);
        for i in [0usize, 2, 3] {
            assert_eq!(*reports[i].value(), i as u32);
        }
    }

    #[test]
    fn non_retryable_faults_do_not_retry() {
        let pool = JobPool::new(1);
        let runner = ShardedRunner::new(&pool, "hard-fault")
            .quiet()
            .with_retry(RetryPolicy::standard());
        let reports = runner.try_run(
            &[0u32],
            |_| "io".to_string(),
            |_, _| -> Result<u32, Fault> { Err(Fault::io("hard failure")) },
        );
        assert_eq!(reports[0].attempts, 1, "hard faults must not retry");
        assert_eq!(reports[0].fault().unwrap().kind, FaultKind::Io);
    }

    #[test]
    #[should_panic(expected = "unit 'u3' failed")]
    fn value_panics_with_the_unit_label_on_fault() {
        let pool = JobPool::new(1);
        let runner = ShardedRunner::new(&pool, "named").quiet();
        let reports = runner.try_run(
            &[3u32],
            |u| format!("u{u}"),
            |_, _| -> Result<u32, Fault> { Err(Fault::io("gone")) },
        );
        let _ = reports[0].value();
    }
}
