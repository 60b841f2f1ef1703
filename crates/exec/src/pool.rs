//! Scoped-thread job pool with deterministic ordered collection.
//!
//! Built on [`std::thread::scope`] — no dependencies, no long-lived
//! threads. Two properties matter to the experiment harness:
//!
//! 1. **Determinism**: [`JobPool::map`] writes each result into the slot
//!    of its input index, so callers observe results in input order no
//!    matter how the work interleaved. Output is byte-identical to a
//!    serial run.
//! 2. **Deadlock-free nesting**: pools at any nesting depth draw *extra*
//!    worker threads from one process-wide budget ([`rip_bvh::budget`],
//!    re-exported here) with a non-blocking `try_acquire`. The calling thread always participates in its own
//!    `map`, so even when the budget is exhausted every pool still makes
//!    progress — nested parallelism degrades to serial execution instead
//!    of deadlocking or oversubscribing the machine.

use crate::fault::{panic_message, Fault};
use rip_bvh::budget::{release, try_acquire};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

pub use rip_bvh::budget::{available_parallelism, global_budget, set_global_budget};

/// Per-unit result slot of [`JobPool::map_units`]: the unit's outcome
/// and wall-clock time, written once by whichever thread records it.
type UnitSlot<U> = Mutex<Option<(Result<U, Fault>, Duration)>>;

/// A job pool running closures over a slice of work items.
///
/// `jobs` is the *target* parallelism of this pool (calling thread
/// included); the pool may run narrower when the global budget is
/// already spoken for.
///
/// # Examples
///
/// ```
/// use rip_exec::JobPool;
///
/// let pool = JobPool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Clone, Debug)]
pub struct JobPool {
    jobs: usize,
}

impl JobPool {
    /// A pool targeting `jobs`-way parallelism (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        JobPool { jobs: jobs.max(1) }
    }

    /// A pool targeting the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        JobPool::new(available_parallelism())
    }

    /// This pool's target parallelism (calling thread included).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// **input order**. The calling thread always participates, so this
    /// makes progress even when the global budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics (after all workers finish, and after the pool's budget
    /// permits are returned) when any invocation of `f` panicked. The
    /// panic is re-raised as a named `JobPool` error carrying the input
    /// index and the original payload message, so callers see which job
    /// failed instead of a bare join panic. A caught panic never poisons
    /// the pool: subsequent `map` calls run normally.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let total = items.len();
        self.map_caught(items, f)
            .into_iter()
            .enumerate()
            .map(|(index, result)| match result {
                Ok(value) => value,
                Err(payload) => panic!(
                    "JobPool: job {index} of {total} panicked: {}",
                    panic_message(&*payload)
                ),
            })
            .collect()
    }

    /// Like [`JobPool::map`] but returns each job's caught outcome
    /// instead of re-panicking: `Err` holds the panic payload of that
    /// job. Budget permits are always returned before this method does.
    pub fn map_caught<T, U, F>(&self, items: &[T], f: F) -> Vec<std::thread::Result<U>>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let obs = rip_obs::Obs::global();
        obs.add("exec.pool.maps", 1);
        obs.add("exec.pool.items", items.len() as u64);
        let _span = obs
            .span("exec.pool", "map")
            .arg_u64("items", items.len() as u64);
        let mut slots: Vec<Mutex<Option<std::thread::Result<U>>>> = Vec::new();
        slots.resize_with(items.len(), || Mutex::new(None));
        let next = AtomicUsize::new(0);

        let worker = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
            *slots[index].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
        };

        let want = self
            .jobs
            .saturating_sub(1)
            .min(items.len().saturating_sub(1));
        let granted = try_acquire(want);
        std::thread::scope(|scope| {
            for _ in 0..granted {
                scope.spawn(worker);
            }
            worker();
        });
        release(granted);

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every slot is filled once its worker returns")
            })
            .collect()
    }

    /// Fault-isolated map: applies the fallible `f` to every item with
    /// panic isolation and an optional per-unit watchdog `deadline`,
    /// returning `(outcome, wall-clock)` pairs in **input order**.
    ///
    /// With a deadline, each unit body runs on its own scoped thread
    /// while the worker waits on a channel; a unit that overruns is
    /// recorded as [`FaultKind::Timeout`](crate::fault::FaultKind) and
    /// the worker moves on, so one stuck unit cannot starve the rest of
    /// the queue. The overrunning body is not killed (Rust threads cannot
    /// be safely cancelled): it keeps running detached from the schedule
    /// and is joined when the whole map finishes, and whatever it
    /// eventually returns is discarded. `on_done` fires as each unit is
    /// *recorded* (completion order), timeouts included — runners use it
    /// for streaming progress telemetry.
    pub fn map_units<T, U, F, C>(
        &self,
        items: &[T],
        deadline: Option<Duration>,
        f: F,
        on_done: C,
    ) -> Vec<(Result<U, Fault>, Duration)>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> Result<U, Fault> + Sync,
        C: Fn(usize, &Result<U, Fault>, Duration) + Sync,
    {
        let obs = rip_obs::Obs::global();
        obs.add("exec.pool.maps", 1);
        obs.add("exec.pool.items", items.len() as u64);
        let _span = obs
            .span("exec.pool", "map_units")
            .arg_u64("items", items.len() as u64);
        let mut slots: Vec<UnitSlot<U>> = Vec::new();
        slots.resize_with(items.len(), || Mutex::new(None));
        let next = AtomicUsize::new(0);

        let want = self
            .jobs
            .saturating_sub(1)
            .min(items.len().saturating_sub(1));
        let granted = try_acquire(want);
        std::thread::scope(|scope| {
            let slots = &slots;
            let next = &next;
            let f = &f;
            let on_done = &on_done;
            let worker = move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { break };
                let start = Instant::now();
                let outcome = match deadline {
                    None => Fault::catch(|| f(item)),
                    Some(limit) => {
                        let (tx, rx) = mpsc::channel();
                        scope.spawn(move || {
                            let _ = tx.send(Fault::catch(|| f(item)));
                        });
                        match rx.recv_timeout(limit) {
                            Ok(outcome) => outcome,
                            Err(mpsc::RecvTimeoutError::Timeout) => Err(Fault::timeout(limit)),
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                Err(Fault::panic("unit thread vanished without a result"))
                            }
                        }
                    }
                };
                let elapsed = start.elapsed();
                on_done(index, &outcome, elapsed);
                *slots[index].lock().unwrap_or_else(|p| p.into_inner()) = Some((outcome, elapsed));
            };
            for _ in 0..granted {
                scope.spawn(worker);
            }
            worker();
        });
        release(granted);

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every slot is filled once its worker returns")
            })
            .collect()
    }
}

/// A BVH build's subtree jobs run on the pool like any other map.
impl rip_bvh::JobMap for JobPool {
    fn map_jobs<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        self.map(items, f)
    }
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(8);
        let items: Vec<u64> = (0..200).collect();
        let out = pool.map(&items, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_matches_parallel_pool() {
        let _budget = rip_bvh::budget::test_lock();
        let items: Vec<u64> = (0..64).collect();
        let f = |x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        assert_eq!(
            JobPool::new(1).map(&items, f),
            JobPool::new(6).map(&items, f)
        );
    }

    #[test]
    fn nested_maps_complete() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(4);
        let outer: Vec<u64> = (0..6).collect();
        let out = pool.map(&outer, |&o| {
            let inner: Vec<u64> = (0..8).collect();
            JobPool::new(4)
                .map(&inner, |&i| o * 100 + i)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(out.len(), 6);
        assert_eq!(out[1], 8 * 100 + 28);
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = JobPool::new(4);
        assert_eq!(pool.map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "boom 3")]
    fn worker_panic_propagates() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(4);
        let items: Vec<u32> = (0..16).collect();
        pool.map(&items, |&x| {
            if x == 3 {
                panic!("boom {x}");
            }
            x
        });
    }

    #[test]
    fn map_panic_is_a_named_error_and_does_not_poison_the_pool() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(4);
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            pool.map(&items, |&x| {
                if x == 5 {
                    panic!("bad job");
                }
                x
            })
        });
        let message = crate::fault::panic_message(&*result.unwrap_err());
        assert!(
            message.contains("JobPool: job 5 of 16 panicked: bad job"),
            "panic must name the failing job, got: {message}"
        );
        // The same pool keeps working: no poisoned state, no leaked
        // budget permits starving later runs.
        let out = pool.map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let extras = global_budget() - 1;
        assert_eq!(try_acquire(extras), extras, "permits leaked");
        release(extras);
    }

    #[test]
    fn map_caught_isolates_panics_per_job() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(4);
        let items: Vec<u32> = (0..8).collect();
        let results = pool.map_caught(&items, |&x| {
            if x % 3 == 0 {
                panic!("no multiples of three");
            }
            x + 100
        });
        for (i, result) in results.iter().enumerate() {
            if i % 3 == 0 {
                assert!(result.is_err(), "job {i} must be caught");
            } else {
                assert_eq!(*result.as_ref().unwrap(), i as u32 + 100);
            }
        }
    }

    #[test]
    fn map_units_times_out_stuck_units_and_drains_the_rest() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(2);
        let items: Vec<u64> = (0..6).collect();
        let out = pool.map_units(
            &items,
            Some(Duration::from_millis(40)),
            |&x| {
                if x == 2 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(x * 10)
            },
            |_, _, _| {},
        );
        for (i, (outcome, _)) in out.iter().enumerate() {
            if i == 2 {
                let fault = outcome.as_ref().unwrap_err();
                assert_eq!(fault.kind, crate::fault::FaultKind::Timeout);
            } else {
                assert_eq!(*outcome.as_ref().unwrap(), i as u64 * 10);
            }
        }
    }

    #[test]
    fn map_units_catches_panics_and_typed_faults() {
        let _budget = rip_bvh::budget::test_lock();
        let pool = JobPool::new(3);
        let items: Vec<u32> = (0..9).collect();
        let out = pool.map_units(
            &items,
            None,
            |&x| match x {
                4 => panic!("unit 4 exploded"),
                7 => Err(Fault::io("disk on fire")),
                _ => Ok(x),
            },
            |_, _, _| {},
        );
        assert_eq!(
            out[4].0.as_ref().unwrap_err().kind,
            crate::fault::FaultKind::Panic
        );
        assert!(out[4]
            .0
            .as_ref()
            .unwrap_err()
            .message
            .contains("unit 4 exploded"));
        assert_eq!(
            out[7].0.as_ref().unwrap_err().kind,
            crate::fault::FaultKind::Io
        );
        for i in [0usize, 1, 2, 3, 5, 6, 8] {
            assert_eq!(*out[i].0.as_ref().unwrap(), i as u32);
        }
    }
}
