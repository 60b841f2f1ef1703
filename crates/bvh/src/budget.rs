//! The process-wide job budget: how many threads beyond their callers
//! the process's parallel work may run at once.
//!
//! Every parallel user takes *extra* threads from the one budget with a
//! non-blocking [`try_acquire`] and gives them back with [`release`]. A
//! caller always does its own share of the work on its own thread, so an
//! exhausted budget makes work run narrower, never wait: rip-exec's job
//! pools nest without deadlocking or oversubscribing the machine, and
//! rip-gpusim's look-ahead thread runs only on a core nobody else holds.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Sentinel meaning "budget not configured yet" (lazily defaults to
/// `available_parallelism() - 1` extra threads on first use).
const UNCONFIGURED: isize = -1;

/// Total extra worker threads the whole process may run at once.
static BUDGET_TOTAL: AtomicIsize = AtomicIsize::new(UNCONFIGURED);
/// Extra worker threads currently running.
static BUDGET_USED: AtomicIsize = AtomicIsize::new(0);

/// The machine's available parallelism (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the process-wide job budget: at most `jobs` worker threads in
/// total, however parallel work nests (the budget stores `jobs - 1`
/// *extra* threads beyond each caller's own thread).
///
/// Takes effect for permits acquired after the call; threads already
/// running are not interrupted.
pub fn set_global_budget(jobs: usize) {
    let extras = jobs.max(1) as isize - 1;
    BUDGET_TOTAL.store(extras, Ordering::SeqCst);
}

/// The configured process-wide job count (extra threads + 1).
pub fn global_budget() -> usize {
    budget_total() as usize + 1
}

fn budget_total() -> isize {
    let total = BUDGET_TOTAL.load(Ordering::SeqCst);
    if total != UNCONFIGURED {
        return total;
    }
    let default = available_parallelism() as isize - 1;
    // Racing first users compute the same default; either CAS winning is fine.
    let _ =
        BUDGET_TOTAL.compare_exchange(UNCONFIGURED, default, Ordering::SeqCst, Ordering::SeqCst);
    BUDGET_TOTAL.load(Ordering::SeqCst)
}

/// Takes up to `want` permits from the global budget without blocking;
/// returns how many were granted. Give them back with [`release`].
pub fn try_acquire(want: usize) -> usize {
    let want = want.min(isize::MAX as usize) as isize;
    loop {
        let total = budget_total();
        let used = BUDGET_USED.load(Ordering::SeqCst);
        let grant = want.min(total - used).max(0);
        if grant == 0 {
            return 0;
        }
        if BUDGET_USED
            .compare_exchange(used, used + grant, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return grant as usize;
        }
    }
}

/// Returns `granted` permits that [`try_acquire`] handed out.
pub fn release(granted: usize) {
    BUDGET_USED.fetch_sub(granted as isize, Ordering::SeqCst);
}

/// Serializes the tests that set the budget or take its permits: the
/// budget is process-wide, so a test asserting that every permit came
/// back must not overlap another test still holding some.
#[doc(hidden)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A `should_panic` test poisons the lock; the guarded data is `()`.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_are_granted_up_to_the_budget_and_come_back() {
        let _lock = test_lock();
        let before = global_budget();
        set_global_budget(3);
        assert_eq!(try_acquire(5), 2, "two extra threads beyond the caller");
        assert_eq!(try_acquire(1), 0, "the budget is spent");
        release(2);
        assert_eq!(try_acquire(usize::MAX), 2);
        release(2);
        set_global_budget(before);
    }
}
