//! Job execution: the worker loop and the inline helper.
//!
//! Every job runs through [`Simulator::try_run_report`] (the engine under
//! the livelock watchdog) inside `catch_unwind`, once: the simulator is
//! deterministic, so a second attempt of the same configuration could only
//! fail the same way. A job that panics or returns a `RunError` is recorded
//! as a failed [`JobOutcome`] — and memoized, so resubmitting a doomed
//! config answers with the same error instead of re-running it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use grs_sim::Simulator;

use super::queue::{Shared, Task};
use super::JobOutcome;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Simulate the task with panics caught. Pure with respect to the service
/// (no locks taken).
fn execute(task: &Task) -> JobOutcome {
    let sim = Simulator::new(task.cfg.clone());
    let report = catch_unwind(AssertUnwindSafe(|| sim.try_run_report(&task.kernel)))
        .map_err(panic_message)
        .and_then(|r| r.map_err(|e| e.to_string()))
        .map(Arc::new);
    JobOutcome { report }
}

/// Execute one task to completion: simulate (unlocked), then under the
/// state lock bump counters, memoize the outcome, and retire the in-flight
/// entry; finally resolve the cell so subscribers wake. Shared by worker
/// threads, [`SweepService::drain`](super::SweepService::drain), and the
/// help-first path in [`JobHandle::wait`](super::JobHandle::wait).
pub(super) fn run_one(shared: &Shared, task: Task) {
    let outcome = Arc::new(execute(&task));
    let cell = {
        let mut state = shared.state.lock().unwrap();
        state.stats.executed += 1;
        if outcome.report.is_err() {
            state.stats.failed += 1;
        }
        state.memo.insert(task.key, Arc::clone(&outcome));
        state.stats.evicted = state.memo.evicted();
        state.inflight.remove(&task.key)
    };
    if let Some(cell) = cell {
        cell.resolve(outcome);
    }
}

/// Body of one worker thread: pop-or-sleep until shutdown.
pub(super) fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(task) = state.pending.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        run_one(&shared, task);
    }
}
