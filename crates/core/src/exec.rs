//! The recommend path's one fan-out seam (DESIGN.md §8).
//!
//! The three per-step fan-outs — the metric GP fits, the per-learner
//! posterior draws and the candidate-scoring lanes — all go through
//! [`map`]. It picks inline or threaded execution from what it can observe,
//! never from a flag: on a fleet [`crate::fleet::WorkerPool`] worker the
//! tenant is already the parallel unit, and a 1-CPU host has nothing to fan
//! out onto, so both run inline. Every task is a pure function of its
//! index, so the two modes are bit-identical.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a fleet pool worker for the rest of its life:
/// [`lanes`] reports 1 on it from now on.
pub(crate) fn mark_pool_worker() {
    POOL_WORKER.with(|w| w.set(true));
}

/// How many tasks [`map`] runs at once on this thread: 1 on a pool worker,
/// otherwise the host's available parallelism. std re-reads the cgroup quota
/// files on every `available_parallelism` call, so it is read once per
/// process.
pub(crate) fn lanes() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    if POOL_WORKER.with(Cell::get) {
        return 1;
    }
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `f(0..n)` in index order: inline when [`lanes`] is 1 (or there is at most
/// one task), otherwise fanned out.
pub(crate) fn map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n <= 1 || lanes() == 1 {
        (0..n).map(f).collect()
    } else {
        fan_out(n, f)
    }
}

/// Task 0 on the calling thread and one scoped thread for each other task.
/// Keeping the caller busy instead of parked spawns one thread fewer, and
/// each live thread may hold its own allocator arena (peak RSS, DESIGN.md
/// §8). Each spawned thread re-enters the caller's trace context, so its
/// spans nest under the caller's path, and a panicking task re-raises its
/// own payload on the caller.
fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let ctx = trace::current_context();
    let (f, ctx) = (&f, &ctx);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n)
            .map(|i| {
                scope.spawn(move || {
                    let _guard = ctx.enter();
                    f(i)
                })
            })
            .collect();
        let first = f(0);
        let rest = handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        std::iter::once(first).chain(rest).collect()
    })
}

/// Runs `f` as a job on a one-worker fleet pool, where [`lanes`] is 1.
#[cfg(test)]
pub(crate) fn on_pool_worker<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let pool = crate::fleet::WorkerPool::new(1);
    let (tx, rx) = std::sync::mpsc::channel();
    pool.handle().submit(Box::new(move |_| {
        let _ = tx.send(f());
    }));
    pool.join();
    rx.recv().expect("the pool job ran to completion")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn task(i: usize) -> (usize, String) {
        (i * i, format!("task-{i}"))
    }

    #[test]
    fn inline_and_fanned_out_maps_return_the_same_ordered_results() {
        let (pool_lanes, inline) = on_pool_worker(|| (lanes(), map(9, task)));
        assert_eq!(pool_lanes, 1, "a pool worker must run its tasks inline");
        let fanned = fan_out(9, task);
        assert_eq!(inline, fanned);
        assert_eq!(fanned, (0..9).map(task).collect::<Vec<_>>());
        assert!(map(0, task).is_empty());
    }

    #[test]
    fn a_panicking_task_surfaces_its_own_payload() {
        // Task 0 runs on the calling thread, the others on scoped threads.
        for bad in [0, 2] {
            let run = || {
                fan_out(4, |i| {
                    if i == bad {
                        panic!("task {i} exploded");
                    }
                    i
                })
            };
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the task panicked");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("task {bad} exploded").as_str()));
        }
    }
}
