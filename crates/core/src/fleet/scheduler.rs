//! The fleet's persistent worker pool (DESIGN.md §12).
//!
//! A solo session fans its recommend path out on short-lived scoped threads
//! (`core::exec`). At fleet scale the parallel unit is the *tenant*: a fixed
//! pool of long-lived workers pulls tenant slices off one injector queue, so
//! a thousand tenants share `workers` threads instead of spawning thousands
//! of their own, and a slice re-enqueues itself until its tenant finishes —
//! cooperative round-robin fairness without preemption. Each worker marks
//! itself once, so the seam runs its tenants' fan-outs inline.
//!
//! The pool is deliberately strategy-agnostic: a job is any `FnOnce` that
//! receives a [`PoolHandle`] (to resubmit follow-up work). Panic isolation
//! lives here too — a panicking job never takes its worker down; the payload
//! is swallowed after the job's own `catch_unwind` (the fleet layer records
//! the tenant as poisoned) and the worker moves to the next job.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of pool work.
pub type Job = Box<dyn FnOnce(&PoolHandle) + Send + 'static>;

struct QueueState {
    jobs: VecDeque<Job>,
    /// `false` once [`WorkerPool::join`] drains: workers exit when the queue
    /// is empty and no more submissions can arrive.
    open: bool,
}

struct PoolInner {
    queue: Mutex<QueueState>,
    cv: Condvar,
}

impl PoolInner {
    fn push(&self, job: Job) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.jobs.push_back(job);
        drop(q);
        self.cv.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if !q.open {
                return None;
            }
            q = self.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.open = false;
        drop(q);
        self.cv.notify_all();
    }
}

/// A cloneable submission handle, also passed to every running job so
/// in-flight work can enqueue its own continuation.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<PoolInner>,
}

impl PoolHandle {
    /// Enqueues a job. Submissions after [`WorkerPool::join`] began are
    /// dropped (the pool is draining).
    pub fn submit(&self, job: Job) {
        let open = {
            let q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.open
        };
        if open {
            self.inner.push(job);
        }
    }
}

/// A fixed-size pool of persistent worker threads over one injector queue.
pub struct WorkerPool {
    handle: PoolHandle,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) threads, idle until jobs arrive.
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), open: true }),
            cv: Condvar::new(),
        });
        let handle = PoolHandle { inner: Arc::clone(&inner) };
        let workers = (0..workers.max(1))
            .map(|i| {
                let handle = handle.clone();
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{i}"))
                    .spawn(move || {
                        // The tenant is the parallel unit here: its own
                        // recommend-side fan-outs run inline.
                        crate::exec::mark_pool_worker();
                        while let Some(job) = handle.inner.pop() {
                            // The job's own catch_unwind reports tenant-level
                            // failures; this outer net only keeps the worker
                            // alive if a payload escapes anyway.
                            let _ = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| job(&handle)),
                            );
                        }
                    })
                    .expect("spawn fleet worker")
            })
            .collect();
        WorkerPool { handle, workers }
    }

    /// The submission handle.
    pub fn handle(&self) -> &PoolHandle {
        &self.handle
    }

    /// Stops accepting work, lets queued jobs drain, and joins every worker.
    pub fn join(self) {
        self.handle.inner.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_job_across_workers() {
        let pool = WorkerPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.handle().submit(Box::new(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn jobs_can_resubmit_their_continuation() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        fn step(remaining: usize, done: Arc<AtomicUsize>) -> Job {
            Box::new(move |h| {
                done.fetch_add(1, Ordering::SeqCst);
                if remaining > 1 {
                    h.submit(step(remaining - 1, done));
                }
            })
        }
        pool.handle().submit(step(10, Arc::clone(&done)));
        // Drain: continuations chase each other, so spin until settled.
        while done.load(Ordering::SeqCst) < 10 {
            std::thread::yield_now();
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        pool.handle().submit(Box::new(|_| panic!("poisoned job")));
        let d = Arc::clone(&done);
        pool.handle().submit(Box::new(move |_| {
            d.fetch_add(1, Ordering::SeqCst);
        }));
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 1, "the single worker must survive the panic");
    }
}
