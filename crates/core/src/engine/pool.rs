//! The shared lazy worker pool: persistent OS threads reused by every
//! parallel driver, so repeated [`SmartPsi::run`](crate::SmartPsi::run)
//! calls stop paying per-call thread spawn (fig9 billed 836 ms of
//! `pool_spawn_ms` at 8 threads before this existed).
//!
//! One process-global pool ([`global`]) holds a plain FIFO of boxed
//! tasks behind a mutex + condvar. [`WorkerPool::ensure`] grows it
//! lazily to the largest thread count any run has asked for — actual
//! OS-thread spawns are billed under [`Phase::PoolSpawn`] /
//! [`Counter::PoolThreadsSpawned`], and a warm pool bills nothing.
//! [`WorkerPool::scatter`] submits one batch of borrowing tasks and
//! blocks the calling thread until every task completed, which is the
//! safety argument for handing non-`'static` closures to persistent
//! threads (see the `SAFETY` comment inside).
//!
//! **Fault containment.** Every task runs under `catch_unwind`; a
//! panicking task counts as one worker death in `scatter`'s return
//! value (the moral equivalent of the old per-run thread dying at
//! join) and the pool thread survives to serve the next task.
//!
//! **No nested scatter.** Tasks must never call `scatter` themselves:
//! tasks are independent units and the pool makes no provision for a
//! task blocking on other tasks. Today's only submitters are the
//! work-stealing and static-chunk drivers in
//! [`exec`](super::exec), whose tasks run grab loops / sequential
//! sweeps and submit nothing.
//!
//! Mutexes and condvars ride out poisoning through the crate's one
//! helper (`fault::unpoison`): a task panic is already accounted by
//! the completion latch, and both protected states (task queue, latch
//! counters) stay consistent across unwinds.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use psi_obs::{Counter, Phase, Recorder};

use crate::fault::unpoison;

/// A type-erased, lifetime-erased unit of pool work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A borrowing task as submitted by a driver; `scatter` erases the
/// lifetime after pinning it with its completion latch.
pub(crate) type ScopedTask<'s> = Box<dyn FnOnce() + Send + 's>;

struct PoolState {
    queue: VecDeque<Task>,
    threads: usize,
}

/// The persistent worker pool. Use [`global`]; the type is only
/// exposed for its methods.
pub(crate) struct WorkerPool {
    state: Mutex<PoolState>,
    work: Condvar,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-global pool (created empty on first touch; threads are
/// spawned only by [`WorkerPool::ensure`]).
pub(crate) fn global() -> &'static WorkerPool {
    POOL.get_or_init(|| WorkerPool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            threads: 0,
        }),
        work: Condvar::new(),
    })
}

/// Completion latch of one `scatter` batch: counts tasks down and
/// accumulates how many of them panicked.
struct Latch {
    state: Mutex<(usize, usize)>,
    done: Condvar,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Self {
            state: Mutex::new((remaining, 0)),
            done: Condvar::new(),
        }
    }

    fn complete(&self, died: bool) {
        let mut st = unpoison(self.state.lock());
        st.0 -= 1;
        if died {
            st.1 += 1;
        }
        if st.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Block until every task completed; returns the death count.
    fn wait(&self) -> usize {
        let mut st = unpoison(self.state.lock());
        while st.0 > 0 {
            st = unpoison(self.done.wait(st));
        }
        st.1
    }
}

impl WorkerPool {
    /// Grow the pool to at least `n` resident threads. Billed only
    /// when threads are actually spawned — a warm pool records
    /// nothing, which is exactly the amortization fig9 measures.
    pub(crate) fn ensure(&'static self, n: usize, rec: &dyn Recorder) {
        let t0 = Instant::now();
        let mut spawned = 0u64;
        {
            let mut st = unpoison(self.state.lock());
            while st.threads < n {
                st.threads += 1;
                spawned += 1;
                std::thread::spawn(move || self.worker_loop());
            }
        }
        if spawned > 0 && rec.enabled() {
            rec.add(Counter::PoolThreadsSpawned, spawned);
            rec.span_ns(Phase::PoolSpawn, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Run one batch of borrowing tasks to completion on the pool,
    /// blocking the caller until the last task finished. Returns how
    /// many tasks died (panicked); a dead task's side effects are
    /// whatever it committed before the panic, and its pool thread
    /// survives.
    ///
    /// Tasks from concurrent `scatter` calls interleave on the same
    /// threads; each batch only waits for its own latch.
    pub(crate) fn scatter(&'static self, tasks: Vec<ScopedTask<'_>>) -> usize {
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut st = unpoison(self.state.lock());
            for t in tasks {
                // SAFETY: `scatter` does not return until `latch.wait()`
                // has observed every task's completion (the latch is
                // decremented after the task ran, panicking or not), so
                // every `'s` borrow captured by the task strictly
                // outlives its execution on the pool thread. The
                // lifetime is the only thing erased.
                let t: Task = unsafe {
                    std::mem::transmute::<ScopedTask<'_>, ScopedTask<'static>>(t)
                };
                let latch = Arc::clone(&latch);
                st.queue.push_back(Box::new(move || {
                    let died = catch_unwind(AssertUnwindSafe(t)).is_err();
                    latch.complete(died);
                }));
            }
        }
        self.work.notify_all();
        latch.wait()
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut st = unpoison(self.state.lock());
                loop {
                    if let Some(t) = st.queue.pop_front() {
                        break t;
                    }
                    st = unpoison(self.work.wait(st));
                }
            };
            // Tasks arrive pre-wrapped in catch_unwind by `scatter`;
            // this outer guard only exists so a bug there can never
            // leak a thread out of the pool's accounting.
            let _ = catch_unwind(AssertUnwindSafe(task));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use psi_obs::NoopRecorder;

    use super::*;

    #[test]
    fn scatter_runs_borrowing_tasks_to_completion() {
        let pool = global();
        pool.ensure(2, &NoopRecorder);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as ScopedTask<'_>
            })
            .collect();
        let deaths = pool.scatter(tasks);
        assert_eq!(deaths, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panicking_task_counts_as_death_and_pool_survives() {
        let pool = global();
        pool.ensure(2, &NoopRecorder);
        let ok = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..4)
            .map(|i| {
                let ok = &ok;
                Box::new(move || {
                    if i == 1 {
                        panic!("injected");
                    }
                    ok.fetch_add(1, Ordering::Relaxed);
                }) as ScopedTask<'_>
            })
            .collect();
        let deaths = pool.scatter(tasks);
        assert_eq!(deaths, 1);
        assert_eq!(ok.load(Ordering::Relaxed), 3);
        // The pool is still alive for the next batch.
        let again: Vec<ScopedTask<'_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::Relaxed);
        })];
        assert_eq!(pool.scatter(again), 0);
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn empty_scatter_returns_immediately() {
        assert_eq!(global().scatter(Vec::new()), 0);
    }

    #[test]
    fn ensure_bills_only_actual_spawns() {
        let rec = psi_obs::MetricsRecorder::new();
        let pool = global();
        pool.ensure(3, &rec);
        let first = rec.counter(Counter::PoolThreadsSpawned);
        // Warm pool: asking for the same (or a lower) count spawns and
        // bills nothing.
        pool.ensure(3, &rec);
        pool.ensure(1, &rec);
        assert_eq!(rec.counter(Counter::PoolThreadsSpawned), first);
    }
}
