//! Shared, instance-lifetime worker pool for query execution.
//!
//! Real Hyracks runs every job's tasks on a fixed set of node controller
//! workers, so the thread count does not grow with the number of
//! concurrent queries. This module provides that pool: a small set of
//! long-lived threads ([`WorkerPool`]) fed from a FIFO task queue, plus
//! the [`SchedulerConfig`] knobs the admission controller in
//! `asterix-core` uses to bound concurrent queries and per-query memory.
//!
//! Tasks are submitted through a [`PoolScope`] (see [`WorkerPool::scope`])
//! so they may borrow from the submitting stack frame, exactly like
//! `std::thread::scope` — the scope blocks until every task it submitted
//! has finished, even if the scope body panics.
//!
//! Deadlock freedom: a fixed pool deadlocks if a running task can block
//! waiting for a task that is still queued behind it. The executor
//! therefore only submits a task once **all** of its inputs are fully
//! buffered and closed (stage-at-a-time execution, see
//! [`crate::exec::run_job_with`]), so every task submitted here runs to
//! completion without waiting on any other task — any pool size ≥ 1 makes
//! progress.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Query-scheduler configuration: the knobs of the shared worker pool,
/// the admission controller, and the per-query memory budget.
///
/// The pool itself only consumes `workers`; the other fields are read by
/// the admission controller in `asterix-core` (which re-exports this
/// type as part of its instance configuration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Long-lived worker threads shared by every query on the instance.
    /// `0` is read as `1`: every query runs on the pool.
    pub workers: usize,
    /// Queries allowed to execute simultaneously; arrivals beyond this
    /// wait in the admission queue.
    pub max_concurrent_queries: usize,
    /// Maximum queries waiting for admission; an arrival that finds the
    /// queue at capacity is rejected with `QueueFull` instead of queued.
    pub queue_depth: usize,
    /// Per-query ceiling on cumulative frame/postings-cache bytes
    /// (`0` = unlimited). Exceeding it stops the query with a typed
    /// `MemoryBudgetExceeded` error instead of ballooning towards OOM.
    pub memory_budget_bytes: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 8,
            max_concurrent_queries: 8,
            queue_depth: 64,
            memory_budget_bytes: 512 * 1024 * 1024,
        }
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
    busy: AtomicUsize,
    workers: usize,
}

/// A fixed set of long-lived worker threads consuming a FIFO task queue.
///
/// Created once per instance and shared (via `Arc`) by every query; the
/// executor submits operator tasks through [`WorkerPool::scope`]. Dropping
/// the pool shuts the workers down after the queue drains.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("busy", &self.busy())
            .field("queued_tasks", &self.queued_tasks())
            .finish()
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_available.wait(state).unwrap();
            }
        };
        shared.busy.fetch_add(1, Ordering::Relaxed);
        // Executor tasks already catch operator panics; this outer catch
        // only shields the pool itself (a panicking task must never kill
        // a shared long-lived worker).
        let _ = catch_unwind(AssertUnwindSafe(task));
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` (> 0) long-lived threads.
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        assert!(workers > 0, "worker pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            busy: AtomicUsize::new(0),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("asterix-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            handles: Mutex::new(handles),
        })
    }

    /// Number of worker threads (fixed at construction).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Workers currently running a task (pool-utilization gauge).
    pub fn busy(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Tasks waiting in the pool's queue (not yet picked up by a worker).
    pub fn queued_tasks(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    fn submit_boxed(&self, task: Task) {
        let mut state = self.shared.state.lock().unwrap();
        assert!(!state.shutdown, "submit on a shut-down worker pool");
        state.queue.push_back(task);
        drop(state);
        self.shared.work_available.notify_one();
    }

    /// Run `f` with a [`PoolScope`] through which tasks borrowing from the
    /// current stack frame can be submitted. Blocks until every submitted
    /// task has completed — also when `f` unwinds — which is what makes
    /// the borrowing sound.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'env, '_>) -> R) -> R {
        let scope = PoolScope {
            pool: self,
            pending: Arc::new(Pending {
                count: Mutex::new(0),
                all_done: Condvar::new(),
            }),
            env: PhantomData,
        };
        struct WaitGuard<'a>(&'a Pending);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut count = self.0.count.lock().unwrap();
                while *count > 0 {
                    count = self.0.all_done.wait(count).unwrap();
                }
            }
        }
        let guard = WaitGuard(&scope.pending);
        let result = f(&scope);
        drop(guard);
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

struct Pending {
    count: Mutex<usize>,
    all_done: Condvar,
}

impl Pending {
    fn complete_one(&self) {
        let mut count = self.count.lock().unwrap();
        *count -= 1;
        if *count == 0 {
            self.all_done.notify_all();
        }
    }
}

/// Handle for submitting borrowing tasks to a [`WorkerPool`] from inside
/// [`WorkerPool::scope`]; the scope joins all of them before returning.
pub struct PoolScope<'env, 'pool> {
    pool: &'pool WorkerPool,
    pending: Arc<Pending>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'env, '_> {
    /// Queue `task` on the pool. It may borrow anything that outlives the
    /// enclosing [`WorkerPool::scope`] call.
    pub fn submit(&self, task: impl FnOnce() + Send + 'env) {
        *self.pending.count.lock().unwrap() += 1;
        let pending = self.pending.clone();
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            // Decrement on drop so a panicking task still completes the
            // scope (the worker loop catches the unwind).
            struct Complete(Arc<Pending>);
            impl Drop for Complete {
                fn drop(&mut self) {
                    self.0.complete_one();
                }
            }
            let _complete = Complete(pending);
            task();
        });
        // SAFETY: the enclosing `scope` call blocks (in `WaitGuard::drop`,
        // so on unwind too) until this task has run and dropped, therefore
        // every borrow with lifetime 'env strictly outlives the task.
        let wrapped: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(wrapped)
        };
        self.pool.submit_boxed(wrapped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn runs_tasks_borrowing_the_stack() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        pool.scope(|scope| {
            for i in 1..=100u64 {
                let total = &total;
                scope.submit(move || {
                    total.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn scope_waits_even_for_slow_tasks() {
        let pool = WorkerPool::new(2);
        let done = AtomicU64::new(0);
        pool.scope(|scope| {
            for _ in 0..4 {
                let done = &done;
                scope.submit(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panicking_task_does_not_kill_workers_or_hang_scope() {
        let pool = WorkerPool::new(1);
        pool.scope(|scope| {
            scope.submit(|| panic!("task boom"));
        });
        // The single worker must still be alive to run the next task.
        let ran = AtomicU64::new(0);
        pool.scope(|scope| {
            let ran = &ran;
            scope.submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn gauges_report_shape() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        pool.scope(|_| {});
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.queued_tasks(), 0);
        assert!(format!("{pool:?}").contains("workers"));
    }

    #[test]
    fn config_defaults_and_disabled() {
        let c = SchedulerConfig::default();
        assert!(c.workers > 0 && c.max_concurrent_queries > 0 && c.queue_depth > 0);
    }

    #[test]
    fn nested_scopes_from_concurrent_threads() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                let total = &total;
                s.spawn(move || {
                    pool.scope(|scope| {
                        for _ in 0..10 {
                            scope.submit(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 40);
    }
}
