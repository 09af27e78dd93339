//! Query admission control on top of the shared worker pool.
//!
//! The seed instance executed every query the moment it arrived, each on
//! its own freshly spawned set of operator threads — N concurrent clients
//! meant N × operators × partitions live threads and unbounded memory.
//! This module bounds both, the way an AsterixDB cluster controller
//! bounds its job queue:
//!
//! * a single instance-lifetime [`asterix_hyracks::WorkerPool`] executes
//!   every admitted query's operator tasks (thread count fixed at
//!   `SchedulerConfig::workers`),
//! * an admission controller caps concurrently *executing* queries at
//!   `max_concurrent_queries`; arrivals beyond the cap wait in a bounded
//!   FIFO queue (`queue_depth`) and are rejected with a typed
//!   [`ExecError::QueueFull`] when it is exhausted,
//! * queueing is fair across query classes: one FIFO per
//!   [`QueryClass`], served round-robin, so a flood of cheap scans cannot
//!   starve index joins (or vice versa),
//! * each admitted query gets a per-query [`MemoryBudget`] of
//!   `memory_budget_bytes`, charged by the executor for every buffered
//!   frame and postings-cache install; exceeding it stops the query with
//!   [`ExecError::MemoryBudgetExceeded`] instead of ballooning.
//!
//! A queued query stays cancellable: its [`CancelToken`] (installed
//! before admission) is polled while waiting, so cancellation dequeues it
//! immediately and a deadline expiring in the queue surfaces as
//! [`ExecError::AdmissionTimeout`] rather than a silent hang.
//!
//! Everything the controller observes — queue-wait histogram, admitted /
//! queued / rejected / cancelled counters, live inflight and queue-length
//! gauges, pool utilization — is exported through [`SchedulerSnapshot`]
//! into `Instance::metrics_snapshot`.

use crate::telemetry::{Histogram, HistogramSnapshot, QueryClass};
use asterix_hyracks::{CancelToken, ExecError, SchedulerConfig, WorkerPool};
use asterix_storage::MemoryBudget;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a queued query sleeps between cancellation checks. Admission
/// wakes waiters eagerly on every slot release, so this only bounds the
/// latency of noticing an *external* cancel or deadline.
const ADMISSION_POLL: Duration = Duration::from_millis(5);

/// Monotone counters + queue-wait histogram, all relaxed atomics.
#[derive(Debug, Default)]
struct SchedulerCounters {
    admitted: AtomicU64,
    queued_total: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_timeout: AtomicU64,
    cancelled_while_queued: AtomicU64,
    queue_wait: Histogram,
}

/// How many per-query admission records the scheduler retains. Enough
/// to correlate a burst of queries with the registry / slow log by
/// `query_id` without growing unboundedly.
const RECENT_ADMISSIONS: usize = 32;

/// One query's passage through admission, keyed by the instance-wide
/// `query_id` so scheduler metrics correlate with the running-query
/// registry, the slow-query log, and span exports.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionRecord {
    /// The query's instance-wide id.
    pub query_id: u64,
    /// Workload class it was admitted under.
    pub class: QueryClass,
    /// Time it waited for admission (0 for fast-path admits).
    pub queue_wait_us: u64,
}

/// Mutable admission state, guarded by one mutex.
#[derive(Debug)]
struct AdmissionState {
    /// Queries currently holding an [`AdmissionPermit`].
    inflight: usize,
    /// One FIFO of waiting tickets per [`QueryClass`] slot.
    queues: [VecDeque<u64>; 3],
    /// Round-robin pointer: the class slot to serve next.
    next_class: usize,
    /// Ticket id generator (ids are unique per scheduler).
    next_ticket: u64,
}

impl AdmissionState {
    fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Whether the ticket at the head of `slot`'s queue is the one the
    /// round-robin pointer would admit next.
    fn is_next(&self, slot: usize, ticket: u64) -> bool {
        if self.queues[slot].front() != Some(&ticket) {
            return false;
        }
        for i in 0..self.queues.len() {
            let c = (self.next_class + i) % self.queues.len();
            if !self.queues[c].is_empty() {
                return c == slot;
            }
        }
        false
    }
}

#[derive(Debug)]
struct SchedulerInner {
    max_concurrent: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    /// Notified whenever a slot frees or the queue shape changes.
    slot_freed: Condvar,
    counters: SchedulerCounters,
    /// Ring of the newest [`RECENT_ADMISSIONS`] admissions, by query id.
    recent: Mutex<VecDeque<AdmissionRecord>>,
}

impl SchedulerInner {
    fn record_admission(&self, query_id: u64, class: QueryClass, queue_wait_us: u64) {
        let mut recent = self.recent.lock().unwrap();
        if recent.len() == RECENT_ADMISSIONS {
            recent.pop_front();
        }
        recent.push_back(AdmissionRecord {
            query_id,
            class,
            queue_wait_us,
        });
    }
}

/// The per-instance query scheduler: worker pool, admission controller,
/// and per-query memory-budget factory. Every instance has one, built by
/// `Instance::open`.
#[derive(Debug)]
pub struct QueryScheduler {
    config: SchedulerConfig,
    pool: Arc<WorkerPool>,
    inner: Arc<SchedulerInner>,
}

impl QueryScheduler {
    /// Build the scheduler for `config`, spawning the shared worker pool
    /// (at least one worker, whatever `workers` says).
    pub fn new(config: &SchedulerConfig) -> QueryScheduler {
        QueryScheduler {
            config: config.clone(),
            pool: WorkerPool::new(config.workers.max(1)),
            inner: Arc::new(SchedulerInner {
                max_concurrent: config.max_concurrent_queries.max(1),
                queue_depth: config.queue_depth,
                state: Mutex::new(AdmissionState {
                    inflight: 0,
                    queues: Default::default(),
                    next_class: 0,
                    next_ticket: 0,
                }),
                slot_freed: Condvar::new(),
                counters: SchedulerCounters::default(),
                recent: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// The configuration this scheduler was built from.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The shared worker pool every admitted query executes on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// A fresh per-query memory budget of `memory_budget_bytes`
    /// (`0` = unlimited accounting-only budget).
    pub fn memory_budget(&self) -> Arc<MemoryBudget> {
        MemoryBudget::new(self.config.memory_budget_bytes)
    }

    /// Queries currently admitted (holding a live permit).
    pub fn inflight(&self) -> usize {
        self.inner.state.lock().unwrap().inflight
    }

    /// Queries currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.inner.state.lock().unwrap().total_queued()
    }

    /// Block until the query may execute, then return the permit that
    /// holds its concurrency slot (released on drop).
    ///
    /// * Immediate admission when a slot is free and nobody is queued.
    /// * Otherwise the query joins its class's FIFO; the three class
    ///   queues are served round-robin as slots free up.
    /// * An arrival that finds `queue_depth` queries already waiting is
    ///   rejected with [`ExecError::QueueFull`] without queueing.
    /// * While waiting, `cancel` is polled: an explicit cancel dequeues
    ///   the ticket and returns [`ExecError::Cancelled`]; an expired
    ///   deadline dequeues and returns [`ExecError::AdmissionTimeout`]
    ///   with the time spent waiting.
    ///
    /// `query_id` is the instance-wide id assigned by the running-query
    /// registry; it keys the scheduler's recent-admission records so
    /// admission metrics correlate with the registry and the slow log.
    pub fn admit(
        &self,
        class: QueryClass,
        cancel: &CancelToken,
        query_id: u64,
    ) -> Result<AdmissionPermit, ExecError> {
        let inner = &self.inner;
        let slot = class.slot();
        let started = Instant::now();
        let mut state = inner.state.lock().unwrap();

        // Fast path: free slot and an empty queue — nobody to be fair to.
        if state.inflight < inner.max_concurrent && state.total_queued() == 0 {
            state.inflight += 1;
            drop(state);
            inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
            inner.counters.queue_wait.record_us(0);
            inner.record_admission(query_id, class, 0);
            return Ok(AdmissionPermit {
                inner: inner.clone(),
            });
        }

        let queued = state.total_queued();
        if queued >= inner.queue_depth {
            inner
                .counters
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(ExecError::QueueFull {
                queued,
                queue_depth: inner.queue_depth,
            });
        }

        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queues[slot].push_back(ticket);
        inner.counters.queued_total.fetch_add(1, Ordering::Relaxed);

        loop {
            if state.inflight < inner.max_concurrent && state.is_next(slot, ticket) {
                state.queues[slot].pop_front();
                state.inflight += 1;
                state.next_class = (slot + 1) % state.queues.len();
                drop(state);
                inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                inner.counters.queue_wait.record(started.elapsed());
                inner.record_admission(query_id, class, started.elapsed().as_micros() as u64);
                // The round-robin pointer moved: another class's head may
                // be admissible now if more slots are free.
                inner.slot_freed.notify_all();
                return Ok(AdmissionPermit {
                    inner: inner.clone(),
                });
            }
            if let Err(reason) = cancel.check() {
                state.queues[slot].retain(|t| *t != ticket);
                drop(state);
                // Removing a queue head can make another waiter eligible.
                inner.slot_freed.notify_all();
                return Err(match reason {
                    ExecError::Timeout(_) => {
                        inner
                            .counters
                            .rejected_timeout
                            .fetch_add(1, Ordering::Relaxed);
                        ExecError::AdmissionTimeout(started.elapsed())
                    }
                    other => {
                        inner
                            .counters
                            .cancelled_while_queued
                            .fetch_add(1, Ordering::Relaxed);
                        other
                    }
                });
            }
            // Bounded wait so cancellation/deadline is noticed even
            // without a notification.
            let (guard, _timeout) = inner
                .slot_freed
                .wait_timeout(state, ADMISSION_POLL)
                .unwrap();
            state = guard;
        }
    }

    /// Immutable view of the scheduler for `metrics_snapshot`.
    pub fn snapshot(&self) -> SchedulerSnapshot {
        let (inflight, queued) = {
            let state = self.inner.state.lock().unwrap();
            (state.inflight as u64, state.total_queued() as u64)
        };
        let c = &self.inner.counters;
        SchedulerSnapshot {
            workers: self.pool.workers() as u64,
            busy_workers: self.pool.busy() as u64,
            pool_queued_tasks: self.pool.queued_tasks() as u64,
            max_concurrent_queries: self.config.max_concurrent_queries as u64,
            queue_depth: self.config.queue_depth as u64,
            memory_budget_bytes: self.config.memory_budget_bytes,
            inflight,
            queued,
            admitted: c.admitted.load(Ordering::Relaxed),
            queued_total: c.queued_total.load(Ordering::Relaxed),
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            rejected_timeout: c.rejected_timeout.load(Ordering::Relaxed),
            cancelled_while_queued: c.cancelled_while_queued.load(Ordering::Relaxed),
            queue_wait: c.queue_wait.snapshot(),
            recent_admissions: self
                .inner
                .recent
                .lock()
                .unwrap()
                .iter()
                .copied()
                .collect(),
        }
    }
}

/// A held concurrency slot. Dropping it (normally, or while unwinding)
/// releases the slot and wakes the admission queue.
#[derive(Debug)]
pub struct AdmissionPermit {
    inner: Arc<SchedulerInner>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.inflight -= 1;
        }
        self.inner.slot_freed.notify_all();
    }
}

/// Everything the scheduler exports into the metrics snapshot.
#[derive(Clone, Debug, Default)]
pub struct SchedulerSnapshot {
    /// Configured worker-thread count.
    pub workers: u64,
    /// Workers running a task right now (gauge).
    pub busy_workers: u64,
    /// Operator tasks waiting in the pool's queue (gauge).
    pub pool_queued_tasks: u64,
    /// Configured concurrent-query cap.
    pub max_concurrent_queries: u64,
    /// Configured admission-queue capacity.
    pub queue_depth: u64,
    /// Configured per-query memory budget (bytes; 0 = unlimited).
    pub memory_budget_bytes: u64,
    /// Queries currently executing under a permit (gauge).
    pub inflight: u64,
    /// Queries currently waiting for admission (gauge).
    pub queued: u64,
    /// Queries ever admitted.
    pub admitted: u64,
    /// Queries that had to wait in the queue before their outcome.
    pub queued_total: u64,
    /// Arrivals rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Queued queries whose deadline expired before admission.
    pub rejected_timeout: u64,
    /// Queued queries cancelled before admission.
    pub cancelled_while_queued: u64,
    /// Time spent waiting for admission (µs; immediate admits record 0).
    pub queue_wait: HistogramSnapshot,
    /// The newest admissions (oldest first), keyed by instance-wide
    /// query id for correlation with the running-query registry.
    pub recent_admissions: Vec<AdmissionRecord>,
}

impl SchedulerSnapshot {
    /// Fraction of workers busy at snapshot time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 {
            0.0
        } else {
            self.busy_workers as f64 / self.workers as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(max_concurrent: usize, queue_depth: usize) -> QueryScheduler {
        QueryScheduler::new(&SchedulerConfig {
            workers: 2,
            max_concurrent_queries: max_concurrent,
            queue_depth,
            memory_budget_bytes: 0,
        })
    }

    #[test]
    fn immediate_admission_when_idle() {
        let s = sched(2, 4);
        let live = CancelToken::new();
        let p1 = s.admit(QueryClass::Scan, &live, 0).unwrap();
        let p2 = s.admit(QueryClass::IndexJoin, &live, 0).unwrap();
        assert_eq!(s.inflight(), 2);
        drop((p1, p2));
        assert_eq!(s.inflight(), 0);
        let snap = s.snapshot();
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.queued_total, 0);
    }

    #[test]
    fn queue_full_rejects_typed() {
        let s = sched(1, 0);
        let live = CancelToken::new();
        let _held = s.admit(QueryClass::Scan, &live, 0).unwrap();
        match s.admit(QueryClass::Scan, &live, 0) {
            Err(ExecError::QueueFull {
                queued: 0,
                queue_depth: 0,
            }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.snapshot().rejected_queue_full, 1);
    }

    #[test]
    fn deadline_in_queue_is_admission_timeout() {
        let s = sched(1, 4);
        let live = CancelToken::new();
        let _held = s.admit(QueryClass::Scan, &live, 0).unwrap();
        let deadline = CancelToken::with_timeout(Duration::from_millis(30));
        let started = Instant::now();
        match s.admit(QueryClass::Scan, &deadline, 0) {
            Err(ExecError::AdmissionTimeout(waited)) => {
                assert!(waited >= Duration::from_millis(30), "{waited:?}");
            }
            other => panic!("expected AdmissionTimeout, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(5));
        let snap = s.snapshot();
        assert_eq!(snap.rejected_timeout, 1);
        assert_eq!(snap.queued, 0, "rejected ticket must leave the queue");
    }

    #[test]
    fn cancel_while_queued_dequeues_and_counts() {
        let s = sched(1, 4);
        let live = CancelToken::new();
        let held = s.admit(QueryClass::Scan, &live, 0).unwrap();
        let token = Arc::new(CancelToken::new());
        let waiter = {
            let s = &s;
            let waiter_token = token.clone();
            std::thread::scope(|scope| {
                let h = scope.spawn(move || s.admit(QueryClass::Scan, &waiter_token, 0));
                while s.queued() == 0 {
                    std::thread::yield_now();
                }
                token.cancel();
                h.join().expect("waiter thread")
            })
        };
        assert!(matches!(waiter, Err(ExecError::Cancelled)));
        let snap = s.snapshot();
        assert_eq!(snap.cancelled_while_queued, 1);
        assert_eq!(snap.queued, 0);
        drop(held);
        // The released slot must still be usable.
        let _next = s.admit(QueryClass::Scan, &live, 0).unwrap();
    }

    #[test]
    fn permit_release_admits_next_waiter() {
        let s = sched(1, 8);
        let live = CancelToken::new();
        let held = s.admit(QueryClass::Scan, &live, 0).unwrap();
        std::thread::scope(|scope| {
            let s = &s;
            let h = scope.spawn(move || {
                let token = CancelToken::with_timeout(Duration::from_secs(10));
                s.admit(QueryClass::IndexSelect, &token, 0).map(drop)
            });
            while s.queued() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            assert!(h.join().expect("waiter").is_ok());
        });
        assert_eq!(s.snapshot().admitted, 2);
        assert!(s.snapshot().queue_wait.count >= 2);
    }

    #[test]
    fn round_robin_serves_every_class() {
        // One slot, a long queue of scans plus one index-join: the join
        // must be admitted after at most one scan, not after all of them.
        let s = Arc::new(sched(1, 16));
        let order = Arc::new(Mutex::new(Vec::new()));
        let held = s.admit(QueryClass::Scan, &CancelToken::new(), 0).unwrap();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..4usize {
                let s = s.clone();
                let order = order.clone();
                handles.push(scope.spawn(move || {
                    let token = CancelToken::with_timeout(Duration::from_secs(10));
                    let permit = s.admit(QueryClass::Scan, &token, 0).unwrap();
                    order.lock().unwrap().push(format!("scan{i}"));
                    drop(permit);
                }));
            }
            while s.queued() < 4 {
                std::thread::yield_now();
            }
            let s2 = s.clone();
            let order2 = order.clone();
            handles.push(scope.spawn(move || {
                let token = CancelToken::with_timeout(Duration::from_secs(10));
                let permit = s2.admit(QueryClass::IndexJoin, &token, 0).unwrap();
                order2.lock().unwrap().push("join".to_string());
                drop(permit);
            }));
            while s.queued() < 5 {
                std::thread::yield_now();
            }
            drop(held);
            for h in handles {
                h.join().expect("admission thread");
            }
        });
        let order = order.lock().unwrap();
        let join_pos = order.iter().position(|n| n == "join").expect("join ran");
        assert!(
            join_pos <= 1,
            "index-join starved behind scans: {order:?}"
        );
    }
}
