//! The job executor: instantiate every operator on every partition, wire
//! connectors as channels, run the tasks on a shared [`WorkerPool`], and
//! collect results + statistics.
//!
//! Execution is supervised: every operator instance runs under
//! `catch_unwind`, the first failure (error, panic, or deadline) trips the
//! job's shared [`CancelToken`], and all other partitions observe it at
//! their next cooperative check instead of running — or blocking — to
//! completion.
//!
//! Tasks run on the instance-lifetime pool ([`JobOptions::pool`]), like
//! Hyracks' fixed node-controller workers. A fixed pool would deadlock if
//! a running task could block on a task still queued behind it, so jobs
//! execute *stage-at-a-time* (like real Hyracks activity clusters): an
//! operator's tasks are only submitted once every upstream operator has
//! completed, its inputs are then fully buffered and closed, and edge
//! channels are unbounded so sends never block either. Any pool size ≥ 1
//! therefore makes progress, and results do not depend on the pool size
//! (operators are deterministic per partition and routing does not depend
//! on interleaving). The per-query [`JobOptions::memory_budget`] bounds
//! what the buffered edges hold. Stages also follow Hyracks' blocking
//! build→probe edge for nested-loop joins: the sole producer of a join's
//! probe side waits for its build side, and never runs behind an empty
//! one.

use crate::context::ClusterContext;
use crate::error::{panic_message, CancelToken, ExecError, OpError};
use crate::job::{JobSpec, OpId, PhysicalOp};
use crate::ops::{run_operator, Out, Router};
use crate::pool::{PoolScope, WorkerPool};
use crate::tuple::{BatchSlice, Tuple};
use asterix_storage::{MemoryBudget, QueryCounters};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Incremental consumer of result rows for streaming execution.
///
/// When installed via [`JobOptions::result_sink`], the `ResultSink`
/// operator hands each arriving frame's rows to this callback instead
/// of buffering them into the job's result vector — the foundation of
/// the HTTP streaming endpoint, where large similarity-join results
/// must never materialize server-side. Delivery happens on the sink
/// operator's thread in frame-arrival order. Returning `Err` (e.g. the
/// downstream client disconnected) fails the sink operator, which
/// cancels every other partition cooperatively.
#[derive(Clone)]
pub struct ResultSink(Arc<dyn Fn(Vec<Tuple>) -> Result<(), String> + Send + Sync>);

impl ResultSink {
    /// Wrap a delivery callback.
    pub fn new<F>(f: F) -> ResultSink
    where
        F: Fn(Vec<Tuple>) -> Result<(), String> + Send + Sync + 'static,
    {
        ResultSink(Arc::new(f))
    }

    /// Deliver one frame of result rows.
    pub fn deliver(&self, rows: Vec<Tuple>) -> Result<(), String> {
        (self.0)(rows)
    }
}

impl std::fmt::Debug for ResultSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResultSink(..)")
    }
}

/// Knobs for one job run.
#[derive(Clone, Debug, Default)]
pub struct JobOptions {
    /// Wall-clock budget for the whole job; exceeded ⇒
    /// [`ExecError::Timeout`]. `None` = no deadline.
    pub timeout: Option<Duration>,
    /// Per-query storage counters: when set, the executor scopes this
    /// handle onto every operator thread so all storage-layer events
    /// (cache hits/misses, index probes, …) are attributed to this job
    /// even while other jobs run concurrently.
    pub counters: Option<Arc<QueryCounters>>,
    /// Per-query trace plus the span id to parent operator spans under
    /// (the caller's `execute` span). When set, every operator partition
    /// records one span with its wall time.
    pub trace: Option<(Arc<asterix_storage::Trace>, u64)>,
    /// The shared worker pool the job's tasks run on (stage-at-a-time).
    /// Required: a job without one fails with [`ExecError::InvalidJob`].
    pub pool: Option<Arc<WorkerPool>>,
    /// Use this caller-created cancel token instead of making a fresh one.
    /// Lets the caller install the token *before* the job starts (e.g.
    /// while the query waits for admission) so external cancellation works
    /// over the query's whole lifetime. When set, [`JobOptions::timeout`]
    /// is ignored here — encode the deadline in the token itself.
    pub cancel: Option<Arc<CancelToken>>,
    /// Per-query memory budget charged by connector frame sends (and,
    /// softly, postings-cache installs). Exceeding it stops the job with
    /// [`ExecError::MemoryBudgetExceeded`].
    pub memory_budget: Option<Arc<MemoryBudget>>,
    /// Live per-operator progress counters shared with observers (the
    /// running-query registry). When set, every task marks itself
    /// started/finished in its operator's slot and counts pushed tuples
    /// live via relaxed atomics; observers sample mid-execution without
    /// pausing anything.
    pub progress: Option<Arc<crate::progress::JobProgress>>,
    /// Stream result frames to this sink as they arrive instead of
    /// buffering them; the job's returned tuple vector is then empty.
    /// See [`ResultSink`].
    pub result_sink: Option<ResultSink>,
}

/// Per-operator runtime statistics, aggregated over partitions.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Operator name (e.g. `"dataset-scan"`, `"similarity-join"`).
    pub name: &'static str,
    /// Total tuples consumed across partitions.
    pub input_tuples: u64,
    /// Total tuples produced across partitions.
    pub output_tuples: u64,
    /// Longest per-partition wall time (the critical path contribution).
    pub max_partition_time: Duration,
    /// Most tuples consumed by any single partition instance — the
    /// hardware-independent critical-path proxy used by the scale-out /
    /// speed-up experiments when the host cannot run partitions on
    /// separate cores.
    pub max_partition_input: u64,
    /// Frames sent downstream across all partitions (a frame is one
    /// channel send of up to `FRAME_CAPACITY` tuples).
    pub frames_emitted: u64,
    /// Heap bytes of the values sent downstream across all partitions.
    pub bytes_emitted: u64,
    /// Wall time of every partition instance, as (partition, time).
    pub partition_times: Vec<(usize, Duration)>,
}

/// Statistics for a whole job run.
#[derive(Clone, Debug, Default)]
pub struct JobStats {
    /// Aggregated runtime statistics per operator.
    pub per_op: HashMap<OpId, OpStats>,
    /// Wall time of the whole job (admission excluded).
    pub elapsed: Duration,
}

impl JobStats {
    /// Output-tuple count of the first operator with the given name
    /// (e.g. candidate counts from "secondary-index-search" for Table 6).
    pub fn output_of(&self, op_name: &str) -> Option<u64> {
        let mut ids: Vec<(&OpId, &OpStats)> = self
            .per_op
            .iter()
            .filter(|(_, s)| s.name == op_name)
            .collect();
        ids.sort_by_key(|(id, _)| **id);
        ids.first().map(|(_, s)| s.output_tuples)
    }

    /// Simulated critical-path work: the sum over operators of the
    /// busiest partition's input tuples. Under ideal parallel hardware
    /// this is proportional to the job's wall time; it is what the
    /// scale-out and speed-up experiments report on hosts whose cores
    /// cannot actually run the partitions concurrently.
    pub fn critical_path_tuples(&self) -> u64 {
        self.per_op.values().map(|s| s.max_partition_input).sum()
    }

    /// Sum of output tuples across all operators with the given name.
    pub fn total_output_of(&self, op_name: &str) -> u64 {
        self.per_op
            .values()
            .filter(|s| s.name == op_name)
            .map(|s| s.output_tuples)
            .sum()
    }
}

/// Execute a job on `pool` with otherwise default options (no
/// deadline), returning the sink's tuples (unordered unless the plan
/// sorted them) and per-operator statistics.
pub fn run_job(
    job: &JobSpec,
    ctx: &ClusterContext,
    pool: &Arc<WorkerPool>,
) -> Result<(Vec<Tuple>, JobStats), ExecError> {
    let options = JobOptions {
        pool: Some(pool.clone()),
        ..JobOptions::default()
    };
    run_job_with(job, ctx, &options)
}

/// Execute a job under the given options. The first operator failure
/// (typed error or caught panic) or an elapsed deadline cancels all other
/// partitions cooperatively; the originating [`ExecError`] is returned.
pub fn run_job_with(
    job: &JobSpec,
    ctx: &ClusterContext,
    options: &JobOptions,
) -> Result<(Vec<Tuple>, JobStats), ExecError> {
    job.validate().map_err(ExecError::InvalidJob)?;
    let Some(pool) = &options.pool else {
        return Err(ExecError::InvalidJob("no worker pool".into()));
    };
    let started = Instant::now();

    let cancel = match &options.cancel {
        Some(token) => token.clone(),
        None => Arc::new(match options.timeout {
            Some(budget) => CancelToken::with_timeout(budget),
            None => CancelToken::new(),
        }),
    };
    ctx.install_cancel(cancel.clone());
    let result = run_pooled(job, ctx, options, pool, &cancel, started);
    // Clear only our own token: an unconditional clear would clobber the
    // token of a job that started concurrently after us.
    ctx.clear_cancel_if(&cancel);
    result
}

/// Borrowed environment shared by every operator task of one run.
struct TaskShared<'a> {
    ctx: &'a ClusterContext,
    cancel: &'a Arc<CancelToken>,
    options: &'a JobOptions,
    sink_tuples: &'a Mutex<Vec<Tuple>>,
    stats: &'a Mutex<HashMap<OpId, OpStats>>,
}

/// Run one operator partition: scope per-query attribution onto the
/// current thread, supervise the operator body with `catch_unwind`, and
/// either accumulate its stats or report its (typed) failure.
fn run_task(
    shared: &TaskShared<'_>,
    op: &PhysicalOp,
    op_id: OpId,
    partition: usize,
    inputs: Vec<Receiver<BatchSlice>>,
    routers: Vec<Router>,
    report: &(dyn Fn(ExecError) + Sync),
) {
    // Attribute every storage event on this thread to the owning query
    // (concurrent jobs each scope their own handle, so their stats stay
    // independent). Same pattern for the memory budget.
    let _counter_scope = shared.options.counters.as_ref().map(|c| c.enter());
    let _budget_scope = shared.options.memory_budget.as_ref().map(|b| b.enter());
    // One span per operator partition, parented under the caller's
    // `execute` span (explicit id — the parent lives on another thread's
    // stack).
    let _span = shared
        .options
        .trace
        .as_ref()
        .map(|(t, parent)| t.span_with(op.name(), Some(*parent), Some(partition)));
    // Live progress: mark this partition instance started and hand its
    // operator's counter block to `Out` so pushed tuples count as they
    // happen, not at task end.
    let live = shared
        .options
        .progress
        .as_ref()
        .and_then(|p| p.slot(op_id))
        .cloned();
    if let Some(p) = &live {
        p.task_started();
    }
    let t0 = Instant::now();
    // Result rows either buffer into the job's vector (the default) or
    // stream to the caller's sink as frames arrive.
    let sink_target = match &shared.options.result_sink {
        Some(s) => crate::ops::SinkTarget::Stream(s),
        None => crate::ops::SinkTarget::Buffer(shared.sink_tuples),
    };
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_operator(
            op,
            partition,
            inputs,
            Out::new(routers).with_live(live.clone()),
            shared.ctx,
            shared.cancel,
            sink_target,
        )
    }));
    let elapsed = t0.elapsed();
    let outcome = match caught {
        Ok(Ok(io)) => Ok(io),
        Ok(Err(OpError::Exec(e))) => Err(e),
        Ok(Err(OpError::Failed(message))) => Err(ExecError::Operator {
            op: format!("{op_id} ({})", op.name()),
            partition,
            message,
        }),
        Err(payload) => Err(ExecError::Panic {
            op: format!("{op_id} ({})", op.name()),
            partition,
            message: panic_message(payload.as_ref()),
        }),
    };
    if let Some(p) = &live {
        // Finished (successfully or not) — input counts are only known
        // from the operator's return value, so failures fold in zero.
        p.task_finished(match &outcome {
            Ok((input_tuples, _)) => *input_tuples,
            Err(_) => 0,
        });
    }
    match outcome {
        Ok((input_tuples, out_counts)) => {
            let mut st = shared.stats.lock();
            let entry = st.entry(op_id).or_insert_with(|| OpStats {
                name: op.name(),
                ..OpStats::default()
            });
            entry.input_tuples += input_tuples;
            entry.output_tuples += out_counts.tuples;
            entry.frames_emitted += out_counts.frames;
            entry.bytes_emitted += out_counts.bytes;
            entry.max_partition_time = entry.max_partition_time.max(elapsed);
            entry.max_partition_input = entry.max_partition_input.max(input_tuples);
            entry.partition_times.push((partition, elapsed));
        }
        Err(e) => report(e),
    }
}

/// Completion notice: sent (via `Drop`, so panics still notify) when one
/// operator-partition task finishes.
struct DoneNotice {
    tx: Sender<usize>,
    op_index: usize,
}

impl Drop for DoneNotice {
    fn drop(&mut self) {
        let _ = self.tx.send(self.op_index);
    }
}

/// Submit all `p` partition tasks of one operator to the pool. Called only
/// once every upstream operator has completed, so the tasks' inputs are
/// fully buffered and closed and the tasks never block on each other.
/// Returns the number of tasks submitted.
#[allow(clippy::too_many_arguments)]
fn submit_op<'env>(
    scope: &PoolScope<'env, '_>,
    job: &'env JobSpec,
    op_index: usize,
    p: usize,
    edge_receivers: &mut [Vec<Option<Receiver<BatchSlice>>>],
    edge_senders: &[Vec<Sender<BatchSlice>>],
    input_edges: &[Vec<usize>],
    output_edges: &[Vec<usize>],
    shared: &'env TaskShared<'env>,
    report: &'env (dyn Fn(ExecError) + Sync),
    done_tx: &Sender<usize>,
) -> usize {
    let (op_id, op) = (&job.ops[op_index].0, &job.ops[op_index].1);
    let mut submitted = 0;
    // `partition` indexes the inner dimension of several parallel edge
    // vectors; an enumerate over any single one of them would misread.
    #[allow(clippy::needless_range_loop)]
    for partition in 0..p {
        let mut inputs: Vec<Receiver<BatchSlice>> = Vec::with_capacity(input_edges[op_index].len());
        let mut wiring_error = None;
        for ei in &input_edges[op_index] {
            match edge_receivers[*ei][partition].take() {
                Some(rx) => inputs.push(rx),
                None => {
                    wiring_error = Some(ExecError::InvalidJob(format!(
                        "{op_id} ({}) partition {partition}: input edge already consumed",
                        op.name()
                    )));
                    break;
                }
            }
        }
        if let Some(e) = wiring_error {
            report(e);
            continue;
        }
        let routers: Vec<Router> = output_edges[op_index]
            .iter()
            .map(|ei| {
                Router::new(
                    job.edges[*ei].connector.clone(),
                    edge_senders[*ei].clone(),
                    partition,
                    shared.cancel.clone(),
                )
            })
            .collect();
        let op_id = *op_id;
        let notice = DoneNotice {
            tx: done_tx.clone(),
            op_index,
        };
        scope.submit(move || {
            let _notice = notice;
            run_task(shared, op, op_id, partition, inputs, routers, report);
        });
        submitted += 1;
    }
    submitted
}

/// Stage-at-a-time execution on a shared [`WorkerPool`]. The calling
/// thread acts as the job driver — it submits operators whose upstreams
/// have all completed, collects per-task completion notices, and closes
/// each completed operator's output edges so downstream tasks observe
/// end-of-stream after draining the buffer.
fn run_pooled(
    job: &JobSpec,
    ctx: &ClusterContext,
    options: &JobOptions,
    pool: &WorkerPool,
    cancel: &Arc<CancelToken>,
    started: Instant,
) -> Result<(Vec<Tuple>, JobStats), ExecError> {
    let p = ctx.num_partitions();
    let num_ops = job.ops.len();

    // Unbounded channels: a bounded send could block a task on a
    // consumer task that is not scheduled yet (deadlock on a full pool).
    // The per-query memory budget re-bounds what backpressure no longer
    // does.
    let mut edge_senders: Vec<Vec<Sender<BatchSlice>>> = Vec::with_capacity(job.edges.len());
    let mut edge_receivers: Vec<Vec<Option<Receiver<BatchSlice>>>> =
        Vec::with_capacity(job.edges.len());
    for _ in &job.edges {
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        edge_senders.push(senders);
        edge_receivers.push(receivers);
    }

    // Edge indices by role, per operator (ops are indexed by OpId.0).
    let mut input_edges: Vec<Vec<usize>> = vec![Vec::new(); num_ops];
    let mut output_edges: Vec<Vec<usize>> = vec![Vec::new(); num_ops];
    for (i, e) in job.edges.iter().enumerate() {
        output_edges[e.from.0].push(i);
    }
    for (op_index, slots) in input_edges.iter_mut().enumerate() {
        let mut v: Vec<(usize, usize)> = job
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.to.0 == op_index)
            .map(|(i, e)| (e.input, i))
            .collect();
        v.sort();
        *slots = v.into_iter().map(|(_, i)| i).collect();
    }
    // Build before probe: an operator whose one output edge feeds the
    // probe side (input 1) of a nested-loop join waits for the producer
    // of that join's build side (input 0), and never runs if the build
    // side came out empty — no row of the probe could join. With one
    // output edge the wait cannot close a cycle: the build producer is
    // upstream of the join, and the gated operator's only consumer is
    // the join.
    let gate: Vec<Option<usize>> = (0..num_ops)
        .map(|op_index| {
            let [ei] = output_edges[op_index][..] else {
                return None;
            };
            let edge = &job.edges[ei];
            if edge.input != 1 || !matches!(job.ops[edge.to.0].1, PhysicalOp::NestedLoopJoin { .. }) {
                return None;
            }
            input_edges[edge.to.0]
                .iter()
                .map(|b| &job.edges[*b])
                .find(|b| b.input == 0)
                .map(|b| b.from.0)
        })
        .collect();
    // Distinct upstream producers (and the build producer a gated
    // operator waits for) drive stage eligibility.
    let mut remaining_upstream = vec![0usize; num_ops];
    let mut downstream: Vec<Vec<usize>> = vec![Vec::new(); num_ops];
    for op_index in 0..num_ops {
        let ups: HashSet<usize> = input_edges[op_index]
            .iter()
            .map(|ei| job.edges[*ei].from.0)
            .chain(gate[op_index])
            .collect();
        remaining_upstream[op_index] = ups.len();
        for u in ups {
            downstream[u].push(op_index);
        }
    }

    let sink_tuples: Mutex<Vec<Tuple>> = Mutex::new(Vec::new());
    let stats: Mutex<HashMap<OpId, OpStats>> = Mutex::new(HashMap::new());
    let first_error: Mutex<Option<ExecError>> = Mutex::new(None);
    let report = |e: ExecError| {
        let mut slot = first_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        cancel.cancel();
    };
    let shared = TaskShared {
        ctx,
        cancel,
        options,
        sink_tuples: &sink_tuples,
        stats: &stats,
    };
    let (done_tx, done_rx) = unbounded::<usize>();

    pool.scope(|scope| {
        let report: &(dyn Fn(ExecError) + Sync) = &report;
        let shared = &shared;
        let mut partitions_done = vec![0usize; num_ops];
        let mut completed_ops = 0usize;
        let mut inflight_tasks = 0usize;
        // Operators whose upstreams have all completed, in the order they
        // became ready (sources first, in id order), and operators done on
        // every partition.
        let mut ready: VecDeque<usize> =
            (0..num_ops).filter(|&i| remaining_upstream[i] == 0).collect();
        let mut finished: Vec<usize> = Vec::new();

        loop {
            while let Some(op_index) = ready.pop_front() {
                let dead_probe = gate[op_index].is_some_and(|b| {
                    let build_id = job.ops[b].0;
                    stats.lock().get(&build_id).map_or(0, |s| s.output_tuples) == 0
                });
                if !dead_probe {
                    inflight_tasks += submit_op(
                        scope,
                        job,
                        op_index,
                        p,
                        &mut edge_receivers,
                        &edge_senders,
                        &input_edges,
                        &output_edges,
                        shared,
                        report,
                        &done_tx,
                    );
                    continue;
                }
                // Complete without running: no output, and dropped
                // inputs, so a shared upstream's sends on them are
                // discarded (`Ok`, like any closed consumer's).
                let (op_id, op) = &job.ops[op_index];
                stats.lock().insert(
                    *op_id,
                    OpStats {
                        name: op.name(),
                        ..OpStats::default()
                    },
                );
                for ei in &input_edges[op_index] {
                    edge_receivers[*ei].iter_mut().for_each(|rx| drop(rx.take()));
                }
                finished.push(op_index);
            }
            while let Some(op_index) = finished.pop() {
                completed_ops += 1;
                // Drop the operator's edges' master senders (its tasks'
                // Router clones are already gone) so consumers see
                // end-of-stream after draining.
                for ei in &output_edges[op_index] {
                    edge_senders[*ei].clear();
                }
                for &d in &downstream[op_index] {
                    remaining_upstream[d] -= 1;
                    if remaining_upstream[d] == 0 {
                        ready.push_back(d);
                    }
                }
            }
            if !ready.is_empty() {
                continue;
            }
            // Stop driving new stages once anything failed; in-flight
            // tasks unwind cooperatively and the scope joins them.
            if completed_ops == num_ops || first_error.lock().is_some() {
                break;
            }
            match done_rx.recv_timeout(Duration::from_millis(10)) {
                Ok(op_index) => {
                    inflight_tasks -= 1;
                    partitions_done[op_index] += 1;
                    if partitions_done[op_index] == p {
                        finished.push(op_index);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Unreachable for a validated (acyclic) DAG: some task
                    // is always in flight until every op completes. Guard
                    // against an internal scheduling bug anyway.
                    if inflight_tasks == 0 {
                        report(ExecError::InvalidJob(
                            "execution stalled with no tasks in flight".into(),
                        ));
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    });

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok((
        sink_tuples.into_inner(),
        JobStats {
            per_op: stats.into_inner(),
            elapsed: started.elapsed(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use crate::expr::{CmpOp, Expr};
    use crate::job::{AggSpec, ConnectorKind, FaultMode, PhysicalOp, SearchMeasure};
    use crate::tuple::SortKey;
    use asterix_adm::{record, DatasetDef, IndexDef, IndexKind, Value};
    use asterix_simfn::FunctionRegistry;
    use asterix_storage::{BufferCache, Disk, PartitionStore, StorageConfig};
    use std::sync::Arc;

    /// A fresh pool of `workers` threads for one test's jobs. Tests never
    /// share workers, so one test's throttled tasks cannot delay another
    /// test's deadline.
    fn pool(workers: usize) -> Arc<WorkerPool> {
        WorkerPool::new(workers)
    }

    /// Build a cluster with one dataset of `reviews` distributed by pk.
    fn cluster(partitions: usize, rows: &[(i64, &str, &str)]) -> ClusterContext {
        let ctx = ClusterContext::new(partitions, FunctionRegistry::with_builtins());
        let def = DatasetDef::new("ARevs", "id");
        for (pidx, pset) in ctx.partitions.iter().enumerate() {
            let cache = Arc::new(BufferCache::new(Arc::new(Disk::new()), 64));
            let mut store =
                PartitionStore::new(def.clone(), pidx, cache, StorageConfig::tiny());
            store
                .create_index(&IndexDef {
                    name: "smix".into(),
                    field: "summary".into(),
                    kind: IndexKind::Keyword,
                })
                .unwrap();
            store
                .create_index(&IndexDef {
                    name: "nix".into(),
                    field: "name".into(),
                    kind: IndexKind::NGram(2),
                })
                .unwrap();
            for (id, name, summary) in rows {
                if def.partition_of(&Value::Int64(*id), partitions) == pidx {
                    store
                        .insert(record! {"id" => *id, "name" => *name, "summary" => *summary})
                        .unwrap();
                }
            }
            pset.write().insert_store(store);
        }
        ctx
    }

    fn sample_rows() -> Vec<(i64, &'static str, &'static str)> {
        vec![
            (1, "james", "this movie touched my heart"),
            (2, "mary", "the best car charger i ever bought"),
            (3, "mario", "different than my usual but good"),
            (4, "jamie", "great product fantastic gift"),
            (5, "maria", "better ever than i expected"),
            (6, "bob", "great product fantastic gift idea"),
        ]
    }

    #[test]
    fn scan_collects_all_rows() {
        let ctx = cluster(4, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        let (rows, stats) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(stats.total_output_of("dataset-scan"), 6);
    }

    #[test]
    fn select_filters() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let select = job.add(PhysicalOp::Select {
            predicate: Expr::cmp(
                CmpOp::Le,
                Expr::col(0),
                Expr::lit(3i64),
            ),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, select);
        job.connect(select, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn sort_after_gather_is_global() {
        let ctx = cluster(3, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![SortKey::desc(0)],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, sink);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        let ids: Vec<i64> = rows.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn hash_join_equi() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan_l = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let scan_r = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let join = job.add(PhysicalOp::HashJoin {
            left_keys: vec![0],
            right_keys: vec![0],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan_l, join, 0, ConnectorKind::Hash(vec![0]));
        job.connect(scan_r, join, 1, ConnectorKind::Hash(vec![0]));
        job.connect(join, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 6); // self equi-join on pk
        for r in rows {
            assert_eq!(r[0], r[2]);
        }
    }

    #[test]
    fn broadcast_nested_loop_join() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan_l = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let scan_r = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        // Predicate: left.id < right.id (left cols 0-1, right cols 2-3).
        let join = job.add(PhysicalOp::NestedLoopJoin {
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(2)),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan_l, join, 0, ConnectorKind::Broadcast);
        job.connect(scan_r, join, 1, ConnectorKind::OneToOne);
        job.connect(join, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 15); // C(6,2)
    }

    #[test]
    fn group_by_count() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        // Tokenize summaries, count token frequencies globally.
        let unnest = job.add(PhysicalOp::Unnest {
            expr: Expr::call("word-tokens", vec![Expr::col(1).field("summary")]),
            with_pos: false,
        });
        let gb = job.add(PhysicalOp::HashGroupBy {
            keys: vec![2],
            aggs: vec![AggSpec::Count],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, unnest);
        job.connect(unnest, gb, 0, ConnectorKind::Hash(vec![2]));
        job.connect(gb, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        let greats: Vec<&Tuple> = rows
            .iter()
            .filter(|t| t[0] == Value::from("great"))
            .collect();
        assert_eq!(greats.len(), 1, "hash repartition must co-locate groups");
        assert_eq!(greats[0][1], Value::Int64(2));
    }

    #[test]
    fn index_search_jaccard_candidates() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        // Constant query: "great product gift" δ=0.5 via the keyword index.
        let (_, assign) = crate::job::constant_source(
            &mut job,
            vec![Value::from("great product fantastic gift")],
        );
        let search = job.add(PhysicalOp::SecondaryIndexSearch {
            dataset: "ARevs".into(),
            index: "smix".into(),
            key_col: 0,
            measure: SearchMeasure::Jaccard { delta: 0.5 },
            pre_tokens: None,
        });
        let sort = job.add(PhysicalOp::Sort { keys: vec![SortKey::asc(1)] });
        let lookup = job.add(PhysicalOp::PrimaryIndexLookup {
            dataset: "ARevs".into(),
            pk_col: 1,
        });
        let verify = job.add(PhysicalOp::Select {
            predicate: Expr::cmp(
                CmpOp::Ge,
                Expr::call(
                    "similarity-jaccard",
                    vec![
                        Expr::call("word-tokens", vec![Expr::col(0)]),
                        Expr::call("word-tokens", vec![Expr::col(2).field("summary")]),
                    ],
                ),
                Expr::lit(0.5f64),
            ),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(assign, search, 0, ConnectorKind::Broadcast);
        job.pipe(search, sort);
        job.pipe(sort, lookup);
        job.pipe(lookup, verify);
        job.connect(verify, sink, 0, ConnectorKind::ToOne);
        let (rows, stats) = run_job(&job, &ctx, &pool(2)).unwrap();
        let mut ids: Vec<i64> = rows.iter().map(|t| t[1].as_i64().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, vec![4, 6]);
        // Candidates include at least the true results.
        assert!(stats.total_output_of("secondary-index-search") >= 2);
    }

    #[test]
    fn index_search_edit_distance() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let (_, assign) = crate::job::constant_source(&mut job, vec![Value::from("marla")]);
        let search = job.add(PhysicalOp::SecondaryIndexSearch {
            dataset: "ARevs".into(),
            index: "nix".into(),
            key_col: 0,
            measure: SearchMeasure::EditDistance { k: 1 },
            pre_tokens: None,
        });
        let lookup = job.add(PhysicalOp::PrimaryIndexLookup {
            dataset: "ARevs".into(),
            pk_col: 1,
        });
        let verify = job.add(PhysicalOp::Select {
            predicate: Expr::call(
                "edit-distance-check",
                vec![Expr::col(0), Expr::col(2).field("name"), Expr::lit(1i64)],
            ),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(assign, search, 0, ConnectorKind::Broadcast);
        job.pipe(search, lookup);
        job.pipe(lookup, verify);
        job.connect(verify, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        let ids: Vec<i64> = rows.iter().map(|t| t[1].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![5]); // only "maria" is within distance 1
    }

    #[test]
    fn union_merges_streams() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan1 = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let scan2 = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let union = job.add(PhysicalOp::Union);
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan1, union, 0, ConnectorKind::OneToOne);
        job.connect(scan2, union, 1, ConnectorKind::OneToOne);
        job.connect(union, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn replicated_output_feeds_two_consumers() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sel_low = job.add(PhysicalOp::Select {
            predicate: Expr::cmp(CmpOp::Le, Expr::col(0), Expr::lit(3i64)),
        });
        let sel_high = job.add(PhysicalOp::Select {
            predicate: Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(3i64)),
        });
        let union = job.add(PhysicalOp::Union);
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, sel_low);
        job.connect(scan, sel_high, 0, ConnectorKind::OneToOne);
        job.connect(sel_low, union, 0, ConnectorKind::OneToOne);
        job.connect(sel_high, union, 1, ConnectorKind::OneToOne);
        job.connect(union, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 6, "split + union must reconstruct the input");
    }

    #[test]
    fn stream_pos_assigns_global_rank_after_gather() {
        let ctx = cluster(3, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![SortKey::asc(0)],
        });
        let pos = job.add(PhysicalOp::StreamPos);
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, pos);
        job.pipe(pos, sink);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        for t in rows {
            // id i (1-based) gets rank i-1 (0-based).
            assert_eq!(t[0].as_i64().unwrap() - 1, t[2].as_i64().unwrap());
        }
    }

    #[test]
    fn limit_truncates() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let gather = job.add(PhysicalOp::Materialize);
        let limit = job.add(PhysicalOp::Limit { n: 2 });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, gather, 0, ConnectorKind::ToOne);
        job.pipe(gather, limit);
        job.pipe(limit, sink);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn runtime_error_propagates() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let bad = job.add(PhysicalOp::Assign {
            exprs: vec![Expr::call("no-such-function", vec![])],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, bad);
        job.connect(bad, sink, 0, ConnectorKind::ToOne);
        let err = run_job(&job, &ctx, &pool(2)).unwrap_err();
        assert!(
            matches!(err, ExecError::Operator { .. }),
            "expected operator error, got: {err:?}"
        );
        assert!(err.to_string().contains("no-such-function"), "got: {err}");
    }

    #[test]
    fn unknown_dataset_errors() {
        let ctx = cluster(1, &[]);
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "nope".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        assert!(run_job(&job, &ctx, &pool(2)).is_err());
    }

    #[test]
    fn stats_record_tuple_counts() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        let (_, stats) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(stats.output_of("dataset-scan"), Some(6));
        assert_eq!(stats.output_of("result-sink"), Some(6));
        assert!(stats.output_of("no-such-op").is_none());
    }

    #[test]
    fn aggregate_functions_sum_min_max_collect() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        // Group everything into one bucket keyed by a constant.
        let key = job.add(PhysicalOp::Assign {
            exprs: vec![Expr::lit(1i64)],
        });
        let gb = job.add(PhysicalOp::HashGroupBy {
            keys: vec![2],
            aggs: vec![
                AggSpec::Count,
                AggSpec::Sum(0),
                AggSpec::Min(0),
                AggSpec::Max(0),
                AggSpec::CollectSortedSet(0),
            ],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, key);
        job.connect(key, gb, 0, ConnectorKind::Hash(vec![2]));
        job.connect(gb, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r[1], Value::Int64(6)); // count
        assert_eq!(r[2], Value::Int64(21)); // sum of ids 1..=6
        assert_eq!(r[3], Value::Int64(1)); // min
        assert_eq!(r[4], Value::Int64(6)); // max
        assert_eq!(r[5].len(), Some(6)); // collected distinct ids
    }

    #[test]
    fn frames_cross_capacity_boundaries() {
        // More rows than FRAME_CAPACITY must flow through hash
        // repartitioning without loss or duplication.
        let rows: Vec<(i64, String, String)> = (0..1000)
            .map(|i| (i, format!("user{i}"), format!("summary {}", i % 7)))
            .collect();
        let borrowed: Vec<(i64, &str, &str)> = rows
            .iter()
            .map(|(i, a, b)| (*i, a.as_str(), b.as_str()))
            .collect();
        let ctx = cluster(3, &borrowed);
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let shuffle = job.add(PhysicalOp::Project { cols: vec![0] });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, shuffle, 0, ConnectorKind::Hash(vec![0]));
        job.connect(shuffle, sink, 0, ConnectorKind::ToOne);
        let (out, _) = run_job(&job, &ctx, &pool(2)).unwrap();
        let mut ids: Vec<i64> = out.iter().map(|t| t[0].as_i64().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn materialize_preserves_stream() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let mat = job.add(PhysicalOp::Materialize);
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, mat);
        job.connect(mat, sink, 0, ConnectorKind::ToOne);
        let (rows, stats) = run_job(&job, &ctx, &pool(2)).unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(stats.total_output_of("materialize"), 6);
    }

    /// scan → fault-inject → sink over 2 partitions; the chosen mode on
    /// partition 1 must surface as the matching typed error.
    fn faulty_job(mode: FaultMode) -> (ClusterContext, JobSpec) {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let fault = job.add(PhysicalOp::FaultInject {
            partition: 1,
            after_tuples: 1,
            mode,
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, fault);
        job.connect(fault, sink, 0, ConnectorKind::ToOne);
        (ctx, job)
    }

    /// A scan → sink job over `ctx` that must succeed with 6 rows.
    fn assert_healthy(ctx: &ClusterContext, pool: &Arc<WorkerPool>) {
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        let (rows, _) = run_job(&job, ctx, pool).unwrap();
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn injected_panic_is_caught_and_typed() {
        let (ctx, job) = faulty_job(FaultMode::Panic);
        let pool = pool(2);
        let err = run_job(&job, &ctx, &pool).unwrap_err();
        match &err {
            ExecError::Panic {
                partition, message, ..
            } => {
                assert_eq!(*partition, 1);
                assert!(message.contains("injected panic"), "got: {message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // The pool's workers survive the panic and run the next job.
        assert_healthy(&ctx, &pool);
    }

    #[test]
    fn injected_error_is_typed() {
        let (ctx, job) = faulty_job(FaultMode::Error);
        let pool = pool(2);
        let err = run_job(&job, &ctx, &pool).unwrap_err();
        match &err {
            ExecError::Operator {
                partition, message, ..
            } => {
                assert_eq!(*partition, 1);
                assert!(message.contains("injected operator failure"), "got: {message}");
            }
            other => panic!("expected operator error, got {other:?}"),
        }
        assert_healthy(&ctx, &pool);
    }

    #[test]
    fn deadline_produces_timeout_error() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        // ~100 ms per tuple against a 40 ms budget: the deadline must win.
        let slow = job.add(PhysicalOp::Throttle {
            micros_per_tuple: 100_000,
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, slow);
        job.connect(slow, sink, 0, ConnectorKind::ToOne);
        let started = Instant::now();
        let err = run_job_with(
            &job,
            &ctx,
            &JobOptions {
                timeout: Some(Duration::from_millis(40)),
                pool: Some(pool(2)),
                ..JobOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ExecError::Timeout(_)),
            "expected timeout, got {err:?}"
        );
        // Cooperative cancellation must unwind promptly, far inside the
        // ~600 ms the job would need to finish.
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "timeout took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn external_cancel_stops_job() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let slow = job.add(PhysicalOp::Throttle {
            micros_per_tuple: 100_000,
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, slow);
        job.connect(slow, sink, 0, ConnectorKind::ToOne);
        let err = std::thread::scope(|s| {
            let ctx = &ctx;
            let job = &job;
            s.spawn(move || {
                // Let the job install its token, then cancel it. Bounded
                // retries so the helper can never outlive the test.
                std::thread::sleep(Duration::from_millis(30));
                for _ in 0..200 {
                    if ctx.cancel_active() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            run_job(job, ctx, &pool(2)).unwrap_err()
        });
        assert!(
            matches!(err, ExecError::Cancelled),
            "expected cancelled, got {err:?}"
        );
    }

    #[test]
    fn invalid_job_is_typed() {
        let job = JobSpec::new(); // no sink
        let ctx = cluster(1, &[]);
        let err = run_job(&job, &ctx, &pool(2)).unwrap_err();
        assert!(matches!(err, ExecError::InvalidJob(_)), "got {err:?}");
        // A valid job with no pool to run on is invalid too.
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        let err = run_job_with(&job, &ctx, &JobOptions::default()).unwrap_err();
        assert!(
            matches!(&err, ExecError::InvalidJob(m) if m == "no worker pool"),
            "got {err:?}"
        );
    }

    #[test]
    fn failure_on_one_partition_cancels_slow_siblings() {
        // One stage holds both a crawling task (each throttle partition
        // needs ~3 s for its 3 rows) and a task failing at once (fault
        // partition 0): both read the same scan, so they become ready
        // together, and 4 workers run all four tasks at the same time.
        // Supervision must cancel the throttle mid-sleep instead of
        // letting the job run to completion.
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let slow = job.add(PhysicalOp::Throttle {
            micros_per_tuple: 1_000_000,
        });
        let fault = job.add(PhysicalOp::FaultInject {
            partition: 0,
            after_tuples: 0,
            mode: FaultMode::Error,
        });
        let union = job.add(PhysicalOp::Union);
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, slow);
        job.connect(scan, fault, 0, ConnectorKind::OneToOne);
        job.connect(slow, union, 0, ConnectorKind::OneToOne);
        job.connect(fault, union, 1, ConnectorKind::OneToOne);
        job.connect(union, sink, 0, ConnectorKind::ToOne);
        let started = Instant::now();
        let err = run_job(&job, &ctx, &pool(4)).unwrap_err();
        assert!(
            matches!(&err, ExecError::Operator { partition: 0, .. }),
            "got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(1_500),
            "cancellation too slow: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn critical_path_tuples_accounts_busiest_partition() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        let (_, stats) = run_job(&job, &ctx, &pool(2)).unwrap();
        let cp = stats.critical_path_tuples();
        // The sink consumes all 6 rows on one partition.
        assert!(cp >= 6, "critical path {cp}");
    }

    /// Run `job` on a 1-worker and an 8-worker pool; both must return
    /// the same rows. Returns them with the 8-worker run's stats.
    fn run_on_both_pool_sizes(job: &JobSpec, ctx: &ClusterContext) -> (Vec<Tuple>, JobStats) {
        // A 1-worker pool must still complete any DAG (stage-at-a-time
        // tasks never wait on each other).
        let (one, _) = run_job(job, ctx, &pool(1)).unwrap();
        let (eight, stats) = run_job(job, ctx, &pool(8)).unwrap();
        assert_eq!(one, eight, "1 and 8 workers must agree");
        (eight, stats)
    }

    #[test]
    fn scan_matches_across_pool_sizes() {
        let ctx = cluster(4, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![SortKey::asc(0)],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, sink);
        let (rows, stats) = run_on_both_pool_sizes(&job, &ctx);
        let ids: Vec<i64> = rows.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(stats.total_output_of("dataset-scan"), 6);
    }

    #[test]
    fn multi_input_join_matches_across_pool_sizes() {
        let ctx = cluster(3, &sample_rows());
        let mut job = JobSpec::new();
        let scan_l = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let scan_r = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let join = job.add(PhysicalOp::HashJoin {
            left_keys: vec![0],
            right_keys: vec![0],
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![SortKey::asc(0)],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan_l, join, 0, ConnectorKind::Hash(vec![0]));
        job.connect(scan_r, join, 1, ConnectorKind::Hash(vec![0]));
        job.connect(join, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, sink);
        let (rows, _) = run_on_both_pool_sizes(&job, &ctx);
        // A self equi-join on the pk pairs every row with itself.
        let pairs: Vec<(i64, i64)> = rows
            .iter()
            .map(|t| (t[0].as_i64().unwrap(), t[2].as_i64().unwrap()))
            .collect();
        assert_eq!(pairs, (1..=6).map(|id| (id, id)).collect::<Vec<_>>());
    }

    /// Fig 14's corner shape: a build side of the rows with pk in
    /// `build_keys`, broadcast into input 0 of a nested-loop join whose
    /// probe side (input 1) is a full scan. The build side crawls, so a
    /// partition holding build rows finishes well after an empty one.
    /// Returns the job, the probe scan and the join.
    fn corner_join_job(build_keys: asterix_storage::KeyRange) -> (JobSpec, OpId, OpId) {
        let mut job = JobSpec::new();
        let build = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: build_keys,
        });
        let crawl = job.add(PhysicalOp::Throttle {
            micros_per_tuple: 20_000,
        });
        let probe = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let join = job.add(PhysicalOp::NestedLoopJoin {
            predicate: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(2)),
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![SortKey::asc(0), SortKey::asc(2)],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(build, crawl);
        job.connect(crawl, join, 0, ConnectorKind::Broadcast);
        job.connect(probe, join, 1, ConnectorKind::OneToOne);
        job.connect(join, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, sink);
        (job, probe, join)
    }

    #[test]
    fn pooled_probe_side_never_runs_behind_an_empty_build_side() {
        use std::ops::Bound;
        let ctx = cluster(2, &sample_rows());
        let (job, probe, join) = corner_join_job(asterix_storage::KeyRange {
            lo: Bound::Included(Value::Int64(100)),
            hi: Bound::Unbounded,
        });
        for workers in [1, 8] {
            let progress = crate::progress::JobProgress::for_job(&job);
            let options = JobOptions {
                pool: Some(pool(workers)),
                progress: Some(progress.clone()),
                ..JobOptions::default()
            };
            let (rows, stats) = run_job_with(&job, &ctx, &options).unwrap();
            assert!(rows.is_empty());
            let st = &stats.per_op[&probe];
            assert_eq!(st.name, "dataset-scan");
            assert_eq!((st.input_tuples, st.output_tuples), (0, 0));
            assert!(st.partition_times.is_empty(), "the probe scan ran: {st:?}");
            let live = progress
                .snapshot()
                .into_iter()
                .find(|s| s.op == probe.0)
                .unwrap();
            assert_eq!(
                (live.partitions_started, live.partitions_finished, live.tuples_in, live.tuples_out),
                (0, 0, 0, 0)
            );
            // The join itself ran everywhere, over an empty build side.
            assert_eq!(stats.per_op[&join].partition_times.len(), 2);
        }
    }

    #[test]
    fn pooled_probe_side_runs_after_a_nonempty_build_side() {
        use std::ops::Bound;
        let ctx = cluster(3, &sample_rows());
        // Build ids 1 and 2: at least one of the 3 partitions holds no
        // build row and finishes first.
        let (job, probe, _) = corner_join_job(asterix_storage::KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(Value::Int64(3)),
        });
        let (rows, stats) = run_on_both_pool_sizes(&job, &ctx);
        let pairs: Vec<(i64, i64)> = rows
            .iter()
            .map(|t| (t[0].as_i64().unwrap(), t[2].as_i64().unwrap()))
            .collect();
        let brute_force: Vec<(i64, i64)> = (1..=2)
            .flat_map(|b| (1..=6).filter(move |p| b < *p).map(move |p| (b, p)))
            .collect();
        assert_eq!(pairs, brute_force);
        assert_eq!(stats.per_op[&probe].output_tuples, 6);
        assert_eq!(stats.total_output_of("dataset-scan"), 8);
    }

    #[test]
    fn pooled_runs_reuse_one_pool_across_jobs() {
        let ctx = cluster(2, &sample_rows());
        let pool = pool(2);
        for _ in 0..5 {
            let mut job = JobSpec::new();
            let scan = job.add(PhysicalOp::DatasetScan {
                dataset: "ARevs".into(),
                range: Default::default(),
            });
            let sink = job.add(PhysicalOp::ResultSink);
            job.connect(scan, sink, 0, ConnectorKind::ToOne);
            let (rows, _) = run_job(&job, &ctx, &pool).unwrap();
            assert_eq!(rows.len(), 6);
        }
        // A worker decrements `busy` just *after* its task signals scope
        // completion, so the gauge can trail `run_job` returning by an
        // instant — poll briefly instead of sampling once.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.busy() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.busy(), 0);
        assert_eq!(pool.queued_tasks(), 0);
    }

    #[test]
    fn memory_budget_exceeded_is_typed() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sink, 0, ConnectorKind::ToOne);
        // A 1-byte budget cannot absorb the scan's record frames.
        let err = run_job_with(
            &job,
            &ctx,
            &JobOptions {
                pool: Some(pool(2)),
                memory_budget: Some(asterix_storage::MemoryBudget::new(1)),
                ..JobOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::MemoryBudgetExceeded { limit: 1, .. } | ExecError::Cancelled
            ),
            "expected memory-budget error, got {err:?}"
        );
    }

    #[test]
    fn caller_provided_cancel_token_governs_the_job() {
        let ctx = cluster(2, &sample_rows());
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
            range: Default::default(),
        });
        let slow = job.add(PhysicalOp::Throttle {
            micros_per_tuple: 100_000,
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(scan, slow);
        job.connect(slow, sink, 0, ConnectorKind::ToOne);
        let token = Arc::new(CancelToken::new());
        token.cancel(); // cancelled before the job even starts
        let err = run_job_with(
            &job,
            &ctx,
            &JobOptions {
                pool: Some(pool(2)),
                cancel: Some(token),
                ..JobOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Cancelled), "got {err:?}");
    }
}
