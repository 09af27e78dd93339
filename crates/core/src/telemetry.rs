//! Instance-wide telemetry: the metrics registry, slow-query log, and
//! export surfaces (`metrics_snapshot` JSON + Prometheus text).
//!
//! Where [`crate::QueryProfile`] answers "what did *this* query do", this
//! module answers "what has the *instance* been doing": latency
//! distributions per query class, per-operator execution-time histograms,
//! per-partition busy time, accumulated cache hit ratios, LSM component
//! gauges, the lifecycle event ring
//! ([`asterix_storage::LsmEventLog`]), and a bounded log of the slowest
//! queries with their full plan, profile, and trace spans.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-cheap.** Every per-query record is a handful of relaxed
//!    atomic adds; the only locks are a short mutex on the per-operator
//!    histogram map (one hit per operator per query) and on the
//!    slow-query deque (only for queries that cross the threshold).
//!    The `e2e` benchmark reports the cost as `trace.overhead_share`.
//! 2. **Fixed memory.** Histograms are 32 log-scale buckets; the event
//!    ring and slow-query log are bounded deques. Nothing grows with
//!    uptime except the operator-name map (bounded by the physical
//!    operator vocabulary).
//! 3. **Diffable output.** Snapshots emit *every* key, zero or not, so
//!    downstream tooling can subtract consecutive snapshots without
//!    guarding against missing fields.
//!
//! Histogram bucket scheme: bucket 0 holds exactly 0 µs; bucket *b* ≥ 1
//! holds durations in `[2^(b-1), 2^b)` µs. Bucket 31 is the overflow
//! bucket (≥ ~17.9 minutes). Percentiles report the bucket's inclusive
//! upper edge (`2^b − 1`), clamped to the true observed maximum, so
//! construction guarantees p50 ≤ p95 ≤ p99 ≤ max.

use crate::config::TelemetryConfig;
use crate::profile::QueryProfile;
use crate::result::PlanInfo;
use asterix_adm::Value;
use asterix_hyracks::JobStats;
use asterix_storage::{CacheStats, LsmEvent, LsmEventLog, SpanRecord, StorageProfile};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of log-scale buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The workload classes latency is tracked under. Derived from the plan:
/// a query that runs through an index-nested-loop (or three-stage) join
/// plan is an `IndexJoin`; one that probes a secondary index for a
/// selection is an `IndexSelect`; everything else (full scans, including
/// non-index three-stage joins' fallback and pure aggregations) is `Scan`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// Full scans, aggregations, and non-index fallback plans.
    Scan,
    /// Secondary-index-accelerated selection.
    IndexSelect,
    /// Index-nested-loop or three-stage similarity join.
    IndexJoin,
}

impl QueryClass {
    /// Every class, in slot order.
    pub const ALL: [QueryClass; 3] =
        [QueryClass::Scan, QueryClass::IndexSelect, QueryClass::IndexJoin];

    /// Stable lowercase name used in metrics keys and labels.
    pub fn name(&self) -> &'static str {
        match self {
            QueryClass::Scan => "scan",
            QueryClass::IndexSelect => "index-select",
            QueryClass::IndexJoin => "index-join",
        }
    }

    pub(crate) fn slot(&self) -> usize {
        match self {
            QueryClass::Scan => 0,
            QueryClass::IndexSelect => 1,
            QueryClass::IndexJoin => 2,
        }
    }

    /// Parse a class from its stable [`QueryClass::name`] (the form the
    /// HTTP API accepts in query options). `None` for unknown names.
    pub fn from_name(name: &str) -> Option<QueryClass> {
        QueryClass::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Infer the class from the optimized plan's fired rewrite rules.
    pub fn classify(plan: &PlanInfo) -> QueryClass {
        if plan.used_rule("introduce-index-nested-loop-join") {
            QueryClass::IndexJoin
        } else if plan.used_rule("introduce-index-for-selection") {
            QueryClass::IndexSelect
        } else {
            QueryClass::Scan
        }
    }
}

/// How a recorded query ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Ran to completion and returned rows.
    Completed,
    /// Stopped with an error (operator failure, rejection, panic, ...).
    Failed,
    /// Stopped because its deadline expired — while executing
    /// (`ExecError::Timeout`) or still queued (`AdmissionTimeout`).
    Timeout,
    /// Cancelled from outside before completing — including while still
    /// waiting in the admission queue.
    Cancelled,
}

/// Lock-free fixed-bucket log-scale histogram of microsecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// Record one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Record one duration sample.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// An immutable copy of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable view of one histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `b` covers `[2^(b-1), 2^b)` µs).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, in microseconds.
    pub sum: u64,
    /// Largest sample observed, in microseconds.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (0 < q ≤ 1) in microseconds: the inclusive upper
    /// edge of the bucket containing the rank-`ceil(q·count)` sample,
    /// clamped to the observed maximum. Zero when empty. Monotone in `q`
    /// by construction.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // The overflow bucket has no finite upper edge; report the
                // observed maximum instead.
                if b == HISTOGRAM_BUCKETS - 1 {
                    return self.max;
                }
                let upper = if b == 0 { 0 } else { (1u64 << b) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Value {
        Value::record(vec![
            ("count".into(), Value::Int64(self.count as i64)),
            ("sum".into(), Value::Int64(self.sum as i64)),
            ("mean".into(), Value::double(self.mean_us())),
            ("max".into(), Value::Int64(self.max as i64)),
            ("p50".into(), Value::Int64(self.percentile_us(0.50) as i64)),
            ("p95".into(), Value::Int64(self.percentile_us(0.95) as i64)),
            ("p99".into(), Value::Int64(self.percentile_us(0.99) as i64)),
            (
                "buckets".into(),
                Value::OrderedList(self.buckets.iter().map(|b| Value::Int64(*b as i64)).collect()),
            ),
        ])
    }
}

/// Per-class counters + latency/compile histograms.
#[derive(Debug, Default)]
struct ClassMetrics {
    completed: AtomicU64,
    failed: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    rows_returned: AtomicU64,
    latency: Histogram,
    compile: Histogram,
}

/// Query-attributed storage counters accumulated across every query the
/// instance has run (the instance-lifetime integral of
/// [`StorageProfile`]).
#[derive(Debug, Default)]
struct StorageTotals {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    inverted_elements_read: AtomicU64,
    toccurrence_candidates: AtomicU64,
    primary_lookups: AtomicU64,
    lsm_components_searched: AtomicU64,
    postings_cache_hits: AtomicU64,
    postings_cache_misses: AtomicU64,
    bitparallel_ed_calls: AtomicU64,
    gallop_probes: AtomicU64,
    scancount_fallbacks: AtomicU64,
}

impl StorageTotals {
    fn accumulate(&self, p: &StorageProfile) {
        self.cache_hits.fetch_add(p.cache_hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(p.cache_misses, Ordering::Relaxed);
        self.cache_evictions.fetch_add(p.cache_evictions, Ordering::Relaxed);
        self.inverted_elements_read
            .fetch_add(p.inverted_elements_read, Ordering::Relaxed);
        self.toccurrence_candidates
            .fetch_add(p.toccurrence_candidates, Ordering::Relaxed);
        self.primary_lookups.fetch_add(p.primary_lookups, Ordering::Relaxed);
        self.lsm_components_searched
            .fetch_add(p.lsm_components_searched, Ordering::Relaxed);
        self.postings_cache_hits
            .fetch_add(p.postings_cache_hits, Ordering::Relaxed);
        self.postings_cache_misses
            .fetch_add(p.postings_cache_misses, Ordering::Relaxed);
        self.bitparallel_ed_calls
            .fetch_add(p.bitparallel_ed_calls, Ordering::Relaxed);
        self.gallop_probes.fetch_add(p.gallop_probes, Ordering::Relaxed);
        self.scancount_fallbacks
            .fetch_add(p.scancount_fallbacks, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StorageProfile {
        StorageProfile {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            inverted_elements_read: self.inverted_elements_read.load(Ordering::Relaxed),
            toccurrence_candidates: self.toccurrence_candidates.load(Ordering::Relaxed),
            primary_lookups: self.primary_lookups.load(Ordering::Relaxed),
            lsm_components_searched: self.lsm_components_searched.load(Ordering::Relaxed),
            postings_cache_hits: self.postings_cache_hits.load(Ordering::Relaxed),
            postings_cache_misses: self.postings_cache_misses.load(Ordering::Relaxed),
            bitparallel_ed_calls: self.bitparallel_ed_calls.load(Ordering::Relaxed),
            gallop_probes: self.gallop_probes.load(Ordering::Relaxed),
            scancount_fallbacks: self.scancount_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// One captured slow query: everything needed to understand it after the
/// fact — the text, class, timings, full plan, full profile, and the
/// span tree.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Monotone capture sequence number (never reset).
    pub seq: u64,
    /// The instance-wide query id — the same key used by the
    /// running-query registry, scheduler admission records, and
    /// [`crate::QueryResult::query_id`], so a slow-log entry correlates
    /// with every other observability surface.
    pub query_id: u64,
    /// The AQL text (or a builder-query placeholder).
    pub query: String,
    /// Workload class the query was recorded under.
    pub class: QueryClass,
    /// Parse + translate + optimize + job generation time.
    pub compile_time: Duration,
    /// Parallel execution wall time.
    pub execution_time: Duration,
    /// Result rows returned.
    pub rows: u64,
    /// Pretty-printed optimized logical plan.
    pub plan: String,
    /// Full per-operator + storage profile captured for this query.
    pub profile: QueryProfile,
    /// Phase spans (admission, execute, ...) captured for this query.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug, Default)]
struct SlowLog {
    entries: std::collections::VecDeque<SlowQuery>,
    captured: u64,
}

/// The instance-wide metrics registry. One per [`crate::Instance`],
/// shared with the query path via `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    slow_query_threshold: Duration,
    slow_query_log_capacity: usize,
    classes: [ClassMetrics; 3],
    compile_errors: AtomicU64,
    /// Execution-time histogram per physical operator name, fed from
    /// per-partition wall times after each query.
    op_exec: Mutex<HashMap<&'static str, Arc<Histogram>>>,
    /// Per-partition operator instance counts and busy time.
    partition_op_runs: Vec<AtomicU64>,
    partition_busy_us: Vec<AtomicU64>,
    storage: StorageTotals,
    events: Arc<LsmEventLog>,
    slow: Mutex<SlowLog>,
}

impl Telemetry {
    /// A fresh registry for an instance with `partitions` partitions.
    pub fn new(cfg: &TelemetryConfig, partitions: usize) -> Telemetry {
        Telemetry {
            started: Instant::now(),
            slow_query_threshold: cfg.slow_query_threshold,
            slow_query_log_capacity: cfg.slow_query_log_capacity.max(1),
            classes: Default::default(),
            compile_errors: AtomicU64::new(0),
            op_exec: Mutex::new(HashMap::new()),
            partition_op_runs: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            partition_busy_us: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            storage: StorageTotals::default(),
            events: Arc::new(LsmEventLog::new(cfg.event_log_capacity)),
            slow: Mutex::new(SlowLog::default()),
        }
    }

    /// The shared LSM lifecycle event ring (installed into
    /// `StorageConfig::events` so every tree reports here).
    pub fn event_log(&self) -> &Arc<LsmEventLog> {
        &self.events
    }

    /// The instance-wide slow-query capture threshold.
    pub fn slow_query_threshold(&self) -> Duration {
        self.slow_query_threshold
    }

    /// Record one finished (or failed) query's class, outcome, timings,
    /// and row count. Latency lands in the histogram for every outcome,
    /// so histogram totals equal the number of executed queries.
    pub fn record_query(
        &self,
        class: QueryClass,
        outcome: QueryOutcome,
        compile_time: Duration,
        execution_time: Duration,
        rows: u64,
    ) {
        let m = &self.classes[class.slot()];
        match outcome {
            QueryOutcome::Completed => m.completed.fetch_add(1, Ordering::Relaxed),
            QueryOutcome::Failed => m.failed.fetch_add(1, Ordering::Relaxed),
            QueryOutcome::Timeout => m.timeouts.fetch_add(1, Ordering::Relaxed),
            QueryOutcome::Cancelled => m.cancelled.fetch_add(1, Ordering::Relaxed),
        };
        m.rows_returned.fetch_add(rows, Ordering::Relaxed);
        m.latency.record(execution_time);
        m.compile.record(compile_time);
    }

    /// A query that failed before a plan existed (parse/translate/jobgen
    /// errors have no class).
    pub fn record_compile_error(&self) {
        self.compile_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one job's executor stats into the per-operator histograms and
    /// per-partition busy counters.
    pub fn record_job(&self, stats: &JobStats) {
        for op in stats.per_op.values() {
            let hist = {
                let mut map = self.op_exec.lock();
                map.entry(op.name).or_default().clone()
            };
            for (partition, elapsed) in &op.partition_times {
                hist.record(*elapsed);
                if let Some(slot) = self.partition_op_runs.get(*partition) {
                    slot.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(slot) = self.partition_busy_us.get(*partition) {
                    slot.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Fold one query's attributed storage counters into the totals.
    pub fn record_storage(&self, profile: &StorageProfile) {
        self.storage.accumulate(profile);
    }

    /// Capture a slow query (newest `slow_query_log_capacity` retained).
    #[allow(clippy::too_many_arguments)]
    pub fn record_slow(
        &self,
        query_id: u64,
        query: &str,
        class: QueryClass,
        compile_time: Duration,
        execution_time: Duration,
        rows: u64,
        plan: String,
        profile: QueryProfile,
        spans: Vec<SpanRecord>,
    ) {
        let mut log = self.slow.lock();
        let seq = log.captured;
        log.captured += 1;
        if log.entries.len() == self.slow_query_log_capacity {
            log.entries.pop_front();
        }
        log.entries.push_back(SlowQuery {
            seq,
            query_id,
            query: query.to_string(),
            class,
            compile_time,
            execution_time,
            rows,
            plan,
            profile,
            spans,
        });
    }

    /// The retained slow-query captures, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().entries.iter().cloned().collect()
    }

    /// Total slow queries ever captured (including evicted entries).
    pub fn slow_queries_captured(&self) -> u64 {
        self.slow.lock().captured
    }

    /// Assemble an immutable snapshot; `gauges` carries the live
    /// instance state (buffer cache, LSM components) sampled by the
    /// caller.
    pub fn snapshot(&self, gauges: InstanceGauges) -> MetricsSnapshot {
        let classes = QueryClass::ALL
            .iter()
            .map(|class| {
                let m = &self.classes[class.slot()];
                ClassSnapshot {
                    class: *class,
                    completed: m.completed.load(Ordering::Relaxed),
                    failed: m.failed.load(Ordering::Relaxed),
                    timeouts: m.timeouts.load(Ordering::Relaxed),
                    cancelled: m.cancelled.load(Ordering::Relaxed),
                    rows_returned: m.rows_returned.load(Ordering::Relaxed),
                    latency: m.latency.snapshot(),
                    compile: m.compile.snapshot(),
                }
            })
            .collect();
        let mut operators: Vec<(String, HistogramSnapshot)> = self
            .op_exec
            .lock()
            .iter()
            .map(|(name, h)| (name.to_string(), h.snapshot()))
            .collect();
        operators.sort_by(|a, b| a.0.cmp(&b.0));
        let partitions = self
            .partition_op_runs
            .iter()
            .zip(&self.partition_busy_us)
            .map(|(runs, busy)| PartitionSnapshot {
                op_runs: runs.load(Ordering::Relaxed),
                busy_us: busy.load(Ordering::Relaxed),
            })
            .collect();
        let slow = self.slow.lock();
        MetricsSnapshot {
            uptime_us: self.started.elapsed().as_micros() as u64,
            classes,
            compile_errors: self.compile_errors.load(Ordering::Relaxed),
            operators,
            partitions,
            storage: self.storage.snapshot(),
            gauges,
            events_capacity: self.events.capacity() as u64,
            events_recorded: self.events.total_recorded(),
            events_dropped: self.events.dropped(),
            events: self.events.snapshot(),
            slow_query_threshold_us: self.slow_query_threshold.as_micros() as u64,
            slow_captured: slow.captured,
            slow_queries: slow.entries.iter().cloned().collect(),
        }
    }
}

/// Live instance gauges sampled at snapshot time (not accumulated in the
/// registry — they are properties of current state, not of history).
#[derive(Clone, Debug, Default)]
pub struct InstanceGauges {
    /// Global buffer-cache counters across all partitions.
    pub buffer_cache: CacheStats,
    /// Instance-lifetime flushes across every LSM tree.
    pub lsm_flushes: u64,
    /// Instance-lifetime merges across every LSM tree.
    pub lsm_merges: u64,
    /// Per-dataset LSM component/size gauges.
    pub datasets: Vec<DatasetGauges>,
    /// Scheduler + admission-controller state.
    pub scheduler: crate::scheduler::SchedulerSnapshot,
    /// WAL/fsync/recovery counters; all-zero with `enabled == false` on
    /// in-memory instances.
    pub durability: crate::durability::DurabilityGauges,
    /// Compiled-plan cache hits since instance start.
    pub plan_cache_hits: u64,
    /// Compiled-plan cache misses since instance start.
    pub plan_cache_misses: u64,
}

/// LSM gauges of one dataset's indexes.
#[derive(Clone, Debug)]
pub struct DatasetGauges {
    /// Dataset name.
    pub dataset: String,
    /// One gauge per index (primary first).
    pub indexes: Vec<IndexGauge>,
}

/// Disk-component count and byte size of one index, aggregated over
/// partitions.
#[derive(Clone, Debug)]
pub struct IndexGauge {
    /// Index name (`"primary"` for the primary index).
    pub name: String,
    /// Disk components across all partitions.
    pub components: u64,
    /// Total byte size across all partitions.
    pub size_bytes: u64,
}

/// Per-class counters + histograms at snapshot time.
#[derive(Clone, Debug)]
pub struct ClassSnapshot {
    /// The workload class these counters describe.
    pub class: QueryClass,
    /// Queries of this class that completed successfully.
    pub completed: u64,
    /// Queries of this class that stopped with an error.
    pub failed: u64,
    /// Queries of this class whose deadline expired (executing or queued).
    pub timeouts: u64,
    /// Queries of this class cancelled from outside.
    pub cancelled: u64,
    /// Rows returned by completed queries of this class.
    pub rows_returned: u64,
    /// End-to-end execution-time distribution (every outcome).
    pub latency: HistogramSnapshot,
    /// Compile-time distribution.
    pub compile: HistogramSnapshot,
}

impl ClassSnapshot {
    /// All queries of this class regardless of outcome. Always equals
    /// `latency.count`.
    pub fn total(&self) -> u64 {
        self.completed + self.failed + self.timeouts + self.cancelled
    }
}

/// Work done by one partition across the instance lifetime.
#[derive(Clone, Debug)]
pub struct PartitionSnapshot {
    /// Operator instances executed on this partition.
    pub op_runs: u64,
    /// Total busy time of those instances, in microseconds.
    pub busy_us: u64,
}

/// Everything `Instance::metrics_snapshot` exports, as a typed value.
/// The JSON and Prometheus renderings both walk [`METRICS`], so they can
/// never disagree about content.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Microseconds since the instance started.
    pub uptime_us: u64,
    /// Per-class counters and latency/compile histograms.
    pub classes: Vec<ClassSnapshot>,
    /// Queries rejected before execution (parse/translate/schema errors).
    pub compile_errors: u64,
    /// Execution-time histogram per physical operator name.
    pub operators: Vec<(String, HistogramSnapshot)>,
    /// Per-partition lifetime work gauges.
    pub partitions: Vec<PartitionSnapshot>,
    /// Accumulated query-attributed storage counters.
    pub storage: StorageProfile,
    /// Live instance gauges sampled at snapshot time.
    pub gauges: InstanceGauges,
    /// LSM event ring capacity.
    pub events_capacity: u64,
    /// LSM events recorded since startup (including dropped ones).
    pub events_recorded: u64,
    /// LSM events dropped because the ring was full.
    pub events_dropped: u64,
    /// The retained tail of the LSM event ring.
    pub events: Vec<LsmEvent>,
    /// The slow-query capture threshold, in microseconds.
    pub slow_query_threshold_us: u64,
    /// Slow queries captured since startup (including evicted ones).
    pub slow_captured: u64,
    /// The retained slow-query log, oldest first.
    pub slow_queries: Vec<SlowQuery>,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn span_to_json(s: &SpanRecord) -> Value {
    Value::record(vec![
        ("id".into(), Value::Int64(s.id as i64)),
        (
            "parent".into(),
            s.parent.map_or(Value::Null, |p| Value::Int64(p as i64)),
        ),
        ("name".into(), Value::from(s.name)),
        (
            "partition".into(),
            s.partition.map_or(Value::Null, |p| Value::Int64(p as i64)),
        ),
        ("start_us".into(), Value::Int64(s.start_us as i64)),
        ("duration_us".into(), Value::Int64(s.duration_us as i64)),
    ])
}

/// Render a span tree as Chrome trace-event JSON (the format Perfetto
/// and `chrome://tracing` load). Each span becomes one complete event
/// (`"ph": "X"`): `ts`/`dur` come straight from the span's
/// microsecond clock, `pid` is the query's instance-wide id (so traces
/// of different queries stay separate when concatenated), and `tid`
/// groups spans by operator partition — phase spans (query, admission,
/// execute) sit on track 0, partition `p`'s operator spans on track
/// `p + 1`. Span ids and parent links ride along in `args` for tools
/// that want the exact tree.
pub fn chrome_trace_json(query_id: u64, spans: &[SpanRecord]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("span_id".into(), Value::Int64(s.id as i64))];
            if let Some(parent) = s.parent {
                args.push(("parent".into(), Value::Int64(parent as i64)));
            }
            if let Some(p) = s.partition {
                args.push(("partition".into(), Value::Int64(p as i64)));
            }
            Value::record(vec![
                ("name".into(), Value::from(s.name)),
                ("cat".into(), Value::from("query")),
                ("ph".into(), Value::from("X")),
                ("ts".into(), Value::Int64(s.start_us as i64)),
                ("dur".into(), Value::Int64(s.duration_us as i64)),
                ("pid".into(), Value::Int64(query_id as i64)),
                (
                    "tid".into(),
                    Value::Int64(s.partition.map_or(0, |p| p as i64 + 1)),
                ),
                ("args".into(), Value::record(args)),
            ])
        })
        .collect();
    asterix_adm::json::to_string(&Value::record(vec![
        ("traceEvents".into(), Value::OrderedList(events)),
        ("displayTimeUnit".into(), Value::from("ms")),
    ]))
}

fn event_to_json(e: &LsmEvent) -> Value {
    Value::record(vec![
        ("seq".into(), Value::Int64(e.seq as i64)),
        ("at_us".into(), Value::Int64(e.at_us as i64)),
        ("tree".into(), Value::from(&*e.tree)),
        ("kind".into(), Value::from(e.kind.name())),
        ("bytes".into(), Value::Int64(e.bytes as i64)),
        ("components".into(), Value::Int64(e.components as i64)),
        (
            "detail".into(),
            e.detail.as_deref().map_or(Value::Null, Value::from),
        ),
    ])
}

fn slow_query_to_json(s: &SlowQuery) -> Value {
    Value::record(vec![
        ("seq".into(), Value::Int64(s.seq as i64)),
        ("query_id".into(), Value::Int64(s.query_id as i64)),
        ("query".into(), Value::from(s.query.as_str())),
        ("class".into(), Value::from(s.class.name())),
        (
            "compile_us".into(),
            Value::Int64(s.compile_time.as_micros() as i64),
        ),
        (
            "execution_us".into(),
            Value::Int64(s.execution_time.as_micros() as i64),
        ),
        ("rows".into(), Value::Int64(s.rows as i64)),
        ("plan".into(), Value::from(s.plan.as_str())),
        ("profile".into(), s.profile.to_json()),
        (
            "spans".into(),
            Value::OrderedList(s.spans.iter().map(span_to_json).collect()),
        ),
    ])
}

fn admission_to_json(a: &crate::scheduler::AdmissionRecord) -> Value {
    Value::record(vec![
        ("query_id".into(), Value::Int64(a.query_id as i64)),
        ("class".into(), Value::from(a.class.name())),
        ("queue_wait_us".into(), Value::Int64(a.queue_wait_us as i64)),
    ])
}

/// How a catalogue family reads in Prometheus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Only grows while the instance runs.
    Counter,
    /// A level sampled at snapshot time.
    Gauge,
    /// A [`HistogramSnapshot`]: its full record in JSON; p50/p95/p99
    /// quantile series plus `_sum` and `_count` in Prometheus.
    Summary,
    /// A [`HistogramSnapshot`] exported to Prometheus as `_sum` and
    /// `_count` only (one series pair per label set, no quantiles).
    SumCount,
}

impl MetricKind {
    /// The family's Prometheus `# TYPE`.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary | MetricKind::SumCount => "summary",
        }
    }
}

/// One row of the metric catalogue: a metric family, under one name in
/// the JSON snapshot and one in Prometheus.
pub struct MetricFamily {
    /// Where the family sits in the JSON snapshot, as a dotted path.
    /// `<label>` inside a key stands for a label value
    /// (`queries_by_class.<class>.completed`); `list[field]` is a list of
    /// records, one per label value, which each record keeps in `field`
    /// (`operators[name].exec_us`). Placeholders take the labels in order.
    pub json: &'static str,
    /// The Prometheus family name followed by its label names, if any
    /// (`asterix_queries_total{class,outcome}`).
    pub prom: &'static str,
    /// Counter, gauge or summary.
    pub kind: MetricKind,
    /// The `# HELP` text.
    pub help: &'static str,
    read: Reader,
}

impl MetricFamily {
    /// The Prometheus family name, without its label names.
    pub fn name(&self) -> &'static str {
        self.prom.split('{').next().unwrap_or(self.prom)
    }

    /// The Prometheus label names, one per placeholder of `json`.
    pub fn labels(&self) -> impl Iterator<Item = &'static str> {
        let list = self.prom.split_once('{').map_or("", |(_, l)| l);
        list.trim_end_matches('}').split(',').filter(|l| !l.is_empty())
    }
}

/// Reads one family's samples out of a snapshot.
type Reader = for<'a> fn(&'a MetricsSnapshot) -> Vec<Sample<'a>>;

/// One sample of a family: its label values, in label order, and its value.
struct Sample<'a> {
    keys: Vec<Key>,
    value: Reading<'a>,
}

/// A label value: the JSON key (or list-record id) it files a sample
/// under, and its Prometheus spelling where that differs.
struct Key {
    json: Value,
    prom: Option<&'static str>,
}

impl Key {
    /// The label value as a JSON record key.
    fn name(&self) -> String {
        match self.json.as_str() {
            Some(s) => s.to_string(),
            None => asterix_adm::json::to_string(&self.json),
        }
    }

    fn prom(&self) -> String {
        self.prom.map_or_else(|| self.name(), str::to_string)
    }
}

fn key(v: impl Into<Value>) -> Key {
    Key { json: v.into(), prom: None }
}

enum Reading<'a> {
    Count(u64),
    Ratio(f64),
    Flag(bool),
    Hist(&'a HistogramSnapshot),
}

impl From<u64> for Reading<'_> {
    fn from(v: u64) -> Self {
        Reading::Count(v)
    }
}

impl From<f64> for Reading<'_> {
    fn from(v: f64) -> Self {
        Reading::Ratio(v)
    }
}

impl From<bool> for Reading<'_> {
    fn from(v: bool) -> Self {
        Reading::Flag(v)
    }
}

impl<'a> From<&'a HistogramSnapshot> for Reading<'a> {
    fn from(h: &'a HistogramSnapshot) -> Self {
        Reading::Hist(h)
    }
}

impl Reading<'_> {
    fn to_json(&self) -> Value {
        match self {
            Reading::Count(v) => Value::Int64(*v as i64),
            Reading::Ratio(v) => Value::double(*v),
            Reading::Flag(v) => Value::Boolean(*v),
            Reading::Hist(h) => h.to_json(),
        }
    }
}

fn one<'a>(v: impl Into<Reading<'a>>) -> Vec<Sample<'a>> {
    vec![Sample { keys: Vec::new(), value: v.into() }]
}

fn per_class<'a, R: Into<Reading<'a>>>(
    m: &'a MetricsSnapshot,
    f: impl Fn(&'a ClassSnapshot) -> R,
) -> Vec<Sample<'a>> {
    let sample = |c: &'a ClassSnapshot| Sample {
        keys: vec![key(c.class.name())],
        value: f(c).into(),
    };
    m.classes.iter().map(sample).collect()
}

fn per_partition(m: &MetricsSnapshot, f: fn(&PartitionSnapshot) -> u64) -> Vec<Sample<'_>> {
    let sample = |(p, s)| Sample { keys: vec![key(p as i64)], value: f(s).into() };
    m.partitions.iter().enumerate().map(sample).collect()
}

fn per_index(m: &MetricsSnapshot, f: fn(&IndexGauge) -> u64) -> Vec<Sample<'_>> {
    let datasets = m.gauges.datasets.iter();
    let indexes = datasets.flat_map(|d| d.indexes.iter().map(move |i| (d, i)));
    let sample = |(d, i): (&DatasetGauges, &IndexGauge)| Sample {
        keys: vec![key(d.dataset.as_str()), key(i.name.as_str())],
        value: f(i).into(),
    };
    indexes.map(sample).collect()
}

fn per_operator(m: &MetricsSnapshot) -> Vec<Sample<'_>> {
    let ops = m.operators.iter();
    ops.map(|(op, h)| Sample { keys: vec![key(op.as_str())], value: h.into() }).collect()
}

fn outcomes(m: &MetricsSnapshot) -> Vec<Sample<'_>> {
    let mut out = Vec::new();
    for c in &m.classes {
        for (json, prom, v) in [
            ("completed", None, c.completed),
            ("failed", None, c.failed),
            ("timeouts", Some("timeout"), c.timeouts),
            ("cancelled", None, c.cancelled),
        ] {
            let keys = vec![key(c.class.name()), Key { json: json.into(), prom }];
            out.push(Sample { keys, value: v.into() });
        }
    }
    out
}

fn rejections(m: &MetricsSnapshot) -> Vec<Sample<'_>> {
    let s = &m.gauges.scheduler;
    let reasons = [
        ("queue_full", Some("queue-full"), s.rejected_queue_full),
        ("timeout", None, s.rejected_timeout),
    ];
    let sample = |(json, prom, v): (&str, _, u64)| Sample {
        keys: vec![Key { json: json.into(), prom }],
        value: v.into(),
    };
    reasons.into_iter().map(sample).collect()
}

const fn family(
    kind: MetricKind,
    json: &'static str,
    prom: &'static str,
    read: Reader,
    help: &'static str,
) -> MetricFamily {
    MetricFamily { json, prom, kind, help, read }
}

use MetricKind::{Counter, Gauge, SumCount, Summary};

/// The metric catalogue: every instance-wide metric, once. Rows are in
/// Prometheus exposition order; `to_json` files each under its path.
/// The slow-query entries, the LSM event ring and the recent admissions
/// are records rather than metrics and are rendered beside it.
#[rustfmt::skip]
pub static METRICS: &[MetricFamily] = &[
    family(Counter, "uptime_us", "asterix_uptime_us", |m| one(m.uptime_us),
        "Microseconds since the instance started."),
    family(Counter, "queries_by_class.<class>.<outcome>", "asterix_queries_total{class,outcome}",
        outcomes,
        "Queries by workload class and outcome."),
    family(Counter, "compile_errors", "asterix_compile_errors_total", |m| one(m.compile_errors),
        "Queries rejected before execution (parse/translate/schema errors)."),
    family(Counter, "queries_by_class.<class>.rows_returned",
        "asterix_query_rows_returned_total{class}", |m| per_class(m, |c| c.rows_returned),
        "Rows returned by completed queries, by workload class."),
    family(Summary, "queries_by_class.<class>.latency_us", "asterix_query_latency_us{class}",
        |m| per_class(m, |c| &c.latency),
        "End-to-end query execution time by workload class, in microseconds."),
    family(Summary, "queries_by_class.<class>.compile_us", "asterix_query_compile_us{class}",
        |m| per_class(m, |c| &c.compile),
        "Query compile time by workload class, in microseconds."),
    family(SumCount, "operators[name].exec_us", "asterix_operator_exec_us{op}",
        per_operator,
        "Per-partition operator execution time by physical operator, in microseconds."),
    family(Counter, "partitions[partition].busy_us", "asterix_partition_busy_us{partition}",
        |m| per_partition(m, |p| p.busy_us),
        "Total operator busy time per partition, in microseconds."),
    family(Counter, "partitions[partition].op_runs", "asterix_partition_op_runs_total{partition}",
        |m| per_partition(m, |p| p.op_runs),
        "Operator instances executed per partition."),
    family(Counter, "storage.buffer_cache.hits", "asterix_buffer_cache_hits_total",
        |m| one(m.gauges.buffer_cache.hits),
        "Buffer-cache page hits across all partitions."),
    family(Counter, "storage.buffer_cache.misses", "asterix_buffer_cache_misses_total",
        |m| one(m.gauges.buffer_cache.misses),
        "Buffer-cache page misses across all partitions."),
    family(Counter, "storage.buffer_cache.evictions", "asterix_buffer_cache_evictions_total",
        |m| one(m.gauges.buffer_cache.evictions),
        "Buffer-cache page evictions across all partitions."),
    family(Gauge, "storage.buffer_cache.hit_ratio", "asterix_buffer_cache_hit_ratio",
        |m| one(ratio(m.gauges.buffer_cache.hits, m.gauges.buffer_cache.misses)),
        "Buffer-cache hit ratio in [0, 1]."),
    family(Counter, "storage.postings_cache.hits", "asterix_postings_cache_hits_total",
        |m| one(m.storage.postings_cache_hits),
        "Inverted-index postings cache hits."),
    family(Counter, "storage.postings_cache.misses", "asterix_postings_cache_misses_total",
        |m| one(m.storage.postings_cache_misses),
        "Inverted-index postings cache misses."),
    family(Gauge, "storage.postings_cache.hit_ratio", "asterix_postings_cache_hit_ratio",
        |m| one(ratio(m.storage.postings_cache_hits, m.storage.postings_cache_misses)),
        "Inverted-index postings cache hit ratio in [0, 1]."),
    family(Counter, "storage.index_funnel.inverted_elements_read",
        "asterix_inverted_elements_read_total", |m| one(m.storage.inverted_elements_read),
        "Elements read from inverted lists (postings scanned)."),
    family(Counter, "storage.index_funnel.toccurrence_candidates",
        "asterix_toccurrence_candidates_total", |m| one(m.storage.toccurrence_candidates),
        "Candidates emitted by T-occurrence searches."),
    family(Counter, "storage.index_funnel.primary_lookups", "asterix_primary_lookups_total",
        |m| one(m.storage.primary_lookups),
        "Primary-index point lookups of index-search candidates."),
    family(Counter, "storage.index_funnel.lsm_components_searched",
        "asterix_lsm_components_searched_total", |m| one(m.storage.lsm_components_searched),
        "LSM disk components consulted across all point lookups."),
    family(Counter, "storage.kernels.bitparallel_ed_calls", "asterix_bitparallel_ed_calls_total",
        |m| one(m.storage.bitparallel_ed_calls),
        "Myers bit-parallel edit-distance kernel invocations."),
    family(Counter, "storage.kernels.gallop_probes", "asterix_gallop_probes_total",
        |m| one(m.storage.gallop_probes),
        "Galloping-search probes in T-occurrence posting intersection."),
    family(Counter, "storage.kernels.scancount_fallbacks", "asterix_scancount_fallbacks_total",
        |m| one(m.storage.scancount_fallbacks),
        "T-occurrence merges that fell back to scan-count."),
    family(Counter, "plan_cache.hits", "asterix_plan_cache_hits_total",
        |m| one(m.gauges.plan_cache_hits),
        "Compiled-plan cache hits."),
    family(Counter, "plan_cache.misses", "asterix_plan_cache_misses_total",
        |m| one(m.gauges.plan_cache_misses),
        "Compiled-plan cache misses."),
    family(Gauge, "plan_cache.hit_ratio", "asterix_plan_cache_hit_ratio",
        |m| one(ratio(m.gauges.plan_cache_hits, m.gauges.plan_cache_misses)),
        "Compiled-plan cache hit ratio in [0, 1]."),
    family(Counter, "lsm.flushes", "asterix_lsm_flushes_total", |m| one(m.gauges.lsm_flushes),
        "LSM memory-component flushes across every tree."),
    family(Counter, "lsm.merges", "asterix_lsm_merges_total", |m| one(m.gauges.lsm_merges),
        "LSM disk-component merges across every tree."),
    family(Gauge, "lsm.datasets[dataset].indexes[name].components",
        "asterix_lsm_components{dataset,index}", |m| per_index(m, |i| i.components),
        "Disk components per index, summed over partitions."),
    family(Gauge, "lsm.datasets[dataset].indexes[name].size_bytes",
        "asterix_index_size_bytes{dataset,index}", |m| per_index(m, |i| i.size_bytes),
        "On-disk byte size per index, summed over partitions."),
    family(Counter, "lsm.events_recorded", "asterix_lsm_events_total", |m| one(m.events_recorded),
        "LSM lifecycle events recorded since startup (including dropped)."),
    family(Counter, "lsm.events_dropped", "asterix_lsm_events_dropped_total",
        |m| one(m.events_dropped),
        "LSM lifecycle events evicted from the full event ring."),
    family(Gauge, "lsm.events_capacity", "asterix_lsm_event_ring_capacity",
        |m| one(m.events_capacity),
        "Events the LSM lifecycle event ring retains."),
    family(Counter, "slow_queries.captured", "asterix_slow_queries_total",
        |m| one(m.slow_captured),
        "Slow queries captured since startup (including evicted)."),
    family(Gauge, "slow_queries.threshold_us", "asterix_slow_query_threshold_us",
        |m| one(m.slow_query_threshold_us),
        "Execution-time threshold for slow-query capture, in microseconds."),
    family(Gauge, "durability.enabled", "asterix_durability_enabled",
        |m| one(m.gauges.durability.enabled),
        "Whether the instance persists to a data directory."),
    family(Counter, "durability.disk_fsyncs", "asterix_disk_fsyncs_total",
        |m| one(m.gauges.durability.disk_fsyncs),
        "Component-file fsyncs."),
    family(Counter, "durability.wal_appends", "asterix_wal_appends_total",
        |m| one(m.gauges.durability.wal_appends),
        "Records appended to the write-ahead logs."),
    family(Counter, "durability.wal_bytes", "asterix_wal_bytes_total",
        |m| one(m.gauges.durability.wal_bytes),
        "Bytes appended to the write-ahead logs."),
    family(Counter, "durability.wal_group_commits", "asterix_wal_group_commits_total",
        |m| one(m.gauges.durability.wal_group_commits),
        "WAL group-commit batches flushed."),
    family(Counter, "durability.wal_fsyncs", "asterix_wal_fsyncs_total",
        |m| one(m.gauges.durability.wal_fsyncs),
        "WAL segment fsyncs."),
    family(Gauge, "durability.wal_live_bytes", "asterix_wal_live_bytes",
        |m| one(m.gauges.durability.wal_live_bytes),
        "Bytes currently held in live WAL segments."),
    family(Gauge, "durability.replayed_records", "asterix_recovery_replayed_records",
        |m| one(m.gauges.durability.replayed_records),
        "WAL records replayed by the last startup recovery."),
    family(Gauge, "durability.recovery_us", "asterix_recovery_us",
        |m| one(m.gauges.durability.recovery_us),
        "Wall-clock time of the last startup recovery, in microseconds."),
    family(Gauge, "scheduler.workers", "asterix_scheduler_workers",
        |m| one(m.gauges.scheduler.workers),
        "Configured worker-thread count."),
    family(Gauge, "scheduler.busy_workers", "asterix_scheduler_busy_workers",
        |m| one(m.gauges.scheduler.busy_workers),
        "Workers running a task right now."),
    family(Gauge, "scheduler.pool_queued_tasks", "asterix_scheduler_pool_queued_tasks",
        |m| one(m.gauges.scheduler.pool_queued_tasks),
        "Operator tasks waiting in the worker pool's queue."),
    family(Gauge, "scheduler.utilization", "asterix_scheduler_utilization",
        |m| one(m.gauges.scheduler.utilization()),
        "Fraction of workers busy, in [0, 1]."),
    family(Gauge, "scheduler.max_concurrent_queries", "asterix_scheduler_max_concurrent_queries",
        |m| one(m.gauges.scheduler.max_concurrent_queries),
        "Configured cap on concurrently executing queries."),
    family(Gauge, "scheduler.queue_depth", "asterix_scheduler_queue_depth",
        |m| one(m.gauges.scheduler.queue_depth),
        "Configured admission-queue capacity."),
    family(Gauge, "scheduler.memory_budget_bytes", "asterix_scheduler_memory_budget_bytes",
        |m| one(m.gauges.scheduler.memory_budget_bytes),
        "Configured per-query memory budget, in bytes (0 = unlimited)."),
    family(Gauge, "scheduler.inflight", "asterix_scheduler_inflight_queries",
        |m| one(m.gauges.scheduler.inflight),
        "Queries currently executing under an admission permit."),
    family(Gauge, "scheduler.queued", "asterix_scheduler_queued_queries",
        |m| one(m.gauges.scheduler.queued),
        "Queries currently waiting for admission."),
    family(Counter, "scheduler.admitted", "asterix_scheduler_admitted_total",
        |m| one(m.gauges.scheduler.admitted),
        "Queries ever admitted."),
    family(Counter, "scheduler.queued_total", "asterix_scheduler_queued_total",
        |m| one(m.gauges.scheduler.queued_total),
        "Queries that waited in the admission queue before their outcome."),
    family(Counter, "scheduler.rejected_<reason>", "asterix_scheduler_rejected_total{reason}",
        rejections,
        "Admission rejections by reason."),
    family(Counter, "scheduler.cancelled_while_queued",
        "asterix_scheduler_cancelled_while_queued_total",
        |m| one(m.gauges.scheduler.cancelled_while_queued),
        "Queued queries cancelled before admission."),
    family(Summary, "scheduler.queue_wait_us", "asterix_scheduler_queue_wait_us",
        |m| one(&m.gauges.scheduler.queue_wait),
        "Admission queue wait time, in microseconds (immediate admits record 0)."),
];

/// File `value` under the catalogue path `path` in the record `root`,
/// filling the path's placeholders with `keys` in order and creating the
/// records and lists on the way. With too few keys it stops at the first
/// placeholder it cannot fill; with no value it sets no leaf.
fn file(root: &mut Value, path: &str, keys: &[Key], value: Option<Value>) {
    let mut keys = keys.iter();
    let mut node = root;
    let mut segments = path.split('.').peekable();
    while let Some(seg) = segments.next() {
        if let Some((list, id)) = seg.strip_suffix(']').and_then(|s| s.split_once('[')) {
            let Value::OrderedList(items) = field_mut(node, list, || Value::OrderedList(Vec::new()))
            else {
                unreachable!("{path}: `{list}` is a list")
            };
            let Some(k) = keys.next() else { return };
            let at = match items.iter().position(|i| i.field(id) == &k.json) {
                Some(at) => at,
                None => {
                    items.push(Value::record(vec![(id.to_string(), k.json.clone())]));
                    items.len() - 1
                }
            };
            node = &mut items[at];
            continue;
        }
        let name = match seg.split_once('<') {
            Some((before, rest)) => {
                let Some(k) = keys.next() else { return };
                let after = rest.split_once('>').map_or("", |(_, a)| a);
                format!("{before}{}{after}", k.name())
            }
            None => seg.to_string(),
        };
        if segments.peek().is_none() {
            if let Some(v) = value {
                *field_mut(node, &name, || Value::Null) = v;
            }
            return;
        }
        node = field_mut(node, &name, || Value::record(Vec::new()));
    }
}

/// The field `name` of the record `node`, inserted with `empty()` (in
/// key order, as `Value::record` keeps it) when absent.
fn field_mut<'v>(node: &'v mut Value, name: &str, empty: fn() -> Value) -> &'v mut Value {
    let Value::Record(fields) = node else {
        unreachable!("catalogue paths descend through records")
    };
    let at = match fields.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
        Ok(at) => at,
        Err(at) => {
            fields.insert(at, (name.to_string(), empty()));
            at
        }
    };
    &mut fields[at].1
}

/// One Prometheus series line.
fn series(out: &mut String, name: &str, labels: &[String], value: impl std::fmt::Display) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{}}} {value}\n", labels.join(",")));
    }
}

impl MetricsSnapshot {
    /// The full snapshot as an ADM record (serialize with
    /// [`asterix_adm::json::to_string`]): every [`METRICS`] family under
    /// its path, plus the slow-query entries, event ring and recent
    /// admissions. Every key is always present — zero values are
    /// emitted, never dropped — so consecutive snapshots are diffable
    /// field-by-field.
    pub fn to_json(&self) -> Value {
        let mut root = Value::record(Vec::new());
        for family in METRICS {
            // Creates the containers even when there is no sample yet
            // (`operators` before the first query).
            file(&mut root, family.json, &[], None);
            for s in (family.read)(self) {
                file(&mut root, family.json, &s.keys, Some(s.value.to_json()));
            }
        }
        let admissions = &self.gauges.scheduler.recent_admissions;
        for (path, items) in [
            ("scheduler.recent_admissions", admissions.iter().map(admission_to_json).collect()),
            ("lsm.event_ring", self.events.iter().map(event_to_json).collect()),
            ("slow_queries.entries", self.slow_queries.iter().map(slow_query_to_json).collect()),
        ] {
            file(&mut root, path, &[], Some(Value::OrderedList(items)));
        }
        root
    }

    /// Prometheus text exposition of every [`METRICS`] family: a
    /// `# HELP` line immediately before each `# TYPE`, then the series.
    /// Class, operator, partition, dataset and index names become labels
    /// (escaped per the exposition format).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for family in METRICS {
            let (name, kind) = (family.name(), family.kind.name());
            out.push_str(&format!("# HELP {name} {}\n# TYPE {name} {kind}\n", family.help));
            for s in (family.read)(self) {
                let labels: Vec<String> = family
                    .labels()
                    .zip(&s.keys)
                    .map(|(l, k)| format!("{l}=\"{}\"", prom_escape_label(&k.prom())))
                    .collect();
                match s.value {
                    Reading::Hist(h) => {
                        if family.kind == Summary {
                            for q in [0.5, 0.95, 0.99] {
                                let mut with_q = labels.clone();
                                with_q.push(format!("quantile=\"{q}\""));
                                series(&mut out, name, &with_q, h.percentile_us(q));
                            }
                        }
                        series(&mut out, &format!("{name}_sum"), &labels, h.sum);
                        series(&mut out, &format!("{name}_count"), &labels, h.count);
                    }
                    Reading::Count(v) => series(&mut out, name, &labels, v),
                    Reading::Ratio(v) => series(&mut out, name, &labels, v),
                    Reading::Flag(v) => series(&mut out, name, &labels, u8::from(v)),
                }
            }
        }
        out
    }
}

/// Escape a Prometheus label value per the text exposition format:
/// backslash, double quote, and newline must be backslash-escaped.
pub(crate) fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_ordered_and_bounded() {
        let h = Histogram::default();
        for us in [0u64, 1, 3, 7, 100, 1000, 1000, 1500, 80_000, 2_000_000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        let (p50, p95, p99) = (
            s.percentile_us(0.50),
            s.percentile_us(0.95),
            s.percentile_us(0.99),
        );
        assert!(p50 <= p95, "{p50} > {p95}");
        assert!(p95 <= p99, "{p95} > {p99}");
        assert!(p99 <= s.max);
        assert_eq!(s.max, 2_000_000);
        // The median of that set is ~550us, which lands in [512, 1024).
        assert!((100..=1023).contains(&p50), "{p50}");
    }

    #[test]
    fn histogram_empty_and_single() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.percentile_us(0.5), 0);
        assert_eq!(s.percentile_us(0.99), 0);
        let h = Histogram::default();
        h.record_us(42);
        let s = h.snapshot();
        // One sample: every quantile reports its bucket edge clamped to
        // the observed max — i.e. exactly 42.
        assert_eq!(s.percentile_us(0.5), 42);
        assert_eq!(s.percentile_us(0.99), 42);
    }

    #[test]
    fn histogram_overflow_bucket_clamps() {
        let h = Histogram::default();
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.percentile_us(0.5), u64::MAX);
    }

    #[test]
    fn classify_by_rewrites() {
        let mut plan = PlanInfo::default();
        assert_eq!(QueryClass::classify(&plan), QueryClass::Scan);
        plan.rewrites = vec![("introduce-index-for-selection", 1)];
        assert_eq!(QueryClass::classify(&plan), QueryClass::IndexSelect);
        plan.rewrites = vec![
            ("introduce-index-for-selection", 1),
            ("introduce-index-nested-loop-join", 1),
        ];
        assert_eq!(QueryClass::classify(&plan), QueryClass::IndexJoin);
    }

    /// The value at catalogue path `path` in `v`, following the first
    /// key that matches each `<label>` and the first record of each
    /// list. An empty list resolves to the list itself.
    fn resolve<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
        let mut node = v;
        for seg in path.split('.') {
            if let Some((list, _)) = seg.split_once('[') {
                let items = node.field(list).as_list()?;
                match items.first() {
                    Some(first) => node = first,
                    None => return Some(node.field(list)),
                }
            } else if let Some((before, rest)) = seg.split_once('<') {
                let after = rest.split_once('>').map_or("", |(_, a)| a);
                let Value::Record(fields) = node else { return None };
                let (_, next) = fields
                    .iter()
                    .find(|(k, _)| k.starts_with(before) && k.ends_with(after))?;
                node = next;
            } else {
                node = node.field(seg);
            }
        }
        (node != &Value::Missing).then_some(node)
    }

    #[test]
    fn snapshot_emits_every_key_when_zero() {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        let json = t.snapshot(InstanceGauges::default()).to_json();
        for family in METRICS {
            assert!(
                resolve(&json, family.json).is_some(),
                "zero snapshot JSON has no {}: {}",
                family.json,
                asterix_adm::json::to_string(&json)
            );
        }
        for records in ["scheduler.recent_admissions", "lsm.event_ring", "slow_queries.entries"] {
            assert!(json.field_path(records).as_list().is_some(), "no list {records}");
        }
        let classes = json.field("queries_by_class");
        for class in QueryClass::ALL {
            for key in ["completed", "failed", "timeouts", "cancelled", "compile_us"] {
                assert!(classes.field(class.name()).field(key) != &Value::Missing);
            }
        }
        assert!(json.field_path("scheduler.rejected_queue_full").as_i64() == Some(0));
        assert!(json.field_path("scheduler.rejected_timeout").as_i64() == Some(0));
    }

    #[test]
    fn catalogue_names_each_path_and_family_once() {
        let mut paths: Vec<&str> = METRICS.iter().map(|f| f.json).collect();
        let mut families: Vec<&str> = METRICS.iter().map(|f| f.name()).collect();
        for names in [&mut paths, &mut families] {
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "a name appears twice: {names:?}");
        }
        for family in METRICS {
            assert!(family.name().starts_with("asterix_"), "{}", family.prom);
            let placeholders = family.json.matches(['<', '[']).count();
            assert_eq!(placeholders, family.labels().count(), "{}", family.json);
        }
    }

    /// Every family of a populated snapshot lands at its JSON path, and
    /// its first sample's value there is the one Prometheus reports.
    #[test]
    fn json_and_prometheus_agree_on_every_family() {
        let m = populated_snapshot();
        let json = m.to_json();
        let prom = m.to_prometheus();
        for family in METRICS {
            let at = resolve(&json, family.json)
                .unwrap_or_else(|| panic!("no JSON value at {}", family.json));
            assert!(prom.contains(&format!("# TYPE {} ", family.name())));
            let (value, suffix) = match at {
                Value::Int64(v) => (v.to_string(), ""),
                Value::Double(v) => (v.0.to_string(), ""),
                Value::Boolean(b) => (u8::from(*b).to_string(), ""),
                hist => (hist.field("count").as_i64().unwrap().to_string(), "_count"),
            };
            let series = format!("{}{suffix}", family.name());
            assert!(
                prom.lines().any(|l| l.starts_with(&series)
                    && l[series.len()..].starts_with(['{', ' '])
                    && l.ends_with(&format!(" {value}"))),
                "{}: no series {series} reads {value}",
                family.json
            );
        }
    }

    #[test]
    fn prometheus_rendering_has_class_series() {
        let t = Telemetry::new(&TelemetryConfig::default(), 1);
        t.record_query(
            QueryClass::IndexSelect,
            QueryOutcome::Completed,
            Duration::from_micros(200),
            Duration::from_micros(900),
            4,
        );
        let text = t.snapshot(InstanceGauges::default()).to_prometheus();
        assert!(text
            .contains("asterix_queries_total{class=\"index-select\",outcome=\"completed\"} 1"));
        assert!(text.contains("asterix_query_latency_us{class=\"index-select\",quantile=\"0.5\"}"));
        assert!(text.contains("asterix_query_latency_us_count{class=\"index-select\"} 1"));
        // Zero-valued series are still present.
        assert!(text.contains("asterix_queries_total{class=\"scan\",outcome=\"completed\"} 0"));
    }

    /// A populated snapshot to run the conformance checks against:
    /// nonzero class counters, operator histograms, partitions, and a
    /// dataset gauge so every family emits at least one sample.
    fn populated_snapshot() -> MetricsSnapshot {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        t.record_query(
            QueryClass::Scan,
            QueryOutcome::Completed,
            Duration::from_micros(100),
            Duration::from_micros(500),
            3,
        );
        let gauges = InstanceGauges {
            buffer_cache: CacheStats { hits: 5, misses: 3, evictions: 1 },
            datasets: vec![DatasetGauges {
                dataset: "ARevs".into(),
                indexes: vec![IndexGauge {
                    name: "primary".into(),
                    components: 2,
                    size_bytes: 4096,
                }],
            }],
            durability: crate::durability::DurabilityGauges {
                enabled: true,
                wal_bytes: 123,
                ..Default::default()
            },
            plan_cache_hits: 2,
            ..InstanceGauges::default()
        };
        let mut m = t.snapshot(gauges);
        let exec = Histogram::default();
        exec.record_us(40);
        m.operators = vec![("data-scan".into(), exec.snapshot())];
        m
    }

    fn populated_prometheus() -> String {
        populated_snapshot().to_prometheus()
    }

    #[test]
    fn prometheus_every_type_has_help_and_no_duplicate_families() {
        let text = populated_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let mut families = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                let kind = rest.split_whitespace().nth(1).unwrap();
                assert!(
                    ["counter", "gauge", "summary"].contains(&kind),
                    "unknown family kind in {line:?}"
                );
                // HELP immediately precedes its TYPE.
                let help = lines
                    .get(i.wrapping_sub(1))
                    .and_then(|l| l.strip_prefix("# HELP "))
                    .unwrap_or_else(|| panic!("no # HELP before {line:?}"));
                assert_eq!(
                    help.split_whitespace().next(),
                    Some(name),
                    "# HELP names a different family than {line:?}"
                );
                families.push(name);
            }
        }
        assert!(!families.is_empty());
        let mut deduped = families.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(
            deduped.len(),
            families.len(),
            "duplicate metric family declared: {families:?}"
        );
    }

    #[test]
    fn prometheus_every_sample_belongs_to_a_declared_family() {
        let text = populated_prometheus();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|r| r.split_whitespace().next())
            .collect();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line
                .split(['{', ' '])
                .next()
                .expect("sample line has a metric name");
            let base = name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                families.contains(&name) || families.contains(&base),
                "sample {line:?} has no # TYPE declaration"
            );
            // Sample lines end in a numeric value.
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "sample {line:?} has non-numeric value {value:?}"
            );
        }
    }

    #[test]
    fn prometheus_escapes_label_values() {
        assert_eq!(prom_escape_label("plain"), "plain");
        assert_eq!(prom_escape_label("a\"b"), "a\\\"b");
        assert_eq!(prom_escape_label("a\\b"), "a\\\\b");
        assert_eq!(prom_escape_label("a\nb"), "a\\nb");

        // A hostile dataset name survives as one well-formed line.
        let t = Telemetry::new(&TelemetryConfig::default(), 1);
        let gauges = InstanceGauges {
            datasets: vec![DatasetGauges {
                dataset: "we\"ird\\ds\n".into(),
                indexes: vec![IndexGauge {
                    name: "primary".into(),
                    components: 1,
                    size_bytes: 10,
                }],
            }],
            ..InstanceGauges::default()
        };
        let text = t.snapshot(gauges).to_prometheus();
        assert!(text.contains("dataset=\"we\\\"ird\\\\ds\\n\""), "{text}");
        // No raw newline leaked into the middle of a sample line.
        for line in text.lines() {
            assert!(!line.starts_with('#') || line.starts_with("# "));
        }
    }

    #[test]
    fn prometheus_covers_every_snapshot_section() {
        let text = populated_prometheus();
        // Each top-level key of `metrics_snapshot()` has at least one
        // corresponding family in the Prometheus rendering.
        for (json_key, family) in [
            ("uptime_us", "asterix_uptime_us"),
            ("queries_by_class", "asterix_queries_total"),
            ("compile_errors", "asterix_compile_errors_total"),
            ("operators", "asterix_operator_exec_us"),
            ("partitions", "asterix_partition_busy_us"),
            ("scheduler", "asterix_scheduler_workers"),
            ("storage", "asterix_postings_cache_hits_total"),
            ("plan_cache", "asterix_plan_cache_hits_total"),
            ("lsm", "asterix_lsm_flushes_total"),
            ("durability", "asterix_durability_enabled"),
            ("slow_queries", "asterix_slow_queries_total"),
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "snapshot key {json_key} has no Prometheus family {family}"
            );
        }
        assert!(text.contains("# TYPE asterix_slow_query_threshold_us gauge"));
    }

    #[test]
    fn slow_log_is_bounded_and_keeps_newest() {
        let cfg = TelemetryConfig {
            slow_query_log_capacity: 2,
            ..TelemetryConfig::default()
        };
        let t = Telemetry::new(&cfg, 1);
        let profile = QueryProfile {
            query_id: 0,
            operators: Vec::new(),
            cache: Default::default(),
            index_search: Default::default(),
            kernels: Default::default(),
            lsm: Default::default(),
            rule_trace: Vec::new(),
            compile_time: Duration::ZERO,
            execution_time: Duration::ZERO,
        };
        for i in 0..5 {
            t.record_slow(
                i,
                &format!("q{i}"),
                QueryClass::Scan,
                Duration::ZERO,
                Duration::from_millis(i),
                0,
                String::new(),
                profile.clone(),
                Vec::new(),
            );
        }
        let entries = t.slow_queries();
        assert_eq!(entries.len(), 2);
        assert_eq!(t.slow_queries_captured(), 5);
        assert_eq!(entries[0].query, "q3");
        assert_eq!(entries[1].query, "q4");
        assert_eq!(entries[1].seq, 4);
        assert_eq!(entries[1].query_id, 4, "query_id must ride along");
    }
}
