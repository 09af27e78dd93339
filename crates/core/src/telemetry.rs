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

/// The instance-wide metrics registry. One per [`crate::Instance`] (when
/// telemetry is enabled), shared with the query path via `Arc`.
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
            enabled: true,
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

/// Everything `Instance::metrics_snapshot` exports, as a typed value so
/// the JSON and Prometheus renderings can never disagree about content.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// False on instances created with telemetry disabled (all zeros).
    pub enabled: bool,
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
        ("generation".into(), Value::Int64(e.generation as i64)),
        (
            "detail".into(),
            e.detail.as_deref().map_or(Value::Null, Value::from),
        ),
    ])
}

impl MetricsSnapshot {
    /// The snapshot of a telemetry-disabled instance.
    pub fn disabled() -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: false,
            uptime_us: 0,
            classes: Vec::new(),
            compile_errors: 0,
            operators: Vec::new(),
            partitions: Vec::new(),
            storage: StorageProfile::default(),
            gauges: InstanceGauges::default(),
            events_capacity: 0,
            events_recorded: 0,
            events_dropped: 0,
            events: Vec::new(),
            slow_query_threshold_us: 0,
            slow_captured: 0,
            slow_queries: Vec::new(),
        }
    }

    /// The full snapshot as an ADM record (serialize with
    /// [`asterix_adm::json::to_string`]). Every key is always present —
    /// zero values are emitted, never dropped — so consecutive snapshots
    /// are diffable field-by-field.
    pub fn to_json(&self) -> Value {
        if !self.enabled {
            return Value::record(vec![("telemetry_enabled".into(), Value::Boolean(false))]);
        }
        let classes = Value::record(
            self.classes
                .iter()
                .map(|c| {
                    (
                        c.class.name().to_string(),
                        Value::record(vec![
                            ("completed".into(), Value::Int64(c.completed as i64)),
                            ("failed".into(), Value::Int64(c.failed as i64)),
                            ("timeouts".into(), Value::Int64(c.timeouts as i64)),
                            ("cancelled".into(), Value::Int64(c.cancelled as i64)),
                            ("rows_returned".into(), Value::Int64(c.rows_returned as i64)),
                            ("latency_us".into(), c.latency.to_json()),
                            ("compile_us".into(), c.compile.to_json()),
                        ]),
                    )
                })
                .collect(),
        );
        let operators = Value::OrderedList(
            self.operators
                .iter()
                .map(|(name, h)| {
                    Value::record(vec![
                        ("name".into(), Value::from(name.as_str())),
                        ("exec_us".into(), h.to_json()),
                    ])
                })
                .collect(),
        );
        let partitions = Value::OrderedList(
            self.partitions
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    Value::record(vec![
                        ("partition".into(), Value::Int64(p as i64)),
                        ("op_runs".into(), Value::Int64(s.op_runs as i64)),
                        ("busy_us".into(), Value::Int64(s.busy_us as i64)),
                    ])
                })
                .collect(),
        );
        let storage = Value::record(vec![
            (
                "buffer_cache".into(),
                Value::record(vec![
                    ("hits".into(), Value::Int64(self.gauges.buffer_cache.hits as i64)),
                    (
                        "misses".into(),
                        Value::Int64(self.gauges.buffer_cache.misses as i64),
                    ),
                    (
                        "evictions".into(),
                        Value::Int64(self.gauges.buffer_cache.evictions as i64),
                    ),
                    (
                        "hit_ratio".into(),
                        Value::double(ratio(
                            self.gauges.buffer_cache.hits,
                            self.gauges.buffer_cache.misses,
                        )),
                    ),
                ]),
            ),
            (
                "postings_cache".into(),
                Value::record(vec![
                    (
                        "hits".into(),
                        Value::Int64(self.storage.postings_cache_hits as i64),
                    ),
                    (
                        "misses".into(),
                        Value::Int64(self.storage.postings_cache_misses as i64),
                    ),
                    (
                        "hit_ratio".into(),
                        Value::double(ratio(
                            self.storage.postings_cache_hits,
                            self.storage.postings_cache_misses,
                        )),
                    ),
                ]),
            ),
            (
                "index_funnel".into(),
                Value::record(vec![
                    (
                        "inverted_elements_read".into(),
                        Value::Int64(self.storage.inverted_elements_read as i64),
                    ),
                    (
                        "toccurrence_candidates".into(),
                        Value::Int64(self.storage.toccurrence_candidates as i64),
                    ),
                    (
                        "primary_lookups".into(),
                        Value::Int64(self.storage.primary_lookups as i64),
                    ),
                    (
                        "lsm_components_searched".into(),
                        Value::Int64(self.storage.lsm_components_searched as i64),
                    ),
                ]),
            ),
            (
                "kernels".into(),
                Value::record(vec![
                    (
                        "bitparallel_ed_calls".into(),
                        Value::Int64(self.storage.bitparallel_ed_calls as i64),
                    ),
                    (
                        "gallop_probes".into(),
                        Value::Int64(self.storage.gallop_probes as i64),
                    ),
                    (
                        "scancount_fallbacks".into(),
                        Value::Int64(self.storage.scancount_fallbacks as i64),
                    ),
                ]),
            ),
        ]);
        let plan_cache = Value::record(vec![
            (
                "hits".into(),
                Value::Int64(self.gauges.plan_cache_hits as i64),
            ),
            (
                "misses".into(),
                Value::Int64(self.gauges.plan_cache_misses as i64),
            ),
            (
                "hit_ratio".into(),
                Value::double(ratio(
                    self.gauges.plan_cache_hits,
                    self.gauges.plan_cache_misses,
                )),
            ),
        ]);
        let datasets = Value::OrderedList(
            self.gauges
                .datasets
                .iter()
                .map(|d| {
                    Value::record(vec![
                        ("dataset".into(), Value::from(d.dataset.as_str())),
                        (
                            "indexes".into(),
                            Value::OrderedList(
                                d.indexes
                                    .iter()
                                    .map(|i| {
                                        Value::record(vec![
                                            ("name".into(), Value::from(i.name.as_str())),
                                            (
                                                "components".into(),
                                                Value::Int64(i.components as i64),
                                            ),
                                            (
                                                "size_bytes".into(),
                                                Value::Int64(i.size_bytes as i64),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let lsm = Value::record(vec![
            ("flushes".into(), Value::Int64(self.gauges.lsm_flushes as i64)),
            ("merges".into(), Value::Int64(self.gauges.lsm_merges as i64)),
            ("datasets".into(), datasets),
            (
                "events_capacity".into(),
                Value::Int64(self.events_capacity as i64),
            ),
            (
                "events_recorded".into(),
                Value::Int64(self.events_recorded as i64),
            ),
            (
                "events_dropped".into(),
                Value::Int64(self.events_dropped as i64),
            ),
            (
                "event_ring".into(),
                Value::OrderedList(self.events.iter().map(event_to_json).collect()),
            ),
        ]);
        let slow = Value::record(vec![
            (
                "threshold_us".into(),
                Value::Int64(self.slow_query_threshold_us as i64),
            ),
            ("captured".into(), Value::Int64(self.slow_captured as i64)),
            (
                "entries".into(),
                Value::OrderedList(
                    self.slow_queries
                        .iter()
                        .map(|s| {
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
                        })
                        .collect(),
                ),
            ),
        ]);
        let sched = &self.gauges.scheduler;
        let scheduler = Value::record(vec![
            ("enabled".into(), Value::Boolean(sched.enabled)),
            ("workers".into(), Value::Int64(sched.workers as i64)),
            (
                "busy_workers".into(),
                Value::Int64(sched.busy_workers as i64),
            ),
            (
                "pool_queued_tasks".into(),
                Value::Int64(sched.pool_queued_tasks as i64),
            ),
            ("utilization".into(), Value::double(sched.utilization())),
            (
                "max_concurrent_queries".into(),
                Value::Int64(sched.max_concurrent_queries as i64),
            ),
            ("queue_depth".into(), Value::Int64(sched.queue_depth as i64)),
            (
                "memory_budget_bytes".into(),
                Value::Int64(sched.memory_budget_bytes as i64),
            ),
            ("inflight".into(), Value::Int64(sched.inflight as i64)),
            ("queued".into(), Value::Int64(sched.queued as i64)),
            ("admitted".into(), Value::Int64(sched.admitted as i64)),
            (
                "queued_total".into(),
                Value::Int64(sched.queued_total as i64),
            ),
            (
                "rejected_queue_full".into(),
                Value::Int64(sched.rejected_queue_full as i64),
            ),
            (
                "rejected_timeout".into(),
                Value::Int64(sched.rejected_timeout as i64),
            ),
            (
                "cancelled_while_queued".into(),
                Value::Int64(sched.cancelled_while_queued as i64),
            ),
            ("queue_wait_us".into(), sched.queue_wait.to_json()),
            (
                "recent_admissions".into(),
                Value::OrderedList(
                    sched
                        .recent_admissions
                        .iter()
                        .map(|a| {
                            Value::record(vec![
                                ("query_id".into(), Value::Int64(a.query_id as i64)),
                                ("class".into(), Value::from(a.class.name())),
                                (
                                    "queue_wait_us".into(),
                                    Value::Int64(a.queue_wait_us as i64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let dur = &self.gauges.durability;
        let durability = Value::record(vec![
            ("enabled".into(), Value::Boolean(dur.enabled)),
            (
                "disk_fsyncs".into(),
                Value::Int64(dur.disk_fsyncs as i64),
            ),
            ("wal_appends".into(), Value::Int64(dur.wal_appends as i64)),
            ("wal_bytes".into(), Value::Int64(dur.wal_bytes as i64)),
            (
                "wal_group_commits".into(),
                Value::Int64(dur.wal_group_commits as i64),
            ),
            ("wal_fsyncs".into(), Value::Int64(dur.wal_fsyncs as i64)),
            (
                "wal_live_bytes".into(),
                Value::Int64(dur.wal_live_bytes as i64),
            ),
            (
                "replayed_records".into(),
                Value::Int64(dur.replayed_records as i64),
            ),
            ("recovery_us".into(), Value::Int64(dur.recovery_us as i64)),
        ]);
        Value::record(vec![
            ("telemetry_enabled".into(), Value::Boolean(true)),
            ("uptime_us".into(), Value::Int64(self.uptime_us as i64)),
            ("queries_by_class".into(), classes),
            (
                "compile_errors".into(),
                Value::Int64(self.compile_errors as i64),
            ),
            ("operators".into(), operators),
            ("partitions".into(), partitions),
            ("scheduler".into(), scheduler),
            ("storage".into(), storage),
            ("plan_cache".into(), plan_cache),
            ("lsm".into(), lsm),
            ("durability".into(), durability),
            ("slow_queries".into(), slow),
        ])
    }

    /// Prometheus text exposition (counters and summary quantiles; one
    /// metric family per line group). Class, operator, dataset, and index
    /// names become labels (escaped per the exposition format). Every
    /// family carries a `# HELP` line immediately before its `# TYPE`.
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::default();
        w.scalar(
            "asterix_telemetry_enabled",
            "gauge",
            "Whether the telemetry registry is active (0 = all other series absent).",
            if self.enabled { 1 } else { 0 },
        );
        if !self.enabled {
            return w.out;
        }
        w.scalar(
            "asterix_uptime_us",
            "counter",
            "Microseconds since the instance started.",
            self.uptime_us,
        );
        w.family(
            "asterix_queries_total",
            "counter",
            "Queries by workload class and outcome.",
        );
        for c in &self.classes {
            let name = c.class.name();
            for (outcome, v) in [
                ("completed", c.completed),
                ("failed", c.failed),
                ("timeout", c.timeouts),
                ("cancelled", c.cancelled),
            ] {
                w.sample(format!(
                    "asterix_queries_total{{class=\"{}\",outcome=\"{outcome}\"}} {v}",
                    prom_escape_label(name)
                ));
            }
        }
        w.scalar(
            "asterix_compile_errors_total",
            "counter",
            "Queries rejected before execution (parse/translate/schema errors).",
            self.compile_errors,
        );
        w.family(
            "asterix_query_rows_returned_total",
            "counter",
            "Rows returned by completed queries, by workload class.",
        );
        for c in &self.classes {
            w.sample(format!(
                "asterix_query_rows_returned_total{{class=\"{}\"}} {}",
                prom_escape_label(c.class.name()),
                c.rows_returned
            ));
        }
        w.family(
            "asterix_query_latency_us",
            "summary",
            "End-to-end query execution time by workload class, in microseconds.",
        );
        for c in &self.classes {
            let name = prom_escape_label(c.class.name());
            for q in [0.5, 0.95, 0.99] {
                w.sample(format!(
                    "asterix_query_latency_us{{class=\"{name}\",quantile=\"{q}\"}} {}",
                    c.latency.percentile_us(q)
                ));
            }
            w.sample(format!(
                "asterix_query_latency_us_sum{{class=\"{name}\"}} {}",
                c.latency.sum
            ));
            w.sample(format!(
                "asterix_query_latency_us_count{{class=\"{name}\"}} {}",
                c.latency.count
            ));
        }
        w.family(
            "asterix_operator_exec_us",
            "summary",
            "Per-partition operator execution time by physical operator, in microseconds.",
        );
        for (op, h) in &self.operators {
            let op = prom_escape_label(op);
            w.sample(format!("asterix_operator_exec_us_sum{{op=\"{op}\"}} {}", h.sum));
            w.sample(format!(
                "asterix_operator_exec_us_count{{op=\"{op}\"}} {}",
                h.count
            ));
        }
        w.family(
            "asterix_partition_busy_us",
            "counter",
            "Total operator busy time per partition, in microseconds.",
        );
        for (p, s) in self.partitions.iter().enumerate() {
            w.sample(format!(
                "asterix_partition_busy_us{{partition=\"{p}\"}} {}",
                s.busy_us
            ));
        }
        w.scalar(
            "asterix_buffer_cache_hits_total",
            "counter",
            "Buffer-cache page hits across all partitions.",
            self.gauges.buffer_cache.hits,
        );
        w.scalar(
            "asterix_buffer_cache_misses_total",
            "counter",
            "Buffer-cache page misses across all partitions.",
            self.gauges.buffer_cache.misses,
        );
        w.scalar(
            "asterix_buffer_cache_hit_ratio",
            "gauge",
            "Buffer-cache hit ratio in [0, 1].",
            ratio(self.gauges.buffer_cache.hits, self.gauges.buffer_cache.misses),
        );
        w.scalar(
            "asterix_postings_cache_hits_total",
            "counter",
            "Inverted-index postings cache hits.",
            self.storage.postings_cache_hits,
        );
        w.scalar(
            "asterix_postings_cache_misses_total",
            "counter",
            "Inverted-index postings cache misses.",
            self.storage.postings_cache_misses,
        );
        w.scalar(
            "asterix_bitparallel_ed_calls_total",
            "counter",
            "Myers bit-parallel edit-distance kernel invocations.",
            self.storage.bitparallel_ed_calls,
        );
        w.scalar(
            "asterix_gallop_probes_total",
            "counter",
            "Galloping-search probes in T-occurrence posting intersection.",
            self.storage.gallop_probes,
        );
        w.scalar(
            "asterix_scancount_fallbacks_total",
            "counter",
            "T-occurrence merges that fell back to scan-count.",
            self.storage.scancount_fallbacks,
        );
        w.scalar(
            "asterix_plan_cache_hits_total",
            "counter",
            "Compiled-plan cache hits.",
            self.gauges.plan_cache_hits,
        );
        w.scalar(
            "asterix_plan_cache_misses_total",
            "counter",
            "Compiled-plan cache misses.",
            self.gauges.plan_cache_misses,
        );
        w.scalar(
            "asterix_lsm_flushes_total",
            "counter",
            "LSM memory-component flushes across every tree.",
            self.gauges.lsm_flushes,
        );
        w.scalar(
            "asterix_lsm_merges_total",
            "counter",
            "LSM disk-component merges across every tree.",
            self.gauges.lsm_merges,
        );
        w.family(
            "asterix_lsm_components",
            "gauge",
            "Disk components per index, summed over partitions.",
        );
        for d in &self.gauges.datasets {
            for i in &d.indexes {
                w.sample(format!(
                    "asterix_lsm_components{{dataset=\"{}\",index=\"{}\"}} {}",
                    prom_escape_label(&d.dataset),
                    prom_escape_label(&i.name),
                    i.components
                ));
            }
        }
        w.family(
            "asterix_index_size_bytes",
            "gauge",
            "On-disk byte size per index, summed over partitions.",
        );
        for d in &self.gauges.datasets {
            for i in &d.indexes {
                w.sample(format!(
                    "asterix_index_size_bytes{{dataset=\"{}\",index=\"{}\"}} {}",
                    prom_escape_label(&d.dataset),
                    prom_escape_label(&i.name),
                    i.size_bytes
                ));
            }
        }
        w.scalar(
            "asterix_lsm_events_total",
            "counter",
            "LSM lifecycle events recorded since startup (including dropped).",
            self.events_recorded,
        );
        w.scalar(
            "asterix_slow_queries_total",
            "counter",
            "Slow queries captured since startup (including evicted).",
            self.slow_captured,
        );
        w.scalar(
            "asterix_slow_query_threshold_us",
            "gauge",
            "Execution-time threshold for slow-query capture, in microseconds.",
            self.slow_query_threshold_us,
        );
        let dur = &self.gauges.durability;
        w.scalar(
            "asterix_durability_enabled",
            "gauge",
            "Whether the instance persists to a data directory.",
            if dur.enabled { 1 } else { 0 },
        );
        w.scalar(
            "asterix_disk_fsyncs_total",
            "counter",
            "Component-file fsyncs.",
            dur.disk_fsyncs,
        );
        w.scalar(
            "asterix_wal_appends_total",
            "counter",
            "Records appended to the write-ahead logs.",
            dur.wal_appends,
        );
        w.scalar(
            "asterix_wal_bytes_total",
            "counter",
            "Bytes appended to the write-ahead logs.",
            dur.wal_bytes,
        );
        w.scalar(
            "asterix_wal_group_commits_total",
            "counter",
            "WAL group-commit batches flushed.",
            dur.wal_group_commits,
        );
        w.scalar(
            "asterix_wal_fsyncs_total",
            "counter",
            "WAL segment fsyncs.",
            dur.wal_fsyncs,
        );
        w.scalar(
            "asterix_wal_live_bytes",
            "gauge",
            "Bytes currently held in live WAL segments.",
            dur.wal_live_bytes,
        );
        w.scalar(
            "asterix_recovery_replayed_records",
            "gauge",
            "WAL records replayed by the last startup recovery.",
            dur.replayed_records,
        );
        w.scalar(
            "asterix_recovery_us",
            "gauge",
            "Wall-clock time of the last startup recovery, in microseconds.",
            dur.recovery_us,
        );
        let sched = &self.gauges.scheduler;
        w.scalar(
            "asterix_scheduler_enabled",
            "gauge",
            "Whether an admission controller + worker pool is active.",
            if sched.enabled { 1 } else { 0 },
        );
        w.scalar(
            "asterix_scheduler_workers",
            "gauge",
            "Configured worker-thread count.",
            sched.workers,
        );
        w.scalar(
            "asterix_scheduler_busy_workers",
            "gauge",
            "Workers running a task right now.",
            sched.busy_workers,
        );
        w.scalar(
            "asterix_scheduler_utilization",
            "gauge",
            "Fraction of workers busy, in [0, 1].",
            sched.utilization(),
        );
        w.scalar(
            "asterix_scheduler_inflight_queries",
            "gauge",
            "Queries currently executing under an admission permit.",
            sched.inflight,
        );
        w.scalar(
            "asterix_scheduler_queued_queries",
            "gauge",
            "Queries currently waiting for admission.",
            sched.queued,
        );
        w.scalar(
            "asterix_scheduler_admitted_total",
            "counter",
            "Queries ever admitted.",
            sched.admitted,
        );
        w.scalar(
            "asterix_scheduler_queued_total",
            "counter",
            "Queries that waited in the admission queue before their outcome.",
            sched.queued_total,
        );
        w.family(
            "asterix_scheduler_rejected_total",
            "counter",
            "Admission rejections by reason.",
        );
        w.sample(format!(
            "asterix_scheduler_rejected_total{{reason=\"queue-full\"}} {}",
            sched.rejected_queue_full
        ));
        w.sample(format!(
            "asterix_scheduler_rejected_total{{reason=\"timeout\"}} {}",
            sched.rejected_timeout
        ));
        w.scalar(
            "asterix_scheduler_cancelled_while_queued_total",
            "counter",
            "Queued queries cancelled before admission.",
            sched.cancelled_while_queued,
        );
        w.family(
            "asterix_scheduler_queue_wait_us",
            "summary",
            "Admission queue wait time, in microseconds (immediate admits record 0).",
        );
        for q in [0.5, 0.95, 0.99] {
            w.sample(format!(
                "asterix_scheduler_queue_wait_us{{quantile=\"{q}\"}} {}",
                sched.queue_wait.percentile_us(q)
            ));
        }
        w.sample(format!(
            "asterix_scheduler_queue_wait_us_sum {}",
            sched.queue_wait.sum
        ));
        w.sample(format!(
            "asterix_scheduler_queue_wait_us_count {}",
            sched.queue_wait.count
        ));
        w.out
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

/// Accumulates Prometheus text exposition: `family` emits the
/// `# HELP`/`# TYPE` pair (HELP always immediately before TYPE, as
/// conformant scrapers expect), `sample` one series line, and `scalar`
/// a one-sample family in one call.
#[derive(Default)]
struct PromWriter {
    out: String,
}

impl PromWriter {
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    fn sample(&mut self, line: String) {
        self.out.push_str(&line);
        self.out.push('\n');
    }

    fn scalar(&mut self, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
        self.family(name, kind, help);
        self.sample(format!("{name} {value}"));
    }
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

    #[test]
    fn snapshot_emits_every_key_when_zero() {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        let json =
            asterix_adm::json::to_string(&t.snapshot(InstanceGauges::default()).to_json());
        for key in [
            "telemetry_enabled",
            "uptime_us",
            "queries_by_class",
            "\"scan\"",
            "\"index-select\"",
            "\"index-join\"",
            "completed",
            "failed",
            "timeouts",
            "cancelled",
            "latency_us",
            "compile_us",
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "buckets",
            "compile_errors",
            "operators",
            "partitions",
            "scheduler",
            "workers",
            "busy_workers",
            "utilization",
            "max_concurrent_queries",
            "queue_depth",
            "memory_budget_bytes",
            "inflight",
            "admitted",
            "queued_total",
            "rejected_queue_full",
            "rejected_timeout",
            "cancelled_while_queued",
            "queue_wait_us",
            "buffer_cache",
            "postings_cache",
            "hit_ratio",
            "index_funnel",
            "inverted_elements_read",
            "kernels",
            "bitparallel_ed_calls",
            "gallop_probes",
            "scancount_fallbacks",
            "plan_cache",
            "events_recorded",
            "event_ring",
            "durability",
            "disk_fsyncs",
            "wal_appends",
            "wal_group_commits",
            "wal_live_bytes",
            "replayed_records",
            "recovery_us",
            "slow_queries",
            "threshold_us",
        ] {
            assert!(json.contains(key), "snapshot JSON missing key {key}: {json}");
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
        assert!(text.contains("asterix_telemetry_enabled 1"));
        assert!(text
            .contains("asterix_queries_total{class=\"index-select\",outcome=\"completed\"} 1"));
        assert!(text.contains("asterix_query_latency_us{class=\"index-select\",quantile=\"0.5\"}"));
        assert!(text.contains("asterix_query_latency_us_count{class=\"index-select\"} 1"));
        // Zero-valued series are still present.
        assert!(text.contains("asterix_queries_total{class=\"scan\",outcome=\"completed\"} 0"));
    }

    /// A populated exposition to run the conformance checks against:
    /// nonzero class counters, operator histograms, partitions, and a
    /// dataset gauge so every family emits at least one sample.
    fn populated_prometheus() -> String {
        let t = Telemetry::new(&TelemetryConfig::default(), 2);
        t.record_query(
            QueryClass::Scan,
            QueryOutcome::Completed,
            Duration::from_micros(100),
            Duration::from_micros(500),
            3,
        );
        let gauges = InstanceGauges {
            datasets: vec![DatasetGauges {
                dataset: "ARevs".into(),
                indexes: vec![IndexGauge {
                    name: "primary".into(),
                    components: 2,
                    size_bytes: 4096,
                }],
            }],
            ..InstanceGauges::default()
        };
        t.snapshot(gauges).to_prometheus()
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
            ("telemetry_enabled", "asterix_telemetry_enabled"),
            ("uptime_us", "asterix_uptime_us"),
            ("queries_by_class", "asterix_queries_total"),
            ("compile_errors", "asterix_compile_errors_total"),
            ("operators", "asterix_operator_exec_us"),
            ("partitions", "asterix_partition_busy_us"),
            ("scheduler", "asterix_scheduler_enabled"),
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
