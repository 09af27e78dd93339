//! Query results and per-query plan/runtime information.

use asterix_adm::Value;
use asterix_hyracks::JobStats;
use asterix_storage::SpanRecord;
use std::time::Duration;

/// Per-query optimizer overrides (the experiment harness flips these to
/// force specific plans, matching the paper's with/without-index runs).
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// Override the instance's optimizer configuration for this query.
    pub optimizer: Option<asterix_algebricks::OptimizerConfig>,
    /// Wall-clock budget for execution; exceeding it cancels every
    /// operator partition cooperatively and the query returns
    /// [`crate::CoreError::Timeout`].
    pub timeout: Option<Duration>,
    /// Collect a [`crate::QueryProfile`] for this query: per-operator
    /// runtime stats plus storage counters (cache, index search, LSM)
    /// attributed to this query alone, even under concurrency.
    pub profile: bool,
    /// Override the instance's slow-query threshold for this query: if
    /// its execution time meets or exceeds this, the telemetry layer
    /// captures the full plan + profile + spans into the slow-query log.
    /// `None` uses `TelemetryConfig::slow_query_threshold`.
    pub slow_query_threshold: Option<Duration>,
    /// Admit (and record) this query under the given class instead of
    /// the class inferred from its optimized plan. The HTTP endpoint
    /// exposes this so clients can pin which of the scheduler's
    /// per-class fair queues a query waits in.
    pub admission_class: Option<crate::QueryClass>,
}

/// Compile-time information about the chosen plan.
#[derive(Clone, Debug, Default)]
pub struct PlanInfo {
    /// Operator counts of the logical plan before optimization (Fig 15's
    /// left column).
    pub logical_ops_before: Vec<(&'static str, usize)>,
    /// ... and after optimization (Fig 15's right column).
    pub logical_ops_after: Vec<(&'static str, usize)>,
    /// Which rewrite rules fired, with counts.
    pub rewrites: Vec<(&'static str, usize)>,
    /// Pretty-printed optimized logical plan.
    pub explain: String,
    /// Physical operator counts in the generated job.
    pub physical_ops: Vec<(&'static str, usize)>,
}

impl PlanInfo {
    /// Total operator count of the optimized logical plan.
    pub fn total_logical_ops_after(&self) -> usize {
        self.logical_ops_after.iter().map(|(_, n)| n).sum()
    }

    /// Whether the named rewrite rule fired at least once.
    pub fn used_rule(&self, name: &str) -> bool {
        self.rewrites.iter().any(|(r, _)| *r == name)
    }
}

/// The result of one query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The instance-wide monotonic id this query ran under. The same id
    /// keys the running-query registry, the slow-query log, the
    /// scheduler's admission records, and trace exports.
    pub query_id: u64,
    /// Result values (one per row — the `return` expression's value).
    /// Empty for a streaming query ([`crate::Instance::query_streaming`]):
    /// the rows went to the caller's sink as they were produced and
    /// [`QueryResult::streamed_rows`] carries the count.
    pub rows: Vec<Value>,
    /// Rows delivered to the streaming sink. `0` for buffered queries
    /// (their count is `rows.len()`).
    pub streamed_rows: u64,
    /// Per-operator runtime statistics from the executor.
    pub stats: JobStats,
    /// Compile-time information about the chosen plan.
    pub plan: PlanInfo,
    /// Parse + translate + optimize + job generation time.
    pub compile_time: Duration,
    /// Parallel execution wall time.
    pub execution_time: Duration,
    /// Present when the query ran with [`QueryOptions::profile`] set.
    pub profile: Option<crate::QueryProfile>,
    /// The query's span tree (query → admission / execute → one span
    /// per operator partition). Empty for a [`crate::PreparedQuery`] run.
    pub spans: Vec<SpanRecord>,
}

impl QueryResult {
    /// Render this query's span tree as Chrome trace-event JSON — load
    /// the string in Perfetto (ui.perfetto.dev) or `chrome://tracing`
    /// for a flame-style timeline. The query's `query_id` becomes the
    /// trace `pid`; operator spans land on one track per partition.
    /// Empty `spans` render as a valid empty trace.
    pub fn trace_chrome_json(&self) -> String {
        crate::telemetry::chrome_trace_json(self.query_id, &self.spans)
    }

    /// Candidate tuples produced by index searches (Table 6's column C).
    pub fn index_candidates(&self) -> u64 {
        self.stats.total_output_of("secondary-index-search")
    }

    /// Rows as i64s, sorted — convenient in tests against id results.
    pub fn ids(&self) -> Vec<i64> {
        let mut ids: Vec<i64> = self.rows.iter().filter_map(Value::as_i64).collect();
        ids.sort_unstable();
        ids
    }

    /// For a `count(...)` query: the single count value.
    pub fn count(&self) -> Option<i64> {
        match self.rows.as_slice() {
            [v] => v.as_i64(),
            [] => Some(0),
            _ => None,
        }
    }
}
