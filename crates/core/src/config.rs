//! Instance configuration — the reproduction of Table 2.

use asterix_algebricks::OptimizerConfig;
use asterix_hyracks::SchedulerConfig;
use asterix_storage::StorageConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Telemetry knobs. Telemetry is always on: the registry is a handful of
/// atomics per query, the event ring and slow-query log are bounded, and
/// the `e2e` benchmark reports its cost as `trace.overhead_share`.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Queries whose execution time meets or exceeds this are captured
    /// (full plan + profile + spans) into the slow-query log.
    /// Overridable per query via `QueryOptions::slow_query_threshold`.
    pub slow_query_threshold: Duration,
    /// Capacity of the LSM lifecycle event ring buffer.
    pub event_log_capacity: usize,
    /// How many slow-query captures are retained (newest win).
    pub slow_query_log_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            slow_query_threshold: Duration::from_millis(250),
            event_log_capacity: 1024,
            slow_query_log_capacity: 16,
        }
    }
}

/// Durable-storage knobs: where the data lives and how the write-ahead
/// log batches its group commits.
///
/// With `data_dir == None` (the default) the instance is purely
/// in-memory — the seed behaviour, and what every benchmark that measures
/// query latency wants. Setting a data directory turns on the full
/// durability stack: file-backed component pages with CRC32 checksums,
/// a per-partition WAL with group commit, manifests committed by atomic
/// rename, and crash recovery in [`crate::Instance::open`].
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory for all persistent state (one `p<i>/` subdirectory
    /// per partition, each holding component files, a `wal/` directory,
    /// and a `MANIFEST`). `None` ⇒ in-memory, nothing touches disk.
    pub data_dir: Option<PathBuf>,
    /// How long the WAL group-commit flusher waits to batch appenders
    /// before forcing an fsync (latency bound of an acknowledged write).
    pub wal_commit_interval: Duration,
    /// Flush a WAL batch early once this many bytes are pending.
    pub wal_batch_bytes: usize,
    /// Roll the active WAL segment file once it exceeds this size.
    pub wal_segment_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            data_dir: None,
            wal_commit_interval: Duration::from_millis(2),
            wal_batch_bytes: 256 * 1024,
            wal_segment_bytes: 4 * 1024 * 1024,
        }
    }
}

impl DurabilityConfig {
    /// Durability on, rooted at `dir`, with default WAL batching.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: Some(dir.into()),
            ..Self::default()
        }
    }
}

/// Configuration of a simulated cluster instance.
///
/// The paper's cluster (Table 2): 8 nodes × 2 partitions = 16 partitions,
/// 128 KB pages, 2 GB buffer cache, 1.5 GB memory components. The
/// defaults here are laptop-scale but keep the same page size; every knob
/// is adjustable for the scale-out/speed-up experiments (Fig 27).
#[derive(Clone, Debug)]
pub struct InstanceConfig {
    /// Number of data + execution partitions (the paper's 16).
    pub num_partitions: usize,
    /// Storage-layer knobs (page size, caches, LSM budgets).
    pub storage: StorageConfig,
    /// Default optimizer settings (overridable per query).
    pub optimizer: OptimizerConfig,
    /// Telemetry knobs (slow-query threshold, ring capacities).
    pub telemetry: TelemetryConfig,
    /// Query-scheduler knobs: shared worker pool, admission control, and
    /// the per-query memory budget. Every query runs on the pool.
    pub scheduler: SchedulerConfig,
    /// Durable-storage knobs (off by default: in-memory page store, no
    /// WAL, no recovery).
    pub durability: DurabilityConfig,
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig {
            num_partitions: 4,
            storage: StorageConfig::default(),
            optimizer: OptimizerConfig::default(),
            telemetry: TelemetryConfig::default(),
            scheduler: SchedulerConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

impl InstanceConfig {
    /// Default configuration with `n` partitions.
    pub fn with_partitions(n: usize) -> Self {
        InstanceConfig {
            num_partitions: n,
            ..Self::default()
        }
    }

    /// Tiny storage budgets to exercise flush/merge paths in tests.
    pub fn tiny(n: usize) -> Self {
        InstanceConfig {
            num_partitions: n,
            storage: StorageConfig::tiny(),
            ..Self::default()
        }
    }

    /// The Table 2 rows as printable `(parameter, value)` pairs.
    pub fn table2(&self) -> Vec<(String, String)> {
        vec![
            (
                "Simulated partitions (paper: 8 nodes x 2)".into(),
                self.num_partitions.to_string(),
            ),
            (
                "Data page size".into(),
                format!("{} KB", self.storage.page_size / 1024),
            ),
            (
                "Disk buffer cache size".into(),
                format!(
                    "{} KB ({} pages)",
                    self.storage.buffer_cache_pages * self.storage.page_size / 1024,
                    self.storage.buffer_cache_pages
                ),
            ),
            (
                "Budget for in-memory components".into(),
                format!("{} KB", self.storage.mem_component_budget / 1024),
            ),
            (
                "Max disk components before merge".into(),
                self.storage.max_components.to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_page_size() {
        let c = InstanceConfig::default();
        assert_eq!(c.storage.page_size, 128 * 1024);
        assert!(c.num_partitions > 0);
    }

    #[test]
    fn table2_is_printable() {
        let rows = InstanceConfig::default().table2();
        assert!(rows.iter().any(|(k, _)| k.contains("page size")));
        assert_eq!(rows.len(), 5);
    }
}
