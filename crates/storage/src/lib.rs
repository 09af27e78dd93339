//! # asterix-storage
//!
//! The storage substrate of the reproduction (§2.3 of the paper): datasets
//! are stored per-partition as LSM-based B+-trees (the *primary index*),
//! with optional LSM-based secondary indexes — plain B+-trees, `keyword`
//! inverted indexes (for Jaccard), and `ngram(n)` inverted indexes (for
//! edit distance), per §3.3.
//!
//! Disk is simulated by a page store ([`disk`]) with fixed-size pages
//! (128 KB by default, Table 2) fronted by an LRU buffer cache ([`cache`])
//! whose hit/miss counters make the paper's "sort primary keys before the
//! primary-index search to increase the chance of page cache hits" claim
//! (§4.1.1) measurable rather than anecdotal.
//!
//! Layering:
//!
//! * [`disk::Disk`] — page-granular simulated disk with I/O counters,
//! * [`cache::BufferCache`] — shared LRU page cache,
//! * [`component::RunComponent`] — one immutable sorted run serialized to
//!   pages with a sparse first-key-per-page index,
//! * [`lsm::LsmTree`] — mutable memory component + flushed runs + merges,
//! * [`index`] — typed primary / secondary-B+-tree / inverted indexes on
//!   top of [`lsm::LsmTree`] (inverted indexes use composite
//!   `[token, pk]` keys so postings are contiguous ranges),
//! * [`partition::PartitionStore`] — all indexes of one dataset partition,
//!   with the T-occurrence candidate search used by index plans.

#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod component;
pub mod disk;
pub mod events;
pub mod fault;
pub mod index;
pub mod lsm;
pub mod manifest;
pub mod partition;
pub mod profile;
pub mod trace;
pub mod wal;

pub use budget::{BudgetScope, ChargeResult, MemoryBudget};
pub use cache::{BufferCache, CacheStats};
pub use component::{Entry, RunComponent};
pub use disk::{crc32, Disk, FileId};
pub use events::{LsmEvent, LsmEventKind, LsmEventLog};
pub use fault::{crash_point, FaultInjector, FaultRule, IoError, IoErrorKind, IoOp};
pub use index::{index_tokens, InvertedIndex, KeyRange, PrimaryIndex, SecondaryBTreeIndex};
pub use lsm::LsmTree;
pub use manifest::{Manifest, ManifestComponent, ManifestDataset, ManifestIndex};
pub use partition::PartitionStore;
pub use profile::{CounterScope, QueryCounters, StorageProfile};
pub use trace::{SpanGuard, SpanRecord, Trace};
pub use wal::{Wal, WalConfig, WalRecord, WalRecovery};

/// Any error a [`PartitionStore`] operation can produce: a logical ADM
/// error (bad key, unknown index, …) or a device-level I/O fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// A logical ADM error (bad key, unknown index, schema mismatch).
    Adm(asterix_adm::AdmError),
    /// A device-level I/O fault or detected corruption.
    Io(IoError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Adm(e) => write!(f, "{e}"),
            StorageError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<asterix_adm::AdmError> for StorageError {
    fn from(e: asterix_adm::AdmError) -> Self {
        StorageError::Adm(e)
    }
}

impl From<IoError> for StorageError {
    fn from(e: IoError) -> Self {
        StorageError::Io(e)
    }
}

impl StorageError {
    /// True when retrying the operation may succeed (transient I/O fault).
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Io(e) if e.transient)
    }
}

/// Storage configuration (the storage-relevant rows of Table 2).
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// Data page size in bytes (paper: 128 KB).
    pub page_size: usize,
    /// Buffer cache capacity in pages (paper: 2 GB / 128 KB = 16384; we
    /// default far smaller for laptop-scale runs).
    pub buffer_cache_pages: usize,
    /// In-memory component budget per LSM tree in bytes (paper: 1.5 GB per
    /// dataset, shared across its indexes).
    pub mem_component_budget: usize,
    /// Merge all disk components once their count exceeds this.
    pub max_components: usize,
    /// Capacity (distinct tokens) of each inverted index's postings cache.
    /// `0` disables the cache entirely; postings are then re-read from the
    /// LSM tree on every probe.
    pub postings_cache_entries: usize,
    /// Shared sink for LSM lifecycle events (flush/merge/bulk-load
    /// start/end, fault retries). `None` (the default) disables event
    /// recording; an instance with telemetry enabled installs one
    /// [`LsmEventLog`] here so every tree it creates reports into it.
    pub events: Option<std::sync::Arc<LsmEventLog>>,
    /// When set, a merge queues its superseded component files into
    /// [`LsmTree::take_obsolete`] instead of deleting them immediately.
    /// Durable instances set this so obsolete files are reclaimed only
    /// *after* the manifest that stops referencing them is committed —
    /// a crash in between must still find every manifest-referenced
    /// file on disk.
    pub defer_reclaim: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            page_size: 128 * 1024,
            buffer_cache_pages: 256,
            mem_component_budget: 8 * 1024 * 1024,
            max_components: 8,
            postings_cache_entries: 4096,
            events: None,
            defer_reclaim: false,
        }
    }
}

impl StorageConfig {
    /// A tiny configuration that forces frequent flushes and merges —
    /// useful in tests to exercise the multi-component paths.
    pub fn tiny() -> Self {
        StorageConfig {
            page_size: 1024,
            buffer_cache_pages: 8,
            mem_component_budget: 4 * 1024,
            max_components: 3,
            postings_cache_entries: 16,
            events: None,
            defer_reclaim: false,
        }
    }
}
