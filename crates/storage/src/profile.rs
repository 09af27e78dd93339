//! Per-query storage counters (the profiling substrate of §8's metrics).
//!
//! The buffer cache, LSM trees, and indexes are shared between every
//! query running on an instance, so their global counters
//! ([`crate::cache::CacheStats`], [`crate::lsm::LsmTree::num_flushes`])
//! cannot attribute work to one query: two concurrent queries clobber
//! each other the moment one calls `reset_stats()`. This module provides
//! the per-query alternative: a [`QueryCounters`] handle of atomics that
//! the executor *scopes* onto every operator thread of one job
//! ([`QueryCounters::enter`]), so every storage-layer event that happens
//! on those threads — and only those — is attributed to that query.
//!
//! Hook sites (all behind the thread-local, so unprofiled queries pay one
//! TLS read per event):
//!
//! * [`crate::cache::BufferCache::get`] / `get_decoded` — hits, misses,
//!   evictions,
//! * [`crate::index::InvertedIndex::postings_shared`] — inverted-list elements
//!   read (Fig 14's list-scan volume; *cache hits do not re-count* — only
//!   actual LSM scans add here) plus postings-cache hits/misses,
//! * [`crate::index::InvertedIndex::t_occurrence`] — candidates emitted
//!   by the T-occurrence filter (Table 6's column C),
//! * [`crate::index::PrimaryIndex::get`] — primary-index lookups (§4.1.1),
//! * [`crate::lsm::LsmTree::get`] — disk components searched per lookup.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live per-query counters. Create one per profiled query with
/// [`QueryCounters::handle`], scope it onto each worker thread with
/// [`QueryCounters::enter`], and read it afterwards with
/// [`QueryCounters::snapshot`].
#[derive(Debug, Default)]
pub struct QueryCounters {
    /// Buffer-cache page hits.
    pub cache_hits: AtomicU64,
    /// Buffer-cache page misses (disk reads).
    pub cache_misses: AtomicU64,
    /// Pages evicted from the buffer cache.
    pub cache_evictions: AtomicU64,
    /// Inverted-index postings elements scanned.
    pub inverted_elements_read: AtomicU64,
    /// Candidates produced by T-occurrence merging.
    pub toccurrence_candidates: AtomicU64,
    /// Primary-index point lookups performed.
    pub primary_lookups: AtomicU64,
    /// LSM components consulted across all searches.
    pub lsm_components_searched: AtomicU64,
    /// Postings served from the token postings cache.
    pub postings_cache_hits: AtomicU64,
    /// Postings recomputed on a postings-cache miss.
    pub postings_cache_misses: AtomicU64,
    /// Edit-distance checks answered by the Myers bit-parallel kernel.
    pub bitparallel_ed_calls: AtomicU64,
    /// Galloping searches issued by the T-occurrence set intersection.
    pub gallop_probes: AtomicU64,
    /// T-occurrence merges that fell back to the count-based ScanCount
    /// kernel (no full-intersection or skip-based shortcut applied).
    pub scancount_fallbacks: AtomicU64,
}

/// Immutable snapshot of a query's storage counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageProfile {
    /// Buffer-cache page hits attributed to this query.
    pub cache_hits: u64,
    /// Buffer-cache page misses (each one a simulated disk read).
    pub cache_misses: u64,
    /// Pages this query's misses evicted under capacity pressure.
    pub cache_evictions: u64,
    /// Total elements read from inverted lists (postings scanned).
    pub inverted_elements_read: u64,
    /// Candidates emitted by T-occurrence searches (Table 6's column C).
    pub toccurrence_candidates: u64,
    /// Primary-index point lookups (§4.1.1's sorted-pk search).
    pub primary_lookups: u64,
    /// LSM disk components consulted across all point lookups.
    pub lsm_components_searched: u64,
    /// Posting lists served from the per-index postings cache (no LSM
    /// scan, no fresh allocation — a shared `Arc<[Value]>` is handed out).
    pub postings_cache_hits: u64,
    /// Posting lists that had to be read out of the LSM tree and were then
    /// installed into the postings cache.
    pub postings_cache_misses: u64,
    /// Edit-distance checks answered by the Myers bit-parallel kernel
    /// instead of the scalar banded DP.
    pub bitparallel_ed_calls: u64,
    /// Galloping (exponential + binary) searches issued by the adaptive
    /// T-occurrence set intersection.
    pub gallop_probes: u64,
    /// T-occurrence merges that fell back to the count-based ScanCount
    /// kernel.
    pub scancount_fallbacks: u64,
}

impl StorageProfile {
    /// Hits / (hits + misses), 0.0 when no accesses occurred.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl QueryCounters {
    /// A fresh counter handle for one query.
    pub fn handle() -> Arc<QueryCounters> {
        Arc::new(QueryCounters::default())
    }

    /// Install these counters as the current thread's attribution target
    /// until the returned guard drops. Scopes nest: the previous target
    /// (if any) is restored on drop.
    pub fn enter(self: &Arc<Self>) -> CounterScope {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self.clone()));
        CounterScope { prev }
    }

    /// Copy the live counters into an owned snapshot.
    pub fn snapshot(&self) -> StorageProfile {
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

thread_local! {
    static CURRENT: RefCell<Option<Arc<QueryCounters>>> = const { RefCell::new(None) };
}

/// Guard returned by [`QueryCounters::enter`]; restores the previous
/// thread-local attribution target on drop.
pub struct CounterScope {
    prev: Option<Arc<QueryCounters>>,
}

impl Drop for CounterScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Record an event against the current thread's query, if any.
pub(crate) fn record(f: impl FnOnce(&QueryCounters)) {
    CURRENT.with(|c| {
        if let Some(q) = c.borrow().as_ref() {
            f(q);
        }
    });
}

/// Add `n` to a counter of the current query, if any.
pub(crate) fn add(field: fn(&QueryCounters) -> &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    record(|q| {
        field(q).fetch_add(n, Ordering::Relaxed);
    });
}

/// Attribute `n` bit-parallel edit-distance checks to the current query.
/// Public because the verify kernels live in the execution crate, outside
/// the storage layer's `pub(crate)` recording surface.
pub fn record_bitparallel_ed_calls(n: u64) {
    add(|q| &q.bitparallel_ed_calls, n);
}

/// Attribute `n` galloping intersection probes to the current query.
pub fn record_gallop_probes(n: u64) {
    add(|q| &q.gallop_probes, n);
}

/// Attribute `n` ScanCount fallbacks to the current query.
pub fn record_scancount_fallbacks(n: u64) {
    add(|q| &q.scancount_fallbacks, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscoped_records_are_dropped() {
        // Must not panic or leak anywhere.
        add(|q| &q.cache_hits, 3);
    }

    #[test]
    fn scoped_records_attribute_to_the_entered_handle() {
        let a = QueryCounters::handle();
        {
            let _s = a.enter();
            add(|q| &q.cache_hits, 2);
            add(|q| &q.cache_misses, 1);
        }
        // Outside the scope nothing is attributed.
        add(|q| &q.cache_hits, 50);
        let s = a.snapshot();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert!((s.cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = QueryCounters::handle();
        let inner = QueryCounters::handle();
        let _o = outer.enter();
        add(|q| &q.primary_lookups, 1);
        {
            let _i = inner.enter();
            add(|q| &q.primary_lookups, 10);
        }
        add(|q| &q.primary_lookups, 1);
        assert_eq!(outer.snapshot().primary_lookups, 2);
        assert_eq!(inner.snapshot().primary_lookups, 10);
    }

    #[test]
    fn threads_attribute_independently() {
        let a = QueryCounters::handle();
        let b = QueryCounters::handle();
        std::thread::scope(|s| {
            for (h, n) in [(&a, 5u64), (&b, 7u64)] {
                s.spawn(move || {
                    let _g = h.enter();
                    for _ in 0..n {
                        add(|q| &q.cache_hits, 1);
                    }
                });
            }
        });
        assert_eq!(a.snapshot().cache_hits, 5);
        assert_eq!(b.snapshot().cache_hits, 7);
    }
}
