//! The LSM tree: one mutable in-memory component plus a stack of immutable
//! disk components, with flush, merge, bulk load, point lookup, and merged
//! scans.
//!
//! This mirrors AsterixDB's storage described in §2.3 and reference \[2\]: writes go to
//! the memory component; when it exceeds its budget it is flushed to a new
//! disk component; lookups consult components newest-first; scans merge all
//! components with newest-wins semantics; a simple merge policy compacts
//! all disk components into one when their number exceeds a threshold.
//!
//! Failure model: every disk-touching operation returns `Result<_,
//! IoError>`. [`LsmTree::flush`] and [`LsmTree::merge_all`] are
//! failure-atomic — on error the memory component (resp. the old disk
//! components) is left intact and any partially written file is deleted,
//! so a transient fault can simply be retried.

use crate::cache::BufferCache;
use crate::component::{Entry, RunComponent};
use crate::events::LsmEventKind;
use crate::fault::{IoError, IoOp};
use crate::StorageConfig;
use asterix_adm::Value;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One source of a merged scan: fallible `(key, entry)` items.
type EntryStream<'a> = Box<dyn Iterator<Item = Result<(Value, Entry), IoError>> + 'a>;

/// An LSM-based B+-tree over `Value` keys and opaque byte values.
#[derive(Debug)]
pub struct LsmTree {
    mem: BTreeMap<Value, Entry>,
    mem_bytes: usize,
    /// Disk components, newest first.
    disk_components: Vec<RunComponent>,
    cache: Arc<BufferCache>,
    config: StorageConfig,
    /// Lifetime counters for observability.
    flushes: u64,
    merges: u64,
    /// Identity stamped onto lifecycle events (`dataset/p0/<primary>`);
    /// empty until [`LsmTree::set_tag`] is called.
    tag: Arc<str>,
    /// Files superseded by a merge but not yet reclaimed, populated only
    /// when [`StorageConfig::defer_reclaim`] is set: a durable instance
    /// may delete them only *after* the manifest that stops referencing
    /// them has been committed.
    obsolete: Vec<crate::disk::FileId>,
}

impl LsmTree {
    /// Create an empty tree over `cache` with `config`.
    pub fn new(cache: Arc<BufferCache>, config: StorageConfig) -> Self {
        LsmTree {
            mem: BTreeMap::new(),
            mem_bytes: 0,
            disk_components: Vec::new(),
            cache,
            config,
            flushes: 0,
            merges: 0,
            tag: Arc::from(""),
            obsolete: Vec::new(),
        }
    }

    /// Name this tree in lifecycle events (see
    /// [`crate::events::LsmEventLog`]). Conventionally
    /// `dataset/p<partition>/<index>`.
    pub fn set_tag(&mut self, tag: impl Into<Arc<str>>) {
        self.tag = tag.into();
    }

    fn emit(&self, kind: LsmEventKind, bytes: u64) {
        if let Some(log) = &self.config.events {
            log.record(
                &self.tag,
                kind,
                bytes,
                self.disk_components.len() as u64,
                None,
            );
        }
    }

    /// Insert or overwrite. May trigger a flush (and thus fail) when the
    /// memory budget is exceeded; the write itself is already applied.
    pub fn put(&mut self, key: Value, value: Bytes) -> Result<(), IoError> {
        self.mem_bytes += key.heap_size() + value.len() + 16;
        self.mem.insert(key, Entry::Put(value));
        self.maybe_flush()
    }

    /// Delete (tombstone).
    pub fn delete(&mut self, key: Value) -> Result<(), IoError> {
        self.mem_bytes += key.heap_size() + 16;
        self.mem.insert(key, Entry::Tombstone);
        self.maybe_flush()
    }

    /// Point lookup: memory first, then disk components newest-first.
    pub fn get(&self, key: &Value) -> Result<Option<Bytes>, IoError> {
        if let Some(e) = self.mem.get(key) {
            return Ok(e.bytes().cloned());
        }
        for comp in &self.disk_components {
            crate::profile::add(|q| &q.lsm_components_searched, 1);
            if let Some(e) = comp.get(key, &self.cache)? {
                return Ok(e.bytes().cloned());
            }
        }
        Ok(None)
    }

    /// Batched point lookup over a *sorted* (ascending, ideally deduped)
    /// key slice. Semantically equivalent to calling [`LsmTree::get`] per
    /// key, but each disk component is descended in one merged pass: keys
    /// that land on the same page decode that page once instead of once
    /// per key (§4.1.1's sort-the-pks locality, actually exploited).
    ///
    /// Counter semantics differ deliberately from the point path:
    /// `lsm_components_searched` counts one event per component *per
    /// batch pass*, not per key — the merged descent is one search.
    pub fn get_many_sorted(&self, keys: &[Value]) -> Result<Vec<Option<Bytes>>, IoError> {
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        // Outer None = unresolved; Some(None) = resolved to a tombstone.
        let mut out: Vec<Option<Option<Bytes>>> = keys
            .iter()
            .map(|k| self.mem.get(k).map(|e| e.bytes().cloned()))
            .collect();
        for comp in &self.disk_components {
            let pending: Vec<usize> = (0..keys.len()).filter(|i| out[*i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            crate::profile::add(|q| &q.lsm_components_searched, 1);
            let sorted_keys: Vec<&Value> = pending.iter().map(|i| &keys[*i]).collect();
            let found = comp.get_many_sorted(&sorted_keys, &self.cache)?;
            for (slot, entry) in pending.into_iter().zip(found) {
                if let Some(e) = entry {
                    out[slot] = Some(e.bytes().cloned());
                }
            }
        }
        Ok(out.into_iter().map(|r| r.flatten()).collect())
    }

    /// True if the key currently has a live value.
    pub fn contains(&self, key: &Value) -> Result<bool, IoError> {
        Ok(self.get(key)?.is_some())
    }

    /// Merged scan of live entries with key `>= from`, in key order. A
    /// disk fault mid-scan yields one `Err` item and ends the stream.
    pub fn scan_from(
        &self,
        from: Option<&Value>,
    ) -> impl Iterator<Item = Result<(Value, Bytes), IoError>> + '_ {
        let mem_iter: EntryStream<'_> = match from {
            None => Box::new(self.mem.iter().map(|(k, e)| Ok((k.clone(), e.clone())))),
            Some(f) => Box::new(
                self.mem
                    .range(f.clone()..)
                    .map(|(k, e)| Ok((k.clone(), e.clone()))),
            ),
        };
        let mut sources: Vec<EntryStream<'_>> = vec![mem_iter];
        for comp in &self.disk_components {
            sources.push(Box::new(comp.scan_from(from, &self.cache)));
        }
        MergedScan::live(sources)
    }

    /// Full scan of live entries.
    pub fn scan(&self) -> impl Iterator<Item = Result<(Value, Bytes), IoError>> + '_ {
        self.scan_from(None)
    }

    /// Force the memory component to disk. Failure-atomic: on error the
    /// memory component is untouched and no partial file survives, so a
    /// transient fault can be retried by calling `flush` again.
    pub fn flush(&mut self) -> Result<(), IoError> {
        if self.mem.is_empty() {
            return Ok(());
        }
        self.emit(LsmEventKind::FlushStart, self.mem_bytes as u64);
        self.cache.disk().fault_check(IoOp::Flush, None)?;
        let comp = RunComponent::build(
            self.cache.disk(),
            self.config.page_size,
            self.mem.iter().map(|(k, e)| (k.clone(), e.clone())),
        )?;
        // Torture hook: die after the component is sealed but before it
        // is linked in — recovery must treat it as an orphan.
        crate::fault::crash_point("flush.mid");
        let flushed_bytes = comp.byte_size();
        self.mem.clear();
        self.mem_bytes = 0;
        self.disk_components.insert(0, comp);
        self.flushes += 1;
        self.emit(LsmEventKind::FlushEnd, flushed_bytes);
        self.maybe_merge()
    }

    fn maybe_flush(&mut self) -> Result<(), IoError> {
        if self.mem_bytes >= self.config.mem_component_budget {
            self.flush()
        } else {
            Ok(())
        }
    }

    fn maybe_merge(&mut self) -> Result<(), IoError> {
        if self.disk_components.len() > self.config.max_components {
            self.merge_all()
        } else {
            Ok(())
        }
    }

    /// Merge every disk component into one (keeping tombstones out of the
    /// result — a full merge is a major compaction). Failure-atomic: on
    /// error the old components remain in place.
    pub fn merge_all(&mut self) -> Result<(), IoError> {
        if self.disk_components.len() <= 1 {
            return Ok(());
        }
        self.emit(
            LsmEventKind::MergeStart,
            self.disk_components
                .iter()
                .map(RunComponent::byte_size)
                .sum(),
        );
        let mut merged: Vec<(Value, Entry)> = Vec::new();
        {
            let sources: Vec<EntryStream<'_>> = self
                .disk_components
                .iter()
                .map(|c| Box::new(c.scan_from(None, &self.cache)) as EntryStream<'_>)
                .collect();
            for item in MergedScan::new_raw(sources) {
                let (key, entry) = item?;
                if !matches!(entry, Entry::Tombstone) {
                    merged.push((key, entry));
                }
            }
        }
        let new_comp =
            RunComponent::build(self.cache.disk(), self.config.page_size, merged)?;
        // Torture hook: die with both the merged output and its inputs
        // on disk, before the swap — recovery must keep the inputs (the
        // manifest still references them) and orphan-sweep the output.
        crate::fault::crash_point("merge.mid");
        let old = std::mem::replace(&mut self.disk_components, vec![new_comp]);
        for comp in old {
            // Stale pages are impossible either way (FileIds are never
            // reused), so the cache can always be scrubbed immediately;
            // what must wait for the manifest is the file deletion.
            self.cache.invalidate_file(comp.file());
            if self.config.defer_reclaim {
                self.obsolete.push(comp.file());
            } else {
                self.cache.disk().delete(comp.file());
            }
        }
        self.merges += 1;
        self.emit(
            LsmEventKind::MergeEnd,
            self.disk_components
                .iter()
                .map(RunComponent::byte_size)
                .sum(),
        );
        Ok(())
    }

    /// Bulk load from a *sorted, unique-key* stream directly into a single
    /// disk component (the fast path used by `create index` on existing
    /// data, matching AsterixDB's bulk-load pipeline behind Table 5).
    pub fn bulk_load<I>(&mut self, sorted: I) -> Result<(), IoError>
    where
        I: IntoIterator<Item = (Value, Bytes)>,
    {
        assert!(
            self.mem.is_empty() && self.disk_components.is_empty(),
            "bulk_load requires an empty tree"
        );
        self.emit(LsmEventKind::BulkLoadStart, 0);
        let comp = RunComponent::build(
            self.cache.disk(),
            self.config.page_size,
            sorted.into_iter().map(|(k, v)| (k, Entry::Put(v))),
        )?;
        let loaded_bytes = comp.byte_size();
        self.disk_components.push(comp);
        self.emit(LsmEventKind::BulkLoadEnd, loaded_bytes);
        Ok(())
    }

    /// Total on-disk bytes plus an estimate of the memory component.
    pub fn size_bytes(&self) -> u64 {
        self.disk_components
            .iter()
            .map(RunComponent::byte_size)
            .sum::<u64>()
            + self.mem_bytes as u64
    }

    /// Number of immutable disk components.
    pub fn num_disk_components(&self) -> usize {
        self.disk_components.len()
    }

    /// Lifetime flush count.
    pub fn num_flushes(&self) -> u64 {
        self.flushes
    }

    /// Lifetime merge count.
    pub fn num_merges(&self) -> u64 {
        self.merges
    }

    /// Count of live entries (scans everything; test/stats use only).
    pub fn live_entries(&self) -> Result<u64, IoError> {
        let mut n = 0u64;
        for item in self.scan() {
            item?;
            n += 1;
        }
        Ok(n)
    }

    /// The buffer cache (and through it the disk) this tree uses.
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// True when the memory component holds no entries (not even
    /// tombstones) — the condition under which a manifest commit may
    /// advance the partition's `flushed_lsn` past this tree's writes.
    pub fn mem_is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// The live disk components as `(file, pages)`, newest first — what
    /// a manifest records for this tree.
    pub fn component_files(&self) -> Vec<(crate::disk::FileId, u32)> {
        self.disk_components
            .iter()
            .map(|c| (c.file(), c.num_pages()))
            .collect()
    }

    /// Replace the component stack with recovered components (newest
    /// first), used by startup recovery after re-opening the files the
    /// manifest references. The memory component must be empty.
    pub fn restore_components(&mut self, components: Vec<RunComponent>) {
        debug_assert!(self.mem.is_empty(), "restore into a dirty tree");
        self.disk_components = components;
    }

    /// Drain the files superseded since the last call (non-empty only
    /// when [`StorageConfig::defer_reclaim`] is set). The caller deletes
    /// them once no manifest references them.
    pub fn take_obsolete(&mut self) -> Vec<crate::disk::FileId> {
        std::mem::take(&mut self.obsolete)
    }
}

/// K-way merge over entry streams ordered by key; on duplicate keys the
/// *earliest source wins* (sources are ordered newest-first). Tombstones
/// shadow older puts and are dropped from the live output. A source
/// yielding `Err` ends the merge with that error (fused afterwards).
struct MergedScan<'a> {
    heads: Vec<Option<(Value, Entry)>>,
    sources: Vec<EntryStream<'a>>,
    keep_tombstones: bool,
    /// A failure seen while priming heads, surfaced on the first next().
    error: Option<IoError>,
    failed: bool,
}

impl<'a> MergedScan<'a> {
    /// The live view used by scans: tombstones filtered out.
    fn live(sources: Vec<EntryStream<'a>>) -> LiveScan<'a> {
        LiveScan(Self::new_raw(sources))
    }

    fn new_raw(sources: Vec<EntryStream<'a>>) -> Self {
        let mut scan = MergedScan {
            heads: Vec::with_capacity(sources.len()),
            sources,
            keep_tombstones: true,
            error: None,
            failed: false,
        };
        for i in 0..scan.sources.len() {
            match scan.sources[i].next() {
                Some(Ok(kv)) => scan.heads.push(Some(kv)),
                Some(Err(e)) => {
                    scan.heads.push(None);
                    scan.error.get_or_insert(e);
                }
                None => scan.heads.push(None),
            }
        }
        scan
    }

    fn refill(&mut self, i: usize) -> Result<(), IoError> {
        self.heads[i] = match self.sources[i].next() {
            None => None,
            Some(Ok(kv)) => Some(kv),
            Some(Err(e)) => return Err(e),
        };
        Ok(())
    }
}

impl Iterator for MergedScan<'_> {
    type Item = Result<(Value, Entry), IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if let Some(e) = self.error.take() {
            self.failed = true;
            return Some(Err(e));
        }
        loop {
            // Find the minimal key among heads; earliest source wins ties.
            let mut best: Option<usize> = None;
            for (i, head) in self.heads.iter().enumerate() {
                if let Some((k, _)) = head {
                    match &best {
                        None => best = Some(i),
                        Some(b) => {
                            let (bk, _) = self.heads[*b].as_ref().unwrap();
                            if k < bk {
                                best = Some(i);
                            }
                        }
                    }
                }
            }
            let best = best?;
            let (key, entry) = self.heads[best].take().unwrap();
            if let Err(e) = self.refill(best) {
                self.failed = true;
                return Some(Err(e));
            }
            // Discard same-key entries from older sources.
            for i in 0..self.heads.len() {
                while let Some((k, _)) = &self.heads[i] {
                    if *k == key {
                        if let Err(e) = self.refill(i) {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    } else {
                        break;
                    }
                }
            }
            if !self.keep_tombstones && matches!(entry, Entry::Tombstone) {
                continue;
            }
            return Some(Ok((key, entry)));
        }
    }
}

/// Live view: tombstones removed, errors passed through.
struct LiveScan<'a>(MergedScan<'a>);

impl Iterator for LiveScan<'_> {
    type Item = Result<(Value, Bytes), IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.0.next()? {
                Ok((k, Entry::Put(b))) => return Some(Ok((k, b))),
                Ok((_, Entry::Tombstone)) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::fault::{FaultInjector, FaultRule};
    use proptest::prelude::*;

    fn tree(config: StorageConfig) -> LsmTree {
        let disk = Arc::new(Disk::new());
        let cache = Arc::new(BufferCache::new(disk, 64));
        LsmTree::new(cache, config)
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn live(t: &LsmTree) -> Vec<(i64, Bytes)> {
        t.scan()
            .map(|r| {
                let (k, v) = r.unwrap();
                (k.as_i64().unwrap(), v)
            })
            .collect()
    }

    #[test]
    fn put_get_memory_only() {
        let mut t = tree(StorageConfig::default());
        t.put(Value::Int64(1), b("one")).unwrap();
        t.put(Value::Int64(2), b("two")).unwrap();
        assert_eq!(t.get(&Value::Int64(1)).unwrap(), Some(b("one")));
        assert_eq!(t.get(&Value::Int64(3)).unwrap(), None);
        assert_eq!(t.num_disk_components(), 0);
    }

    #[test]
    fn overwrite_takes_latest() {
        let mut t = tree(StorageConfig::tiny());
        t.put(Value::Int64(1), b("v1")).unwrap();
        t.flush().unwrap();
        t.put(Value::Int64(1), b("v2")).unwrap();
        assert_eq!(t.get(&Value::Int64(1)).unwrap(), Some(b("v2")));
        t.flush().unwrap();
        assert_eq!(t.get(&Value::Int64(1)).unwrap(), Some(b("v2")));
    }

    #[test]
    fn delete_shadows_older_component() {
        let mut t = tree(StorageConfig::tiny());
        t.put(Value::Int64(7), b("x")).unwrap();
        t.flush().unwrap();
        t.delete(Value::Int64(7)).unwrap();
        assert_eq!(t.get(&Value::Int64(7)).unwrap(), None);
        t.flush().unwrap();
        assert_eq!(t.get(&Value::Int64(7)).unwrap(), None);
        assert!(live(&t).is_empty());
    }

    #[test]
    fn auto_flush_on_budget() {
        let mut t = tree(StorageConfig::tiny());
        for i in 0..500 {
            t.put(Value::Int64(i), b("some value payload here")).unwrap();
        }
        assert!(t.num_flushes() > 0, "tiny budget must trigger flushes");
        for i in (0..500).step_by(97) {
            assert_eq!(
                t.get(&Value::Int64(i)).unwrap(),
                Some(b("some value payload here"))
            );
        }
    }

    #[test]
    fn merge_compacts_components() {
        let mut t = tree(StorageConfig::tiny());
        for round in 0..6 {
            for i in 0..30 {
                t.put(Value::Int64(i + round * 30), b("payload")).unwrap();
            }
            t.flush().unwrap();
        }
        assert!(t.num_merges() > 0, "merge policy must have fired");
        assert!(t.num_disk_components() <= StorageConfig::tiny().max_components + 1);
        assert_eq!(t.live_entries().unwrap(), 180);
    }

    #[test]
    fn merged_scan_sorted_and_deduped() {
        let mut t = tree(StorageConfig::tiny());
        for i in [5i64, 3, 1] {
            t.put(Value::Int64(i), b("old")).unwrap();
        }
        t.flush().unwrap();
        for i in [4i64, 3] {
            t.put(Value::Int64(i), b("new")).unwrap();
        }
        assert_eq!(
            live(&t),
            vec![
                (1, b("old")),
                (3, b("new")),
                (4, b("new")),
                (5, b("old"))
            ]
        );
    }

    #[test]
    fn scan_from_bound_across_components() {
        let mut t = tree(StorageConfig::tiny());
        for i in 0..20 {
            t.put(Value::Int64(i), b("a")).unwrap();
            if i % 5 == 0 {
                t.flush().unwrap();
            }
        }
        let keys: Vec<i64> = t
            .scan_from(Some(&Value::Int64(13)))
            .map(|r| r.unwrap().0.as_i64().unwrap())
            .collect();
        assert_eq!(keys, (13..20).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_then_read() {
        let mut t = tree(StorageConfig::tiny());
        let data: Vec<(Value, Bytes)> =
            (0..100).map(|i| (Value::Int64(i), b("blk"))).collect();
        t.bulk_load(data).unwrap();
        assert_eq!(t.num_disk_components(), 1);
        assert_eq!(t.get(&Value::Int64(55)).unwrap(), Some(b("blk")));
        assert_eq!(t.live_entries().unwrap(), 100);
    }

    #[test]
    #[should_panic]
    fn bulk_load_nonempty_panics() {
        let mut t = tree(StorageConfig::tiny());
        t.put(Value::Int64(0), b("x")).unwrap();
        let _ = t.bulk_load(vec![(Value::Int64(1), b("y"))]);
    }

    #[test]
    fn size_accounting_grows() {
        let mut t = tree(StorageConfig::tiny());
        let s0 = t.size_bytes();
        for i in 0..50 {
            t.put(Value::Int64(i), b("0123456789")).unwrap();
        }
        t.flush().unwrap();
        assert!(t.size_bytes() > s0);
    }

    #[test]
    fn failed_flush_keeps_memory_component_and_retry_succeeds() {
        let disk = Arc::new(Disk::new());
        disk.set_fault_injector(Arc::new(FaultInjector::new(5).with_rule(FaultRule {
            op: IoOp::Flush,
            file: None,
            nth: 1,
            transient: true,
        })));
        let cache = Arc::new(BufferCache::new(disk.clone(), 64));
        let mut t = LsmTree::new(cache, StorageConfig::tiny());
        for i in 0..5 {
            // Keep below the tiny budget so no auto-flush happens.
            t.mem.insert(Value::Int64(i), Entry::Put(b("v")));
        }
        let err = t.flush().unwrap_err();
        assert!(err.transient);
        // Atomicity: memory untouched, nothing on disk.
        assert_eq!(t.num_disk_components(), 0);
        assert_eq!(t.get(&Value::Int64(3)).unwrap(), Some(b("v")));
        assert_eq!(disk.total_bytes(), 0, "partial file must be cleaned up");
        // The fault was transient: a retry drains the memory component.
        t.flush().unwrap();
        assert_eq!(t.num_disk_components(), 1);
        assert_eq!(t.get(&Value::Int64(3)).unwrap(), Some(b("v")));
    }

    #[test]
    fn failed_append_during_flush_deletes_partial_file() {
        let disk = Arc::new(Disk::new());
        // Fail the 2nd append ever: the first page lands, the second dies,
        // exercising the partial-file cleanup path.
        disk.set_fault_injector(Arc::new(FaultInjector::new(5).with_rule(FaultRule {
            op: IoOp::Append,
            file: None,
            nth: 2,
            transient: true,
        })));
        let cache = Arc::new(BufferCache::new(disk.clone(), 64));
        let mut t = LsmTree::new(cache, StorageConfig::tiny());
        for i in 0..200 {
            t.mem
                .insert(Value::Int64(i), Entry::Put(b("some payload text")));
        }
        assert!(t.flush().is_err());
        assert_eq!(t.num_disk_components(), 0);
        assert_eq!(disk.total_bytes(), 0, "partial file must be cleaned up");
        t.flush().unwrap();
        assert_eq!(t.live_entries().unwrap(), 200);
    }

    #[test]
    fn failed_merge_keeps_old_components() {
        let disk = Arc::new(Disk::new());
        let cache = Arc::new(BufferCache::new(disk.clone(), 64));
        let mut t = LsmTree::new(cache, StorageConfig::tiny());
        for round in 0..3 {
            for i in 0..10 {
                t.put(Value::Int64(i + round * 10), b("p")).unwrap();
            }
            t.flush().unwrap();
        }
        let before = t.num_disk_components();
        assert!(before > 1);
        disk.set_fault_injector(Arc::new(FaultInjector::new(5).with_rule(FaultRule {
            op: IoOp::Read,
            file: None,
            nth: 1,
            transient: true,
        })));
        let result = t.merge_all();
        // The merge may succeed if every page was cache-resident; if it
        // failed, the old components must still be there and readable.
        if result.is_err() {
            assert_eq!(t.num_disk_components(), before);
        }
        disk.clear_fault_injector();
        assert_eq!(t.live_entries().unwrap(), 30);
    }

    proptest! {
        /// The LSM tree behaves like a BTreeMap under an arbitrary workload
        /// of puts, deletes, and flushes.
        #[test]
        fn prop_model_equivalence(ops in prop::collection::vec((0u8..3, 0i64..40, "[a-z]{0,6}"), 1..120)) {
            let mut t = tree(StorageConfig::tiny());
            let mut model: BTreeMap<i64, String> = BTreeMap::new();
            for (op, key, val) in ops {
                match op {
                    0 => {
                        t.put(Value::Int64(key), Bytes::from(val.clone().into_bytes())).unwrap();
                        model.insert(key, val);
                    }
                    1 => {
                        t.delete(Value::Int64(key)).unwrap();
                        model.remove(&key);
                    }
                    _ => t.flush().unwrap(),
                }
            }
            // Point lookups agree.
            for k in 0..40i64 {
                let got = t.get(&Value::Int64(k)).unwrap().map(|b| String::from_utf8(b.to_vec()).unwrap());
                prop_assert_eq!(got, model.get(&k).cloned());
            }
            // Scans agree.
            let scanned: Vec<(i64, String)> = t.scan()
                .map(|r| { let (k, v) = r.unwrap(); (k.as_i64().unwrap(), String::from_utf8(v.to_vec()).unwrap()) })
                .collect();
            let expected: Vec<(i64, String)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
            prop_assert_eq!(scanned, expected);
        }

        /// The batched sorted lookup must agree with per-key point gets on
        /// any mix of memory entries, disk components, overwrites, and
        /// tombstones.
        #[test]
        fn batched_get_matches_point_gets(ops in prop::collection::vec((0u8..3, 0i64..40, "[a-z]{1,6}"), 0..120)) {
            let mut t = tree(StorageConfig::tiny());
            for (op, k, v) in ops {
                match op {
                    0 => t.put(Value::Int64(k), b(&v)).unwrap(),
                    1 => t.delete(Value::Int64(k)).unwrap(),
                    _ => t.flush().unwrap(),
                }
            }
            let keys: Vec<Value> = (0..40i64).map(Value::Int64).collect();
            let batched = t.get_many_sorted(&keys).unwrap();
            for (key, got) in keys.iter().zip(batched) {
                prop_assert_eq!(got, t.get(key).unwrap());
            }
        }
    }

    #[test]
    fn batched_get_spans_components_and_tombstones() {
        let mut t = tree(StorageConfig::tiny());
        t.put(Value::Int64(1), b("one")).unwrap();
        t.put(Value::Int64(2), b("two")).unwrap();
        t.flush().unwrap();
        t.put(Value::Int64(2), b("two-v2")).unwrap();
        t.delete(Value::Int64(1)).unwrap();
        t.flush().unwrap();
        t.put(Value::Int64(5), b("five")).unwrap(); // memory only
        let keys: Vec<Value> = [1i64, 2, 3, 5].into_iter().map(Value::Int64).collect();
        assert_eq!(
            t.get_many_sorted(&keys).unwrap(),
            vec![None, Some(b("two-v2")), None, Some(b("five"))]
        );
    }

    #[test]
    fn lifecycle_events_bracket_flush_merge_and_bulk_load() {
        use crate::events::{LsmEventKind, LsmEventLog};
        let log = Arc::new(LsmEventLog::new(64));
        let mut config = StorageConfig::tiny();
        config.events = Some(log.clone());
        let disk = Arc::new(Disk::new());
        let cache = Arc::new(BufferCache::new(disk, 64));
        let mut t = LsmTree::new(cache.clone(), config.clone());
        t.set_tag("ds/p0/<primary>");
        for round in 0..2 {
            for i in 0..10 {
                t.put(Value::Int64(i + round * 10), b("payload")).unwrap();
            }
            t.flush().unwrap();
        }
        t.merge_all().unwrap();
        let mut loaded = LsmTree::new(cache, config);
        loaded.set_tag("ds/p0/kw");
        loaded
            .bulk_load((0..5).map(|i| (Value::Int64(i), b("x"))))
            .unwrap();

        let events = log.snapshot();
        let count = |k: LsmEventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(LsmEventKind::FlushStart), 2);
        assert_eq!(count(LsmEventKind::FlushEnd), 2);
        assert_eq!(count(LsmEventKind::MergeStart), 1);
        assert_eq!(count(LsmEventKind::MergeEnd), 1);
        assert_eq!(count(LsmEventKind::BulkLoadEnd), 1);
        let merge_end = events
            .iter()
            .find(|e| e.kind == LsmEventKind::MergeEnd)
            .unwrap();
        assert_eq!(&*merge_end.tree, "ds/p0/<primary>");
        assert_eq!(merge_end.components, 1);
        assert!(merge_end.bytes > 0);
        let bulk = events
            .iter()
            .find(|e| e.kind == LsmEventKind::BulkLoadEnd)
            .unwrap();
        assert_eq!(&*bulk.tree, "ds/p0/kw");
        // A failed flush leaves a FlushStart without a FlushEnd.
        let disk2 = Arc::new(Disk::new());
        disk2.set_fault_injector(Arc::new(FaultInjector::new(5).with_rule(FaultRule {
            op: IoOp::Flush,
            file: None,
            nth: 1,
            transient: true,
        })));
        let mut cfg2 = StorageConfig::tiny();
        cfg2.events = Some(log.clone());
        let mut t2 = LsmTree::new(Arc::new(BufferCache::new(disk2, 8)), cfg2);
        t2.set_tag("ds/p1/<primary>");
        t2.mem.insert(Value::Int64(1), Entry::Put(b("v")));
        assert!(t2.flush().is_err());
        let events = log.snapshot();
        let p1: Vec<_> = events.iter().filter(|e| &*e.tree == "ds/p1/<primary>").collect();
        assert_eq!(p1.len(), 1);
        assert_eq!(p1[0].kind, LsmEventKind::FlushStart);
    }
}
