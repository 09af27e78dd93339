//! All storage of one dataset partition: the primary LSM B+-tree plus the
//! partition-local secondary indexes, kept in sync on every insert/delete
//! (secondary indexes are co-partitioned with the primary index, §2.3 —
//! the root cause of the broadcast in index-nested-loop joins, §4.2.1).

use crate::cache::BufferCache;
use crate::component::RunComponent;
use crate::disk::FileId;
use crate::fault::IoError;
use crate::index::{InvertedIndex, PrimaryIndex, SecondaryBTreeIndex};
use crate::manifest::{ManifestComponent, ManifestDataset, ManifestIndex};
use crate::{StorageConfig, StorageError};
use asterix_adm::{AdmError, DatasetDef, IndexDef, IndexKind, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One secondary index instance.
#[derive(Debug)]
pub enum SecondaryIndex {
    /// A plain B+-tree on one field (exact-match lookups).
    BTree(SecondaryBTreeIndex),
    /// A keyword or n-gram inverted index (similarity candidates).
    /// Boxed: the inverted index (LSM tree + postings cache) dwarfs the
    /// B+-tree variant, and partitions hold these in a map by name.
    Inverted(Box<InvertedIndex>),
}

impl SecondaryIndex {
    /// Approximate on-disk plus in-memory size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            SecondaryIndex::BTree(i) => i.size_bytes(),
            SecondaryIndex::Inverted(i) => i.size_bytes(),
        }
    }

    /// Index `record` under its primary key.
    pub fn insert(&mut self, record: &Value, pk: &Value) -> Result<(), IoError> {
        match self {
            SecondaryIndex::BTree(i) => i.insert(record, pk),
            SecondaryIndex::Inverted(i) => i.insert(record, pk),
        }
    }

    /// Remove `record`'s entries for `pk`.
    pub fn delete(&mut self, record: &Value, pk: &Value) -> Result<(), IoError> {
        match self {
            SecondaryIndex::BTree(i) => i.delete(record, pk),
            SecondaryIndex::Inverted(i) => i.delete(record, pk),
        }
    }

    /// Flush the memory component to a disk component.
    pub fn flush(&mut self) -> Result<(), IoError> {
        match self {
            SecondaryIndex::BTree(i) => i.flush(),
            SecondaryIndex::Inverted(i) => i.flush(),
        }
    }

    /// Downcast to the inverted variant.
    pub fn as_inverted(&self) -> Option<&InvertedIndex> {
        match self {
            SecondaryIndex::Inverted(i) => Some(i.as_ref()),
            _ => None,
        }
    }

    /// Downcast to the B+-tree variant.
    pub fn as_btree(&self) -> Option<&SecondaryBTreeIndex> {
        match self {
            SecondaryIndex::BTree(i) => Some(i),
            _ => None,
        }
    }

    /// Lifetime (flushes, merges) of the underlying LSM tree.
    pub fn lsm_counters(&self) -> (u64, u64) {
        match self {
            SecondaryIndex::BTree(i) => i.lsm_counters(),
            SecondaryIndex::Inverted(i) => i.lsm_counters(),
        }
    }

    /// Disk components currently backing this index.
    pub fn num_disk_components(&self) -> usize {
        match self {
            SecondaryIndex::BTree(i) => i.num_disk_components(),
            SecondaryIndex::Inverted(i) => i.num_disk_components(),
        }
    }

    /// Name the underlying LSM tree in lifecycle events.
    pub fn set_tag(&mut self, tag: impl Into<Arc<str>>) {
        match self {
            SecondaryIndex::BTree(i) => i.set_tag(tag),
            SecondaryIndex::Inverted(i) => i.set_tag(tag),
        }
    }

    /// Live disk components as `(file, pages)`, newest first.
    pub fn component_files(&self) -> Vec<(crate::disk::FileId, u32)> {
        match self {
            SecondaryIndex::BTree(i) => i.component_files(),
            SecondaryIndex::Inverted(i) => i.component_files(),
        }
    }

    /// Restore recovered disk components.
    pub fn restore_components(&mut self, components: Vec<crate::component::RunComponent>) {
        match self {
            SecondaryIndex::BTree(i) => i.restore_components(components),
            SecondaryIndex::Inverted(i) => i.restore_components(components),
        }
    }

    /// Drain merge-superseded files awaiting reclamation.
    pub fn take_obsolete(&mut self) -> Vec<crate::disk::FileId> {
        match self {
            SecondaryIndex::BTree(i) => i.take_obsolete(),
            SecondaryIndex::Inverted(i) => i.take_obsolete(),
        }
    }

    /// True when the memory component is empty.
    pub fn mem_is_empty(&self) -> bool {
        match self {
            SecondaryIndex::BTree(i) => i.mem_is_empty(),
            SecondaryIndex::Inverted(i) => i.mem_is_empty(),
        }
    }
}

/// One partition of one dataset: primary index + local secondary indexes.
#[derive(Debug)]
pub struct PartitionStore {
    /// The dataset this partition belongs to.
    pub dataset: DatasetDef,
    /// This partition's number within the dataset.
    pub partition: usize,
    primary: PrimaryIndex,
    secondaries: HashMap<String, SecondaryIndex>,
    cache: Arc<BufferCache>,
    config: StorageConfig,
    /// Files of dropped indexes awaiting deferred reclamation (see
    /// [`StorageConfig::defer_reclaim`]).
    dropped_files: Vec<FileId>,
}

impl PartitionStore {
    /// Create an empty partition store for `dataset`/`partition`.
    pub fn new(
        dataset: DatasetDef,
        partition: usize,
        cache: Arc<BufferCache>,
        config: StorageConfig,
    ) -> Self {
        let mut primary = PrimaryIndex::new(cache.clone(), config.clone());
        primary.set_tag(format!("{}/p{}/<primary>", dataset.name, partition));
        PartitionStore {
            dataset,
            partition,
            primary,
            secondaries: HashMap::new(),
            cache,
            config,
            dropped_files: Vec::new(),
        }
    }

    /// Insert a record routed to this partition. The caller has already
    /// verified the partition assignment.
    pub fn insert(&mut self, record: Value) -> Result<(), StorageError> {
        let pk = self.dataset.key_of(&record)?;
        // Secondary maintenance: remove old postings if overwriting.
        if let Some(old) = self.primary.get(&pk)? {
            for idx in self.secondaries.values_mut() {
                idx.delete(&old, &pk)?;
            }
        }
        for idx in self.secondaries.values_mut() {
            idx.insert(&record, &pk)?;
        }
        self.primary.insert(pk, &record)?;
        Ok(())
    }

    /// Delete by primary key, cleaning secondary entries first.
    pub fn delete(&mut self, pk: &Value) -> Result<(), StorageError> {
        if let Some(old) = self.primary.get(pk)? {
            for idx in self.secondaries.values_mut() {
                idx.delete(&old, pk)?;
            }
            self.primary.delete(pk.clone())?;
        }
        Ok(())
    }

    /// Create a secondary index and backfill it from the primary index,
    /// returning the number of records indexed (the Table 5 build path).
    pub fn create_index(&mut self, def: &IndexDef) -> Result<u64, StorageError> {
        if self.secondaries.contains_key(&def.name) {
            return Err(StorageError::Adm(AdmError::Schema(format!(
                "index '{}' already exists in partition {}",
                def.name, self.partition
            ))));
        }
        let mut index = self.index_shell(def);
        let mut count = 0u64;
        let rows: Vec<(Value, Value)> = self
            .primary
            .scan()
            .collect::<Result<_, IoError>>()?;
        for (pk, record) in rows {
            index.insert(&record, &pk)?;
            count += 1;
        }
        index.flush()?;
        self.secondaries.insert(def.name.clone(), index);
        self.record_index_def(def);
        Ok(count)
    }

    /// Keep the partition-local [`DatasetDef`] in sync with the live
    /// secondary indexes so [`PartitionStore::manifest_dataset`] always
    /// has a definition for every index it lists.
    fn record_index_def(&mut self, def: &IndexDef) {
        if !self.dataset.indexes.iter().any(|d| d.name == def.name) {
            self.dataset.indexes.push(def.clone());
        }
    }

    /// Drop a secondary index, reclaiming its component files: immediately
    /// when [`StorageConfig::defer_reclaim`] is off, otherwise queued into
    /// [`PartitionStore::take_obsolete`] so the caller can delete them only
    /// after the manifest that stops referencing them is durable.
    pub fn drop_index(&mut self, name: &str) -> bool {
        let Some(idx) = self.secondaries.remove(name) else {
            return false;
        };
        self.dataset.indexes.retain(|d| d.name != name);
        let files: Vec<FileId> = idx.component_files().into_iter().map(|(f, _)| f).collect();
        if self.config.defer_reclaim {
            self.dropped_files.extend(files);
        } else {
            for file in files {
                self.cache.disk().delete(file);
            }
        }
        true
    }

    /// Build an empty, tagged secondary index for `def` without backfill.
    fn index_shell(&self, def: &IndexDef) -> SecondaryIndex {
        let mut index = match def.kind {
            IndexKind::BTree => SecondaryIndex::BTree(SecondaryBTreeIndex::new(
                self.cache.clone(),
                self.config.clone(),
                def.field.clone(),
            )),
            IndexKind::Keyword | IndexKind::NGram(_) => {
                SecondaryIndex::Inverted(Box::new(InvertedIndex::new(
                    self.cache.clone(),
                    self.config.clone(),
                    def.field.clone(),
                    def.kind,
                )))
            }
        };
        index.set_tag(format!(
            "{}/p{}/{}",
            self.dataset.name, self.partition, def.name
        ));
        index
    }

    /// Re-create a secondary index *without* backfilling it from the
    /// primary index — startup recovery attaches manifest-listed indexes
    /// this way and then restores their disk components directly.
    pub fn attach_index(&mut self, def: &IndexDef) -> Result<(), StorageError> {
        if self.secondaries.contains_key(&def.name) {
            return Err(StorageError::Adm(AdmError::Schema(format!(
                "index '{}' already exists in partition {}",
                def.name, self.partition
            ))));
        }
        let index = self.index_shell(def);
        self.secondaries.insert(def.name.clone(), index);
        self.record_index_def(def);
        Ok(())
    }

    /// The durable description of this partition: every index with its
    /// live disk components, newest first — exactly what a manifest commit
    /// records and what [`PartitionStore::restore_from_manifest`] consumes.
    pub fn manifest_dataset(&self) -> ManifestDataset {
        let comps = |files: Vec<(FileId, u32)>| -> Vec<ManifestComponent> {
            files
                .into_iter()
                .map(|(file, pages)| ManifestComponent { file, pages })
                .collect()
        };
        let mut indexes = Vec::new();
        for def in &self.dataset.indexes {
            if let Some(idx) = self.secondaries.get(&def.name) {
                indexes.push(ManifestIndex {
                    def: def.clone(),
                    components: comps(idx.component_files()),
                });
            }
        }
        ManifestDataset {
            name: self.dataset.name.clone(),
            primary_key: self.dataset.primary_key.clone(),
            primary: comps(self.primary.component_files()),
            indexes,
        }
    }

    /// Rebuild this partition's LSM state from a manifest snapshot: open
    /// every referenced component file (verifying its page count survived),
    /// attach the listed secondary indexes, and install the components
    /// newest-first. The partition must be freshly created and empty.
    pub fn restore_from_manifest(&mut self, ds: &ManifestDataset) -> Result<(), StorageError> {
        let disk = self.cache.disk().clone();
        let open_all =
            |comps: &[ManifestComponent]| -> Result<Vec<RunComponent>, IoError> {
                comps
                    .iter()
                    .map(|c| {
                        let rc = RunComponent::open(&disk, c.file)?;
                        if rc.num_pages() != c.pages {
                            return Err(IoError::corruption(format!(
                                "component file f{}.cmp has {} pages, manifest expects {}",
                                c.file.0,
                                rc.num_pages(),
                                c.pages
                            )));
                        }
                        Ok(rc)
                    })
                    .collect()
            };
        self.primary.restore_components(open_all(&ds.primary)?);
        for mi in &ds.indexes {
            self.attach_index(&mi.def)?;
            let comps = open_all(&mi.components)?;
            self.secondaries
                .get_mut(&mi.def.name)
                .expect("index attached above")
                .restore_components(comps);
        }
        Ok(())
    }

    /// Drain every file awaiting deferred reclamation: merge-superseded
    /// components of the primary and all secondaries, plus files of
    /// dropped indexes. Callers delete these only after a manifest commit.
    pub fn take_obsolete(&mut self) -> Vec<FileId> {
        let mut files = std::mem::take(&mut self.dropped_files);
        files.extend(self.primary.take_obsolete());
        for idx in self.secondaries.values_mut() {
            files.extend(idx.take_obsolete());
        }
        files
    }

    /// True when every memory component (primary and secondaries) is
    /// empty — the condition under which a manifest commit may advance
    /// the flushed LSN past all replayed WAL records.
    pub fn all_mem_empty(&self) -> bool {
        self.primary.mem_is_empty() && self.secondaries.values().all(|i| i.mem_is_empty())
    }

    /// The primary index.
    pub fn primary(&self) -> &PrimaryIndex {
        &self.primary
    }

    /// Mutable access to the primary index.
    pub fn primary_mut(&mut self) -> &mut PrimaryIndex {
        &mut self.primary
    }

    /// Look up a secondary index by name.
    pub fn secondary(&self, name: &str) -> Option<&SecondaryIndex> {
        self.secondaries.get(name)
    }

    /// Names of all secondary indexes (unordered).
    pub fn secondary_names(&self) -> impl Iterator<Item = &str> {
        self.secondaries.keys().map(|s| s.as_str())
    }

    /// The buffer cache shared by every index of this partition.
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// T-occurrence candidate search against a named inverted index:
    /// sorted primary keys of records sharing at least `t` query tokens.
    /// Runs [`InvertedIndex::t_occurrence_ranked`]: interned rank arrays
    /// counted by the rank kernels, or a galloping intersection when all
    /// `t` tokens must match.
    pub fn inverted_candidates(
        &self,
        index_name: &str,
        tokens: &[Value],
        t: usize,
    ) -> Result<Vec<Value>, StorageError> {
        let idx = self
            .secondaries
            .get(index_name)
            .and_then(SecondaryIndex::as_inverted)
            .ok_or_else(|| {
                StorageError::Adm(AdmError::Schema(format!(
                    "no inverted index named '{index_name}'"
                )))
            })?;
        Ok(idx.t_occurrence_ranked(tokens, t)?)
    }

    /// Exact-match candidate lookup against a named B+-tree index.
    pub fn btree_lookup(&self, index_name: &str, key: &Value) -> Result<Vec<Value>, StorageError> {
        let idx = self
            .secondaries
            .get(index_name)
            .and_then(SecondaryIndex::as_btree)
            .ok_or_else(|| {
                StorageError::Adm(AdmError::Schema(format!(
                    "no btree index named '{index_name}'"
                )))
            })?;
        Ok(idx.lookup(key)?)
    }

    /// Flush all components (end of a load). On a (possibly injected)
    /// I/O fault the in-memory components are preserved, so the caller
    /// may retry transient errors.
    pub fn flush_all(&mut self) -> Result<(), IoError> {
        self.primary.flush()?;
        for idx in self.secondaries.values_mut() {
            idx.flush()?;
        }
        Ok(())
    }

    /// Total (flushes, merges) across the primary and every secondary
    /// index of this partition — instance-lifetime LSM activity.
    pub fn lsm_counters(&self) -> (u64, u64) {
        let (mut flushes, mut merges) = self.primary.lsm_counters();
        for idx in self.secondaries.values() {
            let (f, m) = idx.lsm_counters();
            flushes += f;
            merges += m;
        }
        (flushes, merges)
    }

    /// (index name, size in bytes) for every index including the primary.
    pub fn index_sizes(&self) -> Vec<(String, u64)> {
        let mut out = vec![("<primary>".to_string(), self.primary.size_bytes())];
        let mut names: Vec<&String> = self.secondaries.keys().collect();
        names.sort();
        for name in names {
            out.push((name.clone(), self.secondaries[name].size_bytes()));
        }
        out
    }

    /// (index name, disk components, size in bytes) for every index
    /// including the primary — the telemetry gauge view of this
    /// partition's LSM state.
    pub fn index_components(&self) -> Vec<(String, usize, u64)> {
        let mut out = vec![(
            "<primary>".to_string(),
            self.primary.num_disk_components(),
            self.primary.size_bytes(),
        )];
        let mut names: Vec<&String> = self.secondaries.keys().collect();
        names.sort();
        for name in names {
            let idx = &self.secondaries[name];
            out.push((name.clone(), idx.num_disk_components(), idx.size_bytes()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use asterix_adm::record;

    fn store() -> PartitionStore {
        let cache = Arc::new(BufferCache::new(Arc::new(Disk::new()), 64));
        PartitionStore::new(
            DatasetDef::new("ARevs", "id"),
            0,
            cache,
            StorageConfig::tiny(),
        )
    }

    fn review(id: i64, name: &str, summary: &str) -> Value {
        record! {"id" => id, "reviewerName" => name, "summary" => summary}
    }

    #[test]
    fn insert_then_index_backfill() {
        let mut s = store();
        s.insert(review(1, "james", "great product")).unwrap();
        s.insert(review(2, "maria", "bad product")).unwrap();
        let n = s
            .create_index(&IndexDef {
                name: "smix".into(),
                field: "summary".into(),
                kind: IndexKind::Keyword,
            })
            .unwrap();
        assert_eq!(n, 2);
        let cands = s
            .inverted_candidates("smix", &[Value::from("product")], 1)
            .unwrap();
        assert_eq!(cands, vec![Value::Int64(1), Value::Int64(2)]);
    }

    #[test]
    fn index_maintained_on_insert_after_create() {
        let mut s = store();
        s.create_index(&IndexDef {
            name: "nix".into(),
            field: "reviewerName".into(),
            kind: IndexKind::NGram(2),
        })
        .unwrap();
        s.insert(review(1, "james", "x")).unwrap();
        let cands = s
            .inverted_candidates("nix", &[Value::from("ja"), Value::from("am")], 2)
            .unwrap();
        assert_eq!(cands, vec![Value::Int64(1)]);
    }

    #[test]
    fn overwrite_updates_postings() {
        let mut s = store();
        s.create_index(&IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        s.insert(review(1, "a", "old words")).unwrap();
        s.insert(review(1, "a", "new words")).unwrap();
        assert_eq!(
            s.inverted_candidates("smix", &[Value::from("old")], 1).unwrap(),
            Vec::<Value>::new()
        );
        assert_eq!(
            s.inverted_candidates("smix", &[Value::from("new")], 1).unwrap(),
            vec![Value::Int64(1)]
        );
    }

    #[test]
    fn delete_cleans_everything() {
        let mut s = store();
        s.create_index(&IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        s.insert(review(5, "x", "hello")).unwrap();
        s.delete(&Value::Int64(5)).unwrap();
        assert_eq!(s.primary().get(&Value::Int64(5)).unwrap(), None);
        assert_eq!(
            s.inverted_candidates("smix", &[Value::from("hello")], 1).unwrap(),
            Vec::<Value>::new()
        );
    }

    #[test]
    fn btree_secondary_lookup() {
        let mut s = store();
        s.create_index(&IndexDef {
            name: "bt".into(),
            field: "reviewerName".into(),
            kind: IndexKind::BTree,
        })
        .unwrap();
        s.insert(review(1, "maria", "a")).unwrap();
        s.insert(review(2, "james", "b")).unwrap();
        assert_eq!(
            s.btree_lookup("bt", &Value::from("maria")).unwrap(),
            vec![Value::Int64(1)]
        );
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut s = store();
        let def = IndexDef {
            name: "i".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        };
        s.create_index(&def).unwrap();
        assert!(s.create_index(&def).is_err());
    }

    #[test]
    fn missing_pk_rejected() {
        let mut s = store();
        assert!(s.insert(record! {"notid" => 1i64}).is_err());
    }

    #[test]
    fn index_sizes_reported() {
        let mut s = store();
        for i in 0..50 {
            s.insert(review(i, "name", "some summary words here")).unwrap();
        }
        s.create_index(&IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        s.flush_all().unwrap();
        let sizes = s.index_sizes();
        assert_eq!(sizes.len(), 2);
        assert!(sizes.iter().all(|(_, b)| *b > 0));
    }

    #[test]
    fn transient_flush_fault_is_retryable() {
        use crate::fault::{FaultInjector, FaultRule, IoOp};
        let mut s = store();
        for i in 0..10 {
            s.insert(review(i, "name", "words")).unwrap();
        }
        let disk = s.cache().disk().clone();
        disk.set_fault_injector(Arc::new(FaultInjector::new(3).with_rule(FaultRule {
            op: IoOp::Flush,
            file: None,
            nth: 1,
            transient: true,
        })));
        let err = s.flush_all().unwrap_err();
        assert!(err.transient);
        // The failed flush preserved everything; a retry drains it.
        s.flush_all().unwrap();
        assert_eq!(s.primary().len().unwrap(), 10);
    }

    #[test]
    fn permanent_read_fault_surfaces_as_storage_error() {
        use crate::fault::{FaultInjector, FaultRule, IoOp};
        let mut s = store();
        for i in 0..200 {
            s.insert(review(i, "name", "some longer summary text here")).unwrap();
        }
        s.flush_all().unwrap();
        s.cache().disk().set_fault_injector(Arc::new(
            FaultInjector::new(11).with_rule(FaultRule {
                op: IoOp::Read,
                file: None,
                nth: 1,
                transient: false,
            }),
        ));
        // Backfill scans the primary index from disk → typed Io error.
        let err = s
            .create_index(&IndexDef {
                name: "late".into(),
                field: "summary".into(),
                kind: IndexKind::Keyword,
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(!err.is_transient());
    }

    #[test]
    fn manifest_roundtrip_restores_partition() {
        let dir = std::env::temp_dir().join(format!("asterix-pstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(Disk::file_backed(&dir).unwrap());
        let cache = Arc::new(BufferCache::new(disk.clone(), 64));
        let mut cfg = StorageConfig::tiny();
        cfg.defer_reclaim = true;
        let mut s = PartitionStore::new(DatasetDef::new("ARevs", "id"), 0, cache, cfg.clone());
        s.create_index(&IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        for i in 0..40 {
            s.insert(review(i, "name", "shared words here")).unwrap();
        }
        s.flush_all().unwrap();
        assert!(s.all_mem_empty());
        let ds = s.manifest_dataset();
        assert_eq!(ds.indexes.len(), 1);
        assert!(!ds.primary.is_empty());

        // A fresh store over the same disk, restored from the manifest
        // snapshot, answers queries identically.
        let cache2 = Arc::new(BufferCache::new(disk.clone(), 64));
        let mut s2 = PartitionStore::new(DatasetDef::new("ARevs", "id"), 0, cache2, cfg);
        s2.restore_from_manifest(&ds).unwrap();
        assert_eq!(s2.primary().len().unwrap(), 40);
        assert_eq!(
            s2.inverted_candidates("smix", &[Value::from("shared")], 1).unwrap().len(),
            40
        );
        drop(s);
        drop(s2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_index_reclaims_files_deferred_and_immediate() {
        // Immediate: files vanish from the disk as soon as the index drops.
        let mut s = store();
        s.create_index(&IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        for i in 0..40 {
            s.insert(review(i, "name", "words to index")).unwrap();
        }
        s.flush_all().unwrap();
        let disk = s.cache().disk().clone();
        let before = disk.list_files().len();
        assert!(s.drop_index("smix"));
        assert!(disk.list_files().len() < before);
        assert!(s.take_obsolete().is_empty());

        // Deferred: files survive the drop and surface via take_obsolete.
        let cache = Arc::new(BufferCache::new(Arc::new(Disk::new()), 64));
        let mut cfg = StorageConfig::tiny();
        cfg.defer_reclaim = true;
        let mut s = PartitionStore::new(DatasetDef::new("ARevs", "id"), 0, cache, cfg);
        s.create_index(&IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        for i in 0..40 {
            s.insert(review(i, "name", "words to index")).unwrap();
        }
        s.flush_all().unwrap();
        let disk = s.cache().disk().clone();
        let before = disk.list_files().len();
        assert!(s.drop_index("smix"));
        assert_eq!(disk.list_files().len(), before);
        let obsolete = s.take_obsolete();
        assert!(!obsolete.is_empty());
        for f in obsolete {
            disk.delete(f);
        }
        assert!(disk.list_files().len() < before);
    }

    #[test]
    fn wrong_index_type_errors() {
        let mut s = store();
        s.create_index(&IndexDef {
            name: "bt".into(),
            field: "summary".into(),
            kind: IndexKind::BTree,
        })
        .unwrap();
        assert!(s.inverted_candidates("bt", &[Value::from("x")], 1).is_err());
        assert!(s.btree_lookup("nope", &Value::from("x")).is_err());
    }
}
