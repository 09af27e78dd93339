//! The cluster instance: DDL, loading, and the query lifecycle.

use crate::config::InstanceConfig;
use crate::durability::{DurabilityGauges, PartitionDurability, RecoveryStats, WalOp};
use crate::error::CoreError;
use crate::registry::{QueryRegistry, RegistryGuard, RunningQuery};
use crate::result::{PlanInfo, QueryOptions, QueryResult};
use crate::scheduler::{QueryScheduler, SchedulerSnapshot};
use crate::telemetry::{
    DatasetGauges, IndexGauge, InstanceGauges, MetricsSnapshot, QueryClass, QueryOutcome, Telemetry,
};
use asterix_adm::{DatasetDef, IndexDef, IndexKind, Value};
use asterix_algebricks::plan::{explain as explain_plan, operator_counts};
use asterix_algebricks::{generate_job, optimize, Catalog, SimpleCatalog, VarGen};
use asterix_aql::{parse_query, translate, Bindings};
use asterix_hyracks::{
    run_job_with, CancelToken, ClusterContext, ExecError, JobOptions, JobProgress, JobSpec,
    ResultSink,
};
use asterix_simfn::{FunctionRegistry, SimilarityMeasure};
use asterix_storage::{
    BufferCache, CacheStats, Disk, LsmEventKind, Manifest, PartitionStore, QueryCounters, Trace,
    WalConfig,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics from building one secondary index (Table 5).
#[derive(Clone, Debug)]
pub struct IndexBuildStats {
    /// Name of the index that was built.
    pub index: String,
    /// Records indexed across all partitions.
    pub records_indexed: u64,
    /// Wall-clock build time (parallel across partitions).
    pub build_time: Duration,
    /// On-disk size of the finished index, summed over partitions.
    pub size_bytes: u64,
}

/// Per-partition durability handles plus the stats of the startup
/// recovery pass that produced this instance.
struct DurabilityState {
    partitions: Vec<PartitionDurability>,
    recovery: RecoveryStats,
    /// Span tree of the recovery pass (manifest restore, orphan sweep,
    /// WAL replay), exportable as a Chrome trace like any query's spans.
    recovery_spans: Vec<asterix_storage::SpanRecord>,
}

/// A compiled plan plus LRU bookkeeping: `stamp` is the clock value of
/// the most recent hit, used for least-recently-used eviction.
struct CachedPlan {
    job: Arc<JobSpec>,
    plan: PlanInfo,
    stamp: u64,
}

struct PlanCacheInner {
    map: HashMap<String, CachedPlan>,
    /// Monotonic access clock for LRU stamps.
    clock: u64,
    /// Bumped on every DDL; a compile that started under an older
    /// generation is never installed (it may reference dropped indexes).
    generation: u64,
}

/// Memoizes parse → optimize → jobgen keyed on (optimizer fingerprint,
/// query text). `set simfunction` / `set simthreshold` live inside the
/// query text, so they need no extra key component. Invalidated
/// wholesale on any DDL or UDF registration.
struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Plans are small (operator trees, not data); 128 entries comfortably
/// covers a benchmark's worth of distinct query texts.
const PLAN_CACHE_CAPACITY: usize = 128;

impl PlanCache {
    fn new() -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner {
                map: HashMap::new(),
                clock: 0,
                generation: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Current DDL generation; pass it back to [`PlanCache::install`].
    fn generation(&self) -> u64 {
        self.inner.lock().generation
    }

    /// Look up a compiled plan, refreshing its LRU stamp on a hit.
    fn get(&self, key: &str) -> Option<(Arc<JobSpec>, PlanInfo)> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.job.clone(), entry.plan.clone()))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Install a freshly compiled plan, unless a DDL ran since the
    /// compile started (the plan may bake in a stale catalog).
    fn install(&self, key: String, job: Arc<JobSpec>, plan: PlanInfo, generation: u64) {
        let mut inner = self.inner.lock();
        if inner.generation != generation {
            return;
        }
        if inner.map.len() >= PLAN_CACHE_CAPACITY && !inner.map.contains_key(&key) {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(key, CachedPlan { job, plan, stamp });
    }

    /// Drop every cached plan and bump the generation (DDL barrier).
    fn invalidate(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.generation += 1;
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A simulated AsterixDB cluster instance.
pub struct Instance {
    ctx: ClusterContext,
    catalog: RwLock<SimpleCatalog>,
    /// One disk + buffer cache per partition (node-local storage, §2.3).
    caches: Vec<Arc<BufferCache>>,
    config: InstanceConfig,
    /// The metrics registry + event log + slow-query log; `None` when
    /// `TelemetryConfig::enabled` is false.
    telemetry: Option<Arc<Telemetry>>,
    /// Shared worker pool + admission controller; `None` when
    /// `SchedulerConfig::workers == 0` (seed behaviour: per-query
    /// threads, no admission control, no memory budget).
    scheduler: Option<QueryScheduler>,
    /// WAL + manifest per partition; `None` on in-memory instances
    /// (`DurabilityConfig::data_dir == None`).
    durability: Option<DurabilityState>,
    /// Compiled-plan cache (parse → optimize → jobgen memoized per query
    /// text + optimizer fingerprint), invalidated on DDL.
    plan_cache: PlanCache,
    /// The running-query registry: assigns every query its monotonic
    /// `query_id` and tracks in-flight queries for live introspection.
    registry: QueryRegistry,
}

impl Instance {
    /// Build an in-memory instance from `config`, spawning the shared
    /// worker pool when the scheduler is enabled.
    ///
    /// Equivalent to [`Instance::open`] but infallible: an in-memory
    /// instance cannot fail to start, and a durable configuration that
    /// fails recovery panics. Use `open` when you need the error.
    pub fn new(config: InstanceConfig) -> Self {
        Self::open(config).expect("instance open failed")
    }

    /// Open an instance. For a durable configuration (a
    /// [`crate::config::DurabilityConfig`] with a data directory) this
    /// runs the full startup recovery protocol: re-link every
    /// manifest-referenced LSM component, sweep orphan component files
    /// left by crashed flushes/merges, truncate torn WAL tails, and
    /// replay surviving WAL records into the memory components. An
    /// acknowledged write from the previous incarnation is never lost.
    pub fn open(mut config: InstanceConfig) -> Result<Self, CoreError> {
        let telemetry = config
            .telemetry
            .enabled
            .then(|| Arc::new(Telemetry::new(&config.telemetry, config.num_partitions)));
        // Install the lifecycle event sink before the storage config is
        // cloned into any partition store, so every LSM tree reports into
        // the shared ring.
        if let Some(t) = &telemetry {
            config.storage.events = Some(t.event_log().clone());
        }
        let data_dir = config.durability.data_dir.clone();
        if data_dir.is_some() {
            // Obsolete component files must survive until the manifest
            // that stops referencing them is committed.
            config.storage.defer_reclaim = true;
        }
        let mut disks: Vec<Arc<Disk>> = Vec::with_capacity(config.num_partitions);
        for p in 0..config.num_partitions {
            let disk = match &data_dir {
                Some(root) => {
                    let dir = root.join(format!("p{p}"));
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| CoreError::Io(format!("create {}: {e}", dir.display())))?;
                    Arc::new(Disk::file_backed(&dir)?)
                }
                None => Arc::new(Disk::new()),
            };
            disks.push(disk);
        }
        let caches: Vec<Arc<BufferCache>> = disks
            .iter()
            .map(|disk| BufferCache::shared(disk.clone(), config.storage.buffer_cache_pages))
            .collect();
        let scheduler = QueryScheduler::new(&config.scheduler);
        let mut instance = Instance {
            ctx: ClusterContext::new(config.num_partitions, FunctionRegistry::with_builtins()),
            catalog: RwLock::new(SimpleCatalog::new()),
            caches,
            config,
            telemetry,
            scheduler,
            durability: None,
            plan_cache: PlanCache::new(),
            registry: QueryRegistry::new(),
        };
        if let Some(root) = data_dir {
            instance.recover(&root, &disks)?;
        }
        Ok(instance)
    }

    /// Startup recovery: load each partition's manifest + WAL, rebuild
    /// every partition store, sweep orphans, and replay the WAL.
    fn recover(&mut self, root: &std::path::Path, disks: &[Arc<Disk>]) -> Result<(), CoreError> {
        let started = Instant::now();
        // Cold-start time gets its own span tree (mirroring per-query
        // traces): "recovery" with manifest-restore / orphan-sweep /
        // wal-replay children, exportable via
        // [`Instance::recovery_trace_chrome_json`].
        let rec_trace = Trace::new();
        let rec_span = rec_trace.span("recovery");
        let wal_config = WalConfig {
            commit_interval: self.config.durability.wal_commit_interval,
            batch_bytes: self.config.durability.wal_batch_bytes,
            segment_bytes: self.config.durability.wal_segment_bytes,
        };
        let mut stats = RecoveryStats::default();
        let mut partitions = Vec::with_capacity(self.config.num_partitions);
        let mut manifests = Vec::with_capacity(self.config.num_partitions);
        let mut wal_records = Vec::with_capacity(self.config.num_partitions);
        let restore_span = rec_trace.span("manifest-restore");
        for (p, disk) in disks.iter().enumerate() {
            let _p_span = rec_trace.span_with("partition-open", Some(restore_span.id()), Some(p));
            let dir = root.join(format!("p{p}"));
            let (pd, manifest, records) =
                PartitionDurability::open(&dir, wal_config.clone(), disk.clone())?;
            let rec = pd.wal().recovery();
            stats.wal_bytes_truncated += rec.bytes_truncated;
            stats.wal_segments_dropped += rec.segments_dropped;
            if manifest.is_some() {
                stats.partitions_recovered += 1;
            }
            if let Some(log) = &self.config.storage.events {
                let tag: Arc<str> = Arc::from(format!("recovery/p{p}").as_str());
                log.record(
                    &tag,
                    LsmEventKind::RecoveryStart,
                    pd.wal().segment_bytes(),
                    0,
                    0,
                    None,
                );
            }
            partitions.push(pd);
            manifests.push(manifest);
            wal_records.push(records);
        }

        // The catalog is the union of every partition's manifest (a crash
        // between per-partition manifest commits of a DDL statement can
        // leave some partitions ahead of others; no DML for the affected
        // dataset can have been acknowledged in the meantime).
        let mut defs: Vec<DatasetDef> = Vec::new();
        for manifest in manifests.iter().flatten() {
            for ds in &manifest.datasets {
                if defs.iter().any(|d| d.name == ds.name) {
                    continue;
                }
                let mut def = DatasetDef::new(&ds.name, &ds.primary_key);
                for mi in &ds.indexes {
                    def.add_index(mi.def.clone())?;
                }
                defs.push(def);
            }
        }

        // Rebuild the stores: every dataset gets a store in every
        // partition; partitions whose manifest lists it restore its disk
        // components (verifying page counts), others start empty.
        for (p, pset) in self.ctx.partitions.iter().enumerate() {
            let mut set = pset.write();
            for def in &defs {
                let mut store = PartitionStore::new(
                    def.clone(),
                    p,
                    self.caches[p].clone(),
                    self.config.storage.clone(),
                );
                if let Some(ds) = manifests[p]
                    .as_ref()
                    .and_then(|m| m.datasets.iter().find(|d| d.name == def.name))
                {
                    store.restore_from_manifest(ds)?;
                    stats.components_opened += ds.primary.len() as u64
                        + ds.indexes.iter().map(|i| i.components.len() as u64).sum::<u64>();
                }
                set.insert_store(store);
            }
        }
        drop(restore_span);

        // Orphan sweep — before replay, so components flushed *by* replay
        // are never mistaken for orphans. Files on disk that no manifest
        // references were written by flushes/merges that crashed before
        // their manifest commit; the WAL still holds their operations.
        let sweep_span = rec_trace.span("orphan-sweep");
        for (p, disk) in disks.iter().enumerate() {
            let referenced: std::collections::HashSet<_> = manifests[p]
                .as_ref()
                .map(|m| m.referenced_files().into_iter().collect())
                .unwrap_or_default();
            for file in disk.list_files() {
                if !referenced.contains(&file) {
                    disk.delete(file);
                    stats.orphan_files_removed += 1;
                }
            }
        }

        drop(sweep_span);

        // Replay surviving WAL records above each partition's flushed
        // LSN, in LSN order. Replay is idempotent: inserts overwrite,
        // deletes of absent keys are no-ops.
        let replay_span = rec_trace.span("wal-replay");
        for (p, records) in wal_records.iter().enumerate() {
            let _p_span = rec_trace.span_with("partition-replay", Some(replay_span.id()), Some(p));
            let flushed = partitions[p].flushed_lsn();
            let mut set = self.ctx.partitions[p].write();
            for record in records {
                if record.lsn <= flushed {
                    continue;
                }
                let op = WalOp::decode(&record.payload)?;
                match op {
                    WalOp::Insert { dataset, record } => {
                        let store = set.store_mut(&dataset).ok_or_else(|| {
                            CoreError::Io(format!(
                                "wal replay: dataset '{dataset}' not in any manifest"
                            ))
                        })?;
                        store.insert(record)?;
                    }
                    WalOp::Delete { dataset, pk } => {
                        let store = set.store_mut(&dataset).ok_or_else(|| {
                            CoreError::Io(format!(
                                "wal replay: dataset '{dataset}' not in any manifest"
                            ))
                        })?;
                        store.delete(&pk)?;
                    }
                }
                stats.wal_records_replayed += 1;
            }
        }
        drop(replay_span);
        for (p, pd) in partitions.iter().enumerate() {
            if let Some(log) = &self.config.storage.events {
                let tag: Arc<str> = Arc::from(format!("recovery/p{p}").as_str());
                let replayed = wal_records[p]
                    .iter()
                    .filter(|r| r.lsn > pd.flushed_lsn())
                    .count() as u64;
                log.record(&tag, LsmEventKind::RecoveryEnd, replayed, 0, 0, None);
            }
        }

        {
            let mut catalog = self.catalog.write();
            for def in defs {
                catalog.add(def);
            }
        }
        stats.recovery_time = started.elapsed();
        drop(rec_span);
        self.durability = Some(DurabilityState {
            partitions,
            recovery: stats,
            recovery_spans: rec_trace.spans(),
        });
        Ok(())
    }

    /// Stats of the startup recovery pass, for durable instances.
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.durability.as_ref().map(|d| &d.recovery)
    }

    /// Span tree of the startup recovery pass (manifest restore, orphan
    /// sweep, WAL replay), for durable instances. Same shape as a query's
    /// spans; render with [`crate::telemetry::chrome_trace_json`].
    pub fn recovery_spans(&self) -> Option<&[asterix_storage::SpanRecord]> {
        self.durability.as_ref().map(|d| d.recovery_spans.as_slice())
    }

    /// The recovery span tree as Chrome trace-event JSON (Perfetto-
    /// loadable), for durable instances. Uses pid 0 — query traces use
    /// their nonzero `query_id` as pid.
    pub fn recovery_trace_chrome_json(&self) -> Option<String> {
        self.recovery_spans()
            .map(|s| crate::telemetry::chrome_trace_json(0, s))
    }

    /// True when this instance persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// True when any partition's WAL is poisoned: a background write or
    /// fsync failed, so writes can no longer be made durable. The admin
    /// `/health` endpoint reports the instance as `degraded` when set.
    /// Always `false` on in-memory instances.
    pub fn wal_poisoned(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|d| d.partitions.iter().any(|pd| pd.wal().is_poisoned()))
    }

    /// Consistent snapshot of every in-flight query — id, text, class,
    /// queued/running/cancelling state, elapsed time, and live
    /// per-operator progress sampled from the executor's relaxed
    /// atomics. Never pauses execution.
    pub fn running_queries(&self) -> Vec<RunningQuery> {
        self.registry.running()
    }

    /// Cancel an in-flight query by its `query_id`: trips the query's
    /// own cancel token, which stops it whether it is still waiting for
    /// admission or already executing (the query returns
    /// [`CoreError::Cancelled`]). Returns `false` when no query with
    /// that id is in flight.
    pub fn cancel(&self, query_id: u64) -> bool {
        self.registry.cancel(query_id)
    }

    /// The Chrome trace-event JSON of a slow-logged query, by id.
    /// `None` when telemetry is off or the id is not (or no longer) in
    /// the slow-query log.
    pub fn slow_query_trace_chrome_json(&self, query_id: u64) -> Option<String> {
        let t = self.telemetry.as_ref()?;
        t.slow_queries()
            .iter()
            .find(|s| s.query_id == query_id)
            .map(|s| crate::telemetry::chrome_trace_json(s.query_id, &s.spans))
    }

    /// Snapshot every partition's current LSM state into its manifest,
    /// advance the flushed LSN when all memory components are empty (the
    /// condition under which covered WAL segments can be reclaimed), and
    /// delete component files whose last manifest reference just
    /// disappeared. No-op on in-memory instances.
    fn commit_partition_manifest(&self, pidx: usize) -> Result<(), CoreError> {
        let Some(dur) = &self.durability else {
            return Ok(());
        };
        let pd = &dur.partitions[pidx];
        // The commit lock is held from the state sample through the
        // manifest rename and WAL truncation: concurrent committers
        // (flush racing DDL) must publish in sample order, or a staler
        // manifest could overwrite a newer one whose advanced
        // `flushed_lsn` already reclaimed WAL segments — losing the
        // acknowledged operations in between on the next recovery.
        let _commit = pd.commit_lock();
        // Everything sampled under the partition write lock: WAL appends
        // also happen under it, so `durable_lsn` cannot move past an
        // operation that is only in a memory component we just saw empty.
        let (datasets, flushed_lsn, obsolete) = {
            let mut set = self.ctx.partitions[pidx].write();
            let mut datasets: Vec<_> = set.stores().map(|s| s.manifest_dataset()).collect();
            datasets.sort_by(|a, b| a.name.cmp(&b.name));
            let all_empty = set.stores().all(|s| s.all_mem_empty());
            let flushed_lsn = if all_empty {
                pd.wal().durable_lsn()
            } else {
                pd.flushed_lsn()
            };
            let obsolete: Vec<_> = set.stores_mut().flat_map(|s| s.take_obsolete()).collect();
            (datasets, flushed_lsn, obsolete)
        };
        let manifest = Manifest {
            flushed_lsn,
            datasets,
        };
        // If this commit fails, the drained obsolete files leak until the
        // next startup's orphan sweep — never the reverse (a referenced
        // file is only deleted after the commit that drops it succeeds).
        let reclaimed = pd.commit_manifest(&manifest)?;
        if reclaimed > 0 {
            if let Some(log) = &self.config.storage.events {
                let tag: Arc<str> = Arc::from(format!("wal/p{pidx}").as_str());
                log.record(&tag, LsmEventKind::WalTruncate, reclaimed, 0, 0, None);
            }
        }
        for file in obsolete {
            pd.disk().delete(file);
        }
        Ok(())
    }

    /// Commit every partition's manifest (DDL durability point).
    fn commit_all_manifests(&self) -> Result<(), CoreError> {
        if self.durability.is_some() {
            for p in 0..self.config.num_partitions {
                self.commit_partition_manifest(p)?;
            }
        }
        Ok(())
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &InstanceConfig {
        &self.config
    }

    /// Number of data partitions in the simulated cluster.
    pub fn num_partitions(&self) -> usize {
        self.config.num_partitions
    }

    /// Register a user-defined function usable in any query (§3.1).
    pub fn register_udf<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        self.ctx.registry.register(name, f);
        // Cached plans may have resolved (or failed to resolve) this name.
        self.plan_cache.invalidate();
    }

    /// `create dataset <name> primary key <pk>`.
    pub fn create_dataset(&self, name: &str, primary_key: &str) -> Result<(), CoreError> {
        let mut catalog = self.catalog.write();
        if catalog.dataset(name).is_some() {
            return Err(CoreError::Schema(format!("dataset '{name}' already exists")));
        }
        let def = DatasetDef::new(name, primary_key);
        for (pidx, pset) in self.ctx.partitions.iter().enumerate() {
            pset.write().insert_store(PartitionStore::new(
                def.clone(),
                pidx,
                self.caches[pidx].clone(),
                self.config.storage.clone(),
            ));
        }
        catalog.add(def);
        drop(catalog);
        self.plan_cache.invalidate();
        // DDL is durable immediately (per-partition manifest commit), so
        // the WAL only ever carries DML and replay never meets an unknown
        // dataset.
        self.commit_all_manifests()
    }

    /// `create index <index> on <dataset>(<field>) type <kind>` — builds
    /// the index on existing data in parallel and returns Table-5-style
    /// statistics.
    pub fn create_index(
        &self,
        dataset: &str,
        index: &str,
        field: &str,
        kind: IndexKind,
    ) -> Result<IndexBuildStats, CoreError> {
        let def = IndexDef {
            name: index.to_string(),
            field: field.to_string(),
            kind,
        };
        {
            let mut catalog = self.catalog.write();
            let ds = catalog
                .get_mut(dataset)
                .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
            ds.add_index(def.clone())?;
        }
        self.plan_cache.invalidate();
        let started = Instant::now();
        let mut records = 0u64;
        // Parallel backfill: one thread per partition, as a bulk-load job
        // would run.
        let counts = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ctx
                .partitions
                .iter()
                .map(|pset| {
                    let def = def.clone();
                    scope.spawn(move || {
                        let mut set = pset.write();
                        let store = set
                            .store_mut(dataset)
                            .ok_or_else(|| format!("dataset '{dataset}' missing in partition"))?;
                        store.create_index(&def).map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index build thread"))
                .collect::<Vec<Result<u64, String>>>()
        });
        for c in counts {
            records += c.map_err(CoreError::Schema)?;
        }
        self.commit_all_manifests()?;
        Ok(IndexBuildStats {
            index: index.to_string(),
            records_indexed: records,
            build_time: started.elapsed(),
            size_bytes: self.index_size(dataset, index)?,
        })
    }

    /// `drop index <dataset>.<index>`.
    pub fn drop_index(&self, dataset: &str, index: &str) -> Result<(), CoreError> {
        {
            let mut catalog = self.catalog.write();
            let ds = catalog
                .get_mut(dataset)
                .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
            let before = ds.indexes.len();
            ds.indexes.retain(|i| i.name != index);
            if ds.indexes.len() == before {
                return Err(CoreError::Schema(format!(
                    "no index '{index}' on dataset '{dataset}'"
                )));
            }
        }
        self.plan_cache.invalidate();
        for pset in &self.ctx.partitions {
            let mut set = pset.write();
            if let Some(store) = set.store_mut(dataset) {
                store.drop_index(index);
            }
        }
        // Commit the index removal; the dropped component files (queued by
        // `drop_index` under `defer_reclaim`) are deleted only after the
        // manifest stops referencing them.
        self.commit_all_manifests()
    }

    /// Insert one record, hash-routed to its partition by primary key:
    /// [`Instance::insert_batch`] of one.
    pub fn insert(&self, dataset: &str, record: Value) -> Result<(), CoreError> {
        self.insert_batch(dataset, vec![record])
    }

    /// Insert a batch of records, each hash-routed to its partition by
    /// primary key, with one WAL group commit per partition touched.
    ///
    /// Every record is routed before anything is written, so a record
    /// without the primary key fails the batch with nothing applied.
    /// Records of one partition keep their order (a later record of the
    /// same key overwrites an earlier one).
    pub fn insert_batch(&self, dataset: &str, records: Vec<Value>) -> Result<(), CoreError> {
        let buckets = self.route(dataset, records)?;
        // WAL first: LSN assignment and the memory-component apply happen
        // atomically under the partition lock, but the fsync waits happen
        // *after* every lock is released, so a partition's share of the
        // batch is one group commit and concurrent writers share it.
        // `Ok` still means every record survives any crash. `Err` is
        // at-least-once territory (see the `durability` module docs): a
        // failed apply after the submit leaves WAL records the next
        // restart replays, and a failed wait leaves records visible in
        // memory until a restart discards them with their WAL batch.
        let mut submitted = Vec::new();
        for (partition, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut set = self.ctx.partitions[partition].write();
            let store = set
                .store_mut(dataset)
                .ok_or_else(|| CoreError::Schema(format!("dataset '{dataset}' missing")))?;
            if let Some(dur) = &self.durability {
                let ops: Vec<WalOp> = bucket
                    .iter()
                    .map(|record| WalOp::Insert {
                        dataset: dataset.to_string(),
                        record: record.clone(),
                    })
                    .collect();
                let pd = &dur.partitions[partition];
                submitted.push((pd, pd.submit_many(&ops)?));
            }
            for record in bucket {
                store.insert(record)?;
            }
        }
        for (pd, last_lsn) in submitted {
            pd.wait_durable(last_lsn)?;
        }
        Ok(())
    }

    /// Bucket `records` by the partition their primary key hashes to,
    /// keeping arrival order within a bucket.
    fn route(
        &self,
        dataset: &str,
        records: impl IntoIterator<Item = Value>,
    ) -> Result<Vec<Vec<Value>>, CoreError> {
        let catalog = self.catalog.read();
        let def = catalog
            .dataset(dataset)
            .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
        let mut buckets = vec![Vec::new(); self.config.num_partitions];
        for record in records {
            let key = def.key_of(&record)?;
            buckets[def.partition_of(&key, self.config.num_partitions)].push(record);
        }
        Ok(buckets)
    }

    /// Delete a record by primary key (tombstoned in the LSM components;
    /// secondary postings are removed too).
    pub fn delete(&self, dataset: &str, pk: &Value) -> Result<(), CoreError> {
        let partition = {
            let catalog = self.catalog.read();
            let def = catalog
                .dataset(dataset)
                .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
            def.partition_of(pk, self.config.num_partitions)
        };
        let mut set = self.ctx.partitions[partition].write();
        let store = set
            .store_mut(dataset)
            .ok_or_else(|| CoreError::Schema(format!("dataset '{dataset}' missing")))?;
        // Same protocol as insert: submit + apply under the lock, wait
        // for the group commit after releasing it — including the same
        // at-least-once anomaly on failure (`durability` module docs).
        let lsn = match &self.durability {
            Some(dur) => Some(dur.partitions[partition].submit(&WalOp::Delete {
                dataset: dataset.to_string(),
                pk: pk.clone(),
            })?),
            None => None,
        };
        store.delete(pk)?;
        drop(set);
        if let Some(lsn) = lsn {
            self.durability.as_ref().expect("checked above").partitions[partition]
                .wait_durable(lsn)?;
        }
        Ok(())
    }

    /// Bulk load many records (routed per record), in parallel batches.
    pub fn load(
        &self,
        dataset: &str,
        records: impl IntoIterator<Item = Value>,
    ) -> Result<u64, CoreError> {
        // Partition the batch, then insert per partition in parallel.
        let buckets = self.route(dataset, records)?;
        let n = buckets.iter().map(|b| b.len() as u64).sum();
        let errs: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .zip(&self.ctx.partitions)
                .enumerate()
                .map(|(pidx, (bucket, pset))| {
                    let dur = self.durability.as_ref().map(|d| &d.partitions[pidx]);
                    scope.spawn(move || -> Result<(), String> {
                        let mut set = pset.write();
                        let store = set
                            .store_mut(dataset)
                            .ok_or_else(|| format!("dataset '{dataset}' missing"))?;
                        // One group commit for the whole bucket, before
                        // any record is applied.
                        if let Some(pd) = dur {
                            let ops: Vec<WalOp> = bucket
                                .iter()
                                .map(|rec| WalOp::Insert {
                                    dataset: dataset.to_string(),
                                    record: rec.clone(),
                                })
                                .collect();
                            pd.log_many(&ops).map_err(|e| e.to_string())?;
                        }
                        for rec in bucket {
                            store.insert(rec).map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("load thread").err())
                .collect()
        });
        if let Some(e) = errs.into_iter().next() {
            return Err(CoreError::Schema(e));
        }
        Ok(n)
    }

    /// Load newline-delimited JSON (the paper's raw dataset format).
    pub fn load_json_lines(&self, dataset: &str, text: &str) -> Result<u64, CoreError> {
        let records = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(asterix_adm::json::parse)
            .collect::<Result<Vec<_>, _>>()?;
        self.load(dataset, records)
    }

    /// Flush all memory components to disk.
    ///
    /// Transient I/O faults (the kind a [`asterix_storage::FaultInjector`]
    /// marks retryable) are retried with bounded exponential backoff;
    /// `flush_all` preserves the in-memory components on failure, so a
    /// retry loses nothing. Permanent faults — and transient ones that
    /// survive every attempt — surface as [`CoreError::Io`].
    pub fn flush(&self, dataset: &str) -> Result<(), CoreError> {
        const MAX_ATTEMPTS: u32 = 4;
        for (pidx, pset) in self.ctx.partitions.iter().enumerate() {
            let mut attempt = 0u32;
            loop {
                // Take the partition's write lock per attempt and release
                // it before the backoff sleep — holding it across the
                // sleep would stall every query (and concurrent flush)
                // touching this partition for the whole retry window.
                let result = {
                    let mut set = pset.write();
                    set.store_mut(dataset).map(|store| store.flush_all())
                };
                match result {
                    None | Some(Ok(())) => break,
                    Some(Err(e)) if e.transient && attempt + 1 < MAX_ATTEMPTS => {
                        attempt += 1;
                        if let Some(log) = &self.config.storage.events {
                            let tag: Arc<str> =
                                Arc::from(format!("{dataset}/p{pidx}/*").as_str());
                            log.record(
                                &tag,
                                LsmEventKind::FaultRetry,
                                0,
                                0,
                                0,
                                Some(format!("flush attempt {attempt}: {e}")),
                            );
                        }
                        std::thread::sleep(Duration::from_millis(1u64 << attempt));
                    }
                    Some(Err(e)) => return Err(e.into()),
                }
            }
        }
        // Durable instances: snapshot the new component lists into each
        // partition's manifest. When the flush emptied every memory
        // component of a partition, this also advances `flushed_lsn` and
        // reclaims the WAL segments it covers.
        self.commit_all_manifests()
    }

    /// Total size of one index (or `<primary>`) across partitions.
    pub fn index_size(&self, dataset: &str, index: &str) -> Result<u64, CoreError> {
        let mut total = 0u64;
        for pset in &self.ctx.partitions {
            let set = pset.read();
            let store = set
                .store(dataset)
                .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
            for (name, bytes) in store.index_sizes() {
                if name == index {
                    total += bytes;
                }
            }
        }
        Ok(total)
    }

    /// All index sizes for a dataset, aggregated over partitions
    /// (Table 5).
    pub fn index_sizes(&self, dataset: &str) -> Result<Vec<(String, u64)>, CoreError> {
        let mut agg: Vec<(String, u64)> = Vec::new();
        for pset in &self.ctx.partitions {
            let set = pset.read();
            let store = set
                .store(dataset)
                .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
            for (name, bytes) in store.index_sizes() {
                match agg.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, b)) => *b += bytes,
                    None => agg.push((name, bytes)),
                }
            }
        }
        Ok(agg)
    }

    /// Number of records in a dataset.
    pub fn count_records(&self, dataset: &str) -> Result<u64, CoreError> {
        let mut n = 0;
        for pset in &self.ctx.partitions {
            let set = pset.read();
            let store = set
                .store(dataset)
                .ok_or_else(|| CoreError::Schema(format!("unknown dataset '{dataset}'")))?;
            n += store.primary().len()?;
        }
        Ok(n)
    }

    /// Aggregate buffer-cache statistics across partitions.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.caches {
            let s = c.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Instance-lifetime (flushes, merges) summed over every LSM tree of
    /// every partition store.
    pub fn lsm_totals(&self) -> (u64, u64) {
        let (mut flushes, mut merges) = (0u64, 0u64);
        for pset in &self.ctx.partitions {
            let set = pset.read();
            for store in set.stores() {
                let (f, m) = store.lsm_counters();
                flushes += f;
                merges += m;
            }
        }
        (flushes, merges)
    }

    /// The buffer cache of one partition. Fault-injection tests reach the
    /// partition's simulated disk through this (`cache.disk()`), e.g. to
    /// install an [`asterix_storage::FaultInjector`].
    pub fn partition_cache(&self, partition: usize) -> &Arc<BufferCache> {
        &self.caches[partition]
    }

    /// Zero every partition's buffer-cache counters (bench support).
    pub fn reset_cache_stats(&self) {
        for c in &self.caches {
            c.reset_stats();
        }
    }

    /// The metrics registry, when telemetry is enabled. Gives access to
    /// the slow-query log and the LSM lifecycle event ring.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// A typed snapshot of every instance-wide metric: per-class query
    /// histograms, per-operator execution times, partition busy time,
    /// cache ratios, LSM gauges, the event ring, and the slow-query log.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.telemetry {
            Some(t) => t.snapshot(self.instance_gauges()),
            None => MetricsSnapshot::disabled(),
        }
    }

    /// [`Instance::metrics`] rendered as an ADM/JSON record.
    pub fn metrics_snapshot(&self) -> Value {
        self.metrics().to_json()
    }

    /// [`Instance::metrics`] rendered as Prometheus text exposition.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// Sample the live gauges (buffer cache, per-index LSM component
    /// counts and sizes aggregated over partitions).
    fn instance_gauges(&self) -> InstanceGauges {
        let (lsm_flushes, lsm_merges) = self.lsm_totals();
        let mut datasets: Vec<DatasetGauges> = Vec::new();
        for pset in &self.ctx.partitions {
            let set = pset.read();
            for store in set.stores() {
                let name = store.dataset.name.clone();
                let entry = match datasets.iter_mut().find(|d| d.dataset == name) {
                    Some(d) => d,
                    None => {
                        datasets.push(DatasetGauges {
                            dataset: name,
                            indexes: Vec::new(),
                        });
                        datasets.last_mut().expect("just pushed")
                    }
                };
                for (index, components, size_bytes) in store.index_components() {
                    match entry.indexes.iter_mut().find(|i| i.name == index) {
                        Some(i) => {
                            i.components += components as u64;
                            i.size_bytes += size_bytes;
                        }
                        None => entry.indexes.push(IndexGauge {
                            name: index,
                            components: components as u64,
                            size_bytes,
                        }),
                    }
                }
            }
        }
        datasets.sort_by(|a, b| a.dataset.cmp(&b.dataset));
        let durability = match &self.durability {
            Some(d) => {
                let mut g = DurabilityGauges {
                    enabled: true,
                    replayed_records: d.recovery.wal_records_replayed,
                    recovery_us: d.recovery.recovery_time.as_micros() as u64,
                    ..DurabilityGauges::default()
                };
                for pd in &d.partitions {
                    g.disk_fsyncs += pd.disk().fsyncs();
                    g.wal_appends += pd.wal().appends();
                    g.wal_bytes += pd.wal().bytes_appended();
                    g.wal_group_commits += pd.wal().group_commits();
                    g.wal_fsyncs += pd.wal().fsyncs();
                    g.wal_live_bytes += pd.wal().segment_bytes();
                }
                g
            }
            None => DurabilityGauges::default(),
        };
        InstanceGauges {
            buffer_cache: self.cache_stats(),
            lsm_flushes,
            lsm_merges,
            datasets,
            scheduler: match &self.scheduler {
                Some(s) => s.snapshot(),
                None => SchedulerSnapshot::default(),
            },
            durability,
            plan_cache_hits: self.plan_cache.hits(),
            plan_cache_misses: self.plan_cache.misses(),
        }
    }

    /// The query scheduler (worker pool + admission controller), when
    /// enabled. Tests and the bench harness inspect its gauges here.
    pub fn scheduler(&self) -> Option<&QueryScheduler> {
        self.scheduler.as_ref()
    }

    /// Run an AQL query with the instance's optimizer settings.
    pub fn query(&self, aql: &str) -> Result<QueryResult, CoreError> {
        self.query_with(aql, &QueryOptions::default())
    }

    /// Compile one query, recording a tracing span per pipeline stage
    /// when a trace is active.
    fn compile(
        &self,
        aql: &str,
        options: &QueryOptions,
        trace: Option<&Arc<Trace>>,
    ) -> Result<(JobSpec, PlanInfo), CoreError> {
        let query = {
            let _s = trace.map(|t| t.span("parse"));
            parse_query(aql)?
        };
        let vargen = VarGen::new();
        let translation = {
            let _s = trace.map(|t| t.span("translate"));
            translate(&query, &vargen, &Bindings::default())?
        };

        // `set simfunction` / `set simthreshold` override the default ~=
        // measure (§3.2).
        let mut opt_config = options
            .optimizer
            .clone()
            .unwrap_or_else(|| self.config.optimizer.clone());
        if let Some(f) = &translation.settings.simfunction {
            let threshold = translation.settings.simthreshold.as_deref();
            opt_config.simfunction = parse_measure(f, threshold)?;
        }

        let catalog = self.catalog.read().clone();
        let (optimized, rewrites) = {
            let _s = trace.map(|t| t.span("optimize"));
            optimize(
                &translation.plan,
                &catalog,
                &self.ctx.registry,
                &opt_config,
                &vargen,
            )
        };
        let job = {
            let _s = trace.map(|t| t.span("jobgen"));
            generate_job(&optimized, opt_config.enable_subplan_reuse)
                .map_err(CoreError::Translate)?
        };
        let plan = PlanInfo {
            logical_ops_before: operator_counts(&translation.plan),
            logical_ops_after: operator_counts(&optimized),
            rewrites,
            explain: explain_plan(&optimized),
            physical_ops: job.operator_counts(),
        };
        Ok((job, plan))
    }

    /// [`Instance::compile`] behind the plan cache: a hit skips parse,
    /// optimize, and job generation entirely. The cache key covers the
    /// query text plus the per-query optimizer override (the `set
    /// simfunction`/`set simthreshold` pragmas are part of the text).
    fn compile_cached(
        &self,
        aql: &str,
        options: &QueryOptions,
        trace: Option<&Arc<Trace>>,
    ) -> Result<(Arc<JobSpec>, PlanInfo), CoreError> {
        if options.disable_plan_cache {
            let (job, plan) = self.compile(aql, options, trace)?;
            return Ok((Arc::new(job), plan));
        }
        let key = format!("{:?}\u{0}{aql}", options.optimizer);
        if let Some(hit) = self.plan_cache.get(&key) {
            // Mark the hit in the trace: the compile-stage spans (parse,
            // translate, optimize, jobgen) are intentionally absent.
            let _s = trace.map(|t| t.span("plan-cache"));
            return Ok(hit);
        }
        // Snapshot the DDL generation *before* reading the catalog, so a
        // plan compiled against a catalog that changed mid-compile is
        // never installed.
        let generation = self.plan_cache.generation();
        let (job, plan) = self.compile(aql, options, trace)?;
        let job = Arc::new(job);
        self.plan_cache
            .install(key, job.clone(), plan.clone(), generation);
        Ok((job, plan))
    }

    /// Run an AQL query with per-query optimizer overrides.
    pub fn query_with(&self, aql: &str, options: &QueryOptions) -> Result<QueryResult, CoreError> {
        self.query_inner(aql, options, None)
    }

    /// Run an AQL query, streaming result rows to `on_rows` as the
    /// executor produces them instead of buffering the full result set.
    ///
    /// `on_rows` is called from the result-sink operator's thread, once
    /// per arriving frame, in production order; returning `Err` (e.g.
    /// the consumer disconnected) cancels the whole query, which then
    /// fails with that message as an operator error. The returned
    /// [`QueryResult`] has an empty `rows` vector;
    /// [`QueryResult::streamed_rows`] counts what was delivered. This is
    /// the foundation of the HTTP `POST /query` endpoint: large
    /// similarity-join results flow to the client without ever
    /// materializing server-side.
    pub fn query_streaming<F>(
        &self,
        aql: &str,
        options: &QueryOptions,
        on_rows: F,
    ) -> Result<QueryResult, CoreError>
    where
        F: Fn(Vec<Value>) -> Result<(), String> + Send + Sync + 'static,
    {
        let delivered = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&delivered);
        let sink = ResultSink::new(move |tuples: Vec<asterix_hyracks::Tuple>| {
            // Results are single-column (the translator projects the
            // return value) — same shape the buffered path unwraps.
            let rows: Vec<Value> = tuples
                .into_iter()
                .map(|mut t| {
                    debug_assert_eq!(t.len(), 1);
                    t.pop().unwrap_or(Value::Missing)
                })
                .collect();
            counter.fetch_add(rows.len() as u64, Ordering::Relaxed);
            on_rows(rows)
        });
        self.query_inner(aql, options, Some((sink, delivered)))
    }

    /// Shared body of [`Instance::query_with`] and
    /// [`Instance::query_streaming`]: `stream` carries the executor sink
    /// plus the delivered-row counter when the caller streams.
    fn query_inner(
        &self,
        aql: &str,
        options: &QueryOptions,
        stream: Option<(ResultSink, Arc<AtomicU64>)>,
    ) -> Result<QueryResult, CoreError> {
        // One trace per query when telemetry is on; the "query" root span
        // covers compile + execute, with per-stage children and (via
        // `JobOptions::trace`) per-operator-partition children under
        // "execute".
        let trace = self.telemetry.as_ref().map(|_| Trace::new());
        let query_span = trace.as_ref().map(|t| t.span("query"));

        let compile_started = Instant::now();
        let (job, plan) = match self.compile_cached(aql, options, trace.as_ref()) {
            Ok(compiled) => compiled,
            Err(e) => {
                if let Some(t) = &self.telemetry {
                    t.record_compile_error();
                }
                return Err(e);
            }
        };
        let compile_time = compile_started.elapsed();
        let class = options
            .admission_class
            .unwrap_or_else(|| QueryClass::classify(&plan));

        // The cancel token is created (and installed as the context's
        // active target) *before* admission, so its deadline spans queue
        // wait + execution and `ClusterContext::cancel_active` can stop
        // a query that is still waiting in the admission queue.
        let cancel = Arc::new(match options.timeout {
            Some(budget) => CancelToken::with_timeout(budget),
            None => CancelToken::new(),
        });
        self.ctx.install_cancel(cancel.clone());

        // Register in the running-query registry: assigns the monotonic
        // query_id and makes the query visible (and cancellable by id)
        // for its whole lifetime — queue wait included. The guard
        // deregisters on every exit path below.
        let query_id = self.registry.register(aql, class, cancel.clone());
        let _registry_guard = RegistryGuard::new(&self.registry, query_id);

        // Admission sits between compile and execute: queue wait is
        // recorded in the scheduler's own histogram and deliberately
        // excluded from the per-class execution-time histogram.
        let permit = match &self.scheduler {
            Some(s) => {
                let admit_span = trace.as_ref().map(|t| t.span("admission"));
                let admitted = s.admit(class, &cancel, query_id);
                drop(admit_span);
                match admitted {
                    Ok(p) => Some(p),
                    Err(e) => {
                        self.ctx.clear_cancel_if(&cancel);
                        if let Some(t) = &self.telemetry {
                            let outcome = match &e {
                                ExecError::AdmissionTimeout(_) => QueryOutcome::Timeout,
                                ExecError::Cancelled => QueryOutcome::Cancelled,
                                _ => QueryOutcome::Failed,
                            };
                            t.record_query(class, outcome, compile_time, Duration::ZERO, 0);
                        }
                        return Err(e.into());
                    }
                }
            }
            None => None,
        };
        self.registry.set_running(query_id);

        let exec_started = Instant::now();
        // Telemetry needs the per-query storage counters even when the
        // caller didn't ask for a profile (cache hit ratios, index funnel).
        let counters = (options.profile || self.telemetry.is_some()).then(QueryCounters::handle);
        let exec_span = trace.as_ref().map(|t| t.span("execute"));
        // Live per-operator progress, sampled by `running_queries()`
        // while the job executes.
        let progress = JobProgress::for_job(&job);
        self.registry.attach_progress(query_id, progress.clone());
        let job_options = JobOptions {
            timeout: options.timeout,
            counters: counters.clone(),
            disable_hotpath: options.disable_hotpath,
            disable_batching: options.disable_batching,
            disable_kernels: options.disable_kernels,
            trace: trace
                .clone()
                .zip(exec_span.as_ref().map(|s| s.id())),
            pool: self.scheduler.as_ref().map(|s| s.pool().clone()),
            cancel: Some(cancel),
            memory_budget: self.scheduler.as_ref().map(|s| s.memory_budget()),
            progress: Some(progress),
            result_sink: stream.as_ref().map(|(sink, _)| sink.clone()),
        };
        let run = run_job_with(&job, &self.ctx, &job_options);
        drop(exec_span);
        // Release the concurrency slot as soon as execution ends so the
        // next queued query starts while we post-process this one.
        drop(permit);
        let execution_time = exec_started.elapsed();
        let (tuples, stats) = match run {
            Ok(out) => out,
            Err(e) => {
                let err = CoreError::from(e);
                if let Some(t) = &self.telemetry {
                    let outcome = match &err {
                        CoreError::Timeout(_) => QueryOutcome::Timeout,
                        CoreError::Cancelled => QueryOutcome::Cancelled,
                        _ => QueryOutcome::Failed,
                    };
                    t.record_query(class, outcome, compile_time, execution_time, 0);
                }
                return Err(err);
            }
        };
        let storage_snapshot = counters.map(|c| c.snapshot());
        let profile = storage_snapshot.as_ref().map(|s| {
            crate::QueryProfile::build(
                query_id,
                &job,
                &stats,
                *s,
                self.lsm_totals(),
                plan.rewrites.clone(),
                compile_time,
                execution_time,
            )
        });
        // Results are single-column (the translator projects the return
        // value). A streaming query already delivered its rows to the
        // caller's sink; the executor's vector is empty by construction.
        let rows: Vec<Value> = tuples
            .into_iter()
            .map(|mut t| {
                debug_assert_eq!(t.len(), 1);
                t.pop().unwrap_or(Value::Missing)
            })
            .collect();
        let streamed_rows = stream
            .as_ref()
            .map_or(0, |(_, delivered)| delivered.load(Ordering::Relaxed));
        let row_count = rows.len() as u64 + streamed_rows;
        // Close the root span before a possible slow-query capture so the
        // captured span set includes the full tree.
        drop(query_span);
        if let Some(t) = &self.telemetry {
            t.record_query(
                class,
                QueryOutcome::Completed,
                compile_time,
                execution_time,
                row_count,
            );
            t.record_job(&stats);
            if let Some(s) = &storage_snapshot {
                t.record_storage(s);
            }
            let threshold = options
                .slow_query_threshold
                .unwrap_or_else(|| t.slow_query_threshold());
            if execution_time >= threshold {
                if let (Some(p), Some(tr)) = (&profile, &trace) {
                    t.record_slow(
                        query_id,
                        aql,
                        class,
                        compile_time,
                        execution_time,
                        row_count,
                        plan.explain.clone(),
                        p.clone(),
                        tr.spans(),
                    );
                }
            }
        }
        Ok(QueryResult {
            query_id,
            rows,
            streamed_rows,
            stats,
            plan,
            compile_time,
            execution_time,
            // Preserve the documented contract: a profile is returned only
            // when asked for, even though telemetry collects one anyway.
            profile: if options.profile { profile } else { None },
            spans: trace.as_ref().map(|t| t.spans()).unwrap_or_default(),
        })
    }

    /// Compile only: the optimized logical plan explanation (plus rewrite
    /// log), without executing.
    pub fn explain(&self, aql: &str) -> Result<PlanInfo, CoreError> {
        self.explain_with_options(aql, &QueryOptions::default())
    }

    /// Compile only, with per-query optimizer overrides.
    pub fn explain_with_options(
        &self,
        aql: &str,
        options: &QueryOptions,
    ) -> Result<PlanInfo, CoreError> {
        let query = parse_query(aql)?;
        let vargen = VarGen::new();
        let translation = translate(&query, &vargen, &Bindings::default())?;
        let mut opt_config = options
            .optimizer
            .clone()
            .unwrap_or_else(|| self.config.optimizer.clone());
        if let Some(f) = &translation.settings.simfunction {
            opt_config.simfunction =
                parse_measure(f, translation.settings.simthreshold.as_deref())?;
        }
        let catalog = self.catalog.read().clone();
        let (optimized, rewrites) = optimize(
            &translation.plan,
            &catalog,
            &self.ctx.registry,
            &opt_config,
            &vargen,
        );
        let job = generate_job(&optimized, opt_config.enable_subplan_reuse)
            .map_err(CoreError::Translate)?;
        Ok(PlanInfo {
            logical_ops_before: operator_counts(&translation.plan),
            logical_ops_after: operator_counts(&optimized),
            rewrites,
            explain: explain_plan(&optimized),
            physical_ops: job.operator_counts(),
        })
    }

    /// Direct access for tests and the experiment harness.
    pub fn cluster(&self) -> &ClusterContext {
        &self.ctx
    }

    /// A snapshot of the catalog (datasets and their indexes).
    pub fn catalog(&self) -> SimpleCatalog {
        self.catalog.read().clone()
    }
}

/// Parse `set simfunction` / `set simthreshold` values.
fn parse_measure(name: &str, threshold: Option<&str>) -> Result<SimilarityMeasure, CoreError> {
    let t = threshold.map(|s| s.trim_end_matches('f').to_string());
    match name.to_ascii_lowercase().as_str() {
        "jaccard" => {
            let delta = t
                .as_deref()
                .unwrap_or("0.5")
                .parse::<f64>()
                .map_err(|e| CoreError::Parse(format!("bad simthreshold: {e}")))?;
            Ok(SimilarityMeasure::Jaccard { delta })
        }
        "edit-distance" => {
            let k = t
                .as_deref()
                .unwrap_or("2")
                .parse::<f64>()
                .map_err(|e| CoreError::Parse(format!("bad simthreshold: {e}")))? as u32;
            Ok(SimilarityMeasure::EditDistance { k })
        }
        other => Err(CoreError::Parse(format!("unknown simfunction '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::record;

    fn small_instance() -> Instance {
        let db = Instance::new(InstanceConfig::tiny(2));
        db.create_dataset("ARevs", "id").unwrap();
        let rows = [
            (1i64, "james", "this movie touched my heart"),
            (2, "mary", "the best car charger i ever bought"),
            (3, "mario", "different than my usual but good"),
            (4, "jamie", "great product fantastic gift"),
            (5, "maria", "better ever than i expected"),
            (6, "bob", "great product fantastic gift idea"),
        ];
        for (id, name, summary) in rows {
            db.insert(
                "ARevs",
                record! {"id" => id, "reviewerName" => name, "summary" => summary},
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn scan_query_returns_all() {
        let db = small_instance();
        let r = db.query("for $t in dataset ARevs return $t.id").unwrap();
        assert_eq!(r.ids(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn jaccard_selection_no_index() {
        let db = small_instance();
        let r = db
            .query(
                r#"
            for $t in dataset ARevs
            where similarity-jaccard(word-tokens($t.summary),
                                     word-tokens('great product fantastic gift')) >= 0.5
            return $t.id
        "#,
            )
            .unwrap();
        assert_eq!(r.ids(), vec![4, 6]);
        assert!(!r.plan.used_rule("introduce-index-for-selection"));
    }

    #[test]
    fn jaccard_selection_with_index_same_answer() {
        let db = small_instance();
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        let r = db
            .query(
                r#"
            for $t in dataset ARevs
            where similarity-jaccard(word-tokens($t.summary),
                                     word-tokens('great product fantastic gift')) >= 0.5
            return $t.id
        "#,
            )
            .unwrap();
        assert_eq!(r.ids(), vec![4, 6]);
        assert!(r.plan.used_rule("introduce-index-for-selection"));
        assert!(r.index_candidates() >= 2);
    }

    #[test]
    fn edit_distance_selection_with_index() {
        let db = small_instance();
        db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
        let r = db
            .query(
                r#"
            for $t in dataset ARevs
            where edit-distance($t.reviewerName, 'marla') <= 1
            return $t.id
        "#,
            )
            .unwrap();
        assert_eq!(r.ids(), vec![5]); // maria
        assert!(r.plan.used_rule("introduce-index-for-selection"));
    }

    #[test]
    fn edit_distance_corner_case_falls_back_to_scan() {
        let db = small_instance();
        db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
        // "mary" has 3 distinct grams; k=2 → T = 3-4 < 0: corner case.
        let r = db
            .query(
                r#"
            for $t in dataset ARevs
            where edit-distance($t.reviewerName, 'mary') <= 2
            return $t.id
        "#,
            )
            .unwrap();
        assert!(!r.plan.used_rule("introduce-index-for-selection"));
        // mary(0), maria(2), mario(2) are within distance 2.
        assert_eq!(r.ids(), vec![2, 3, 5]);
    }

    #[test]
    fn tilde_operator_uses_set_statements() {
        let db = small_instance();
        let r = db
            .query(
                r#"
            set simfunction 'jaccard';
            set simthreshold '0.5';
            for $t in dataset ARevs
            where word-tokens($t.summary) ~= word-tokens('great product fantastic gift')
            return $t.id
        "#,
            )
            .unwrap();
        assert_eq!(r.ids(), vec![4, 6]);
    }

    #[test]
    fn exact_match_btree_baseline() {
        let db = small_instance();
        db.create_index("ARevs", "bt", "reviewerName", IndexKind::BTree)
            .unwrap();
        let r = db
            .query("for $t in dataset ARevs where $t.reviewerName = 'maria' return $t.id")
            .unwrap();
        assert_eq!(r.ids(), vec![5]);
        assert!(r.plan.used_rule("introduce-index-for-selection"));
    }

    #[test]
    fn count_query() {
        let db = small_instance();
        let r = db
            .query("count( for $t in dataset ARevs where $t.id <= 3 return $t.id );")
            .unwrap();
        assert_eq!(r.count(), Some(3));
    }

    #[test]
    fn jaccard_join_three_stage() {
        let db = small_instance();
        let r = db
            .query(
                r#"
            for $t1 in dataset ARevs
            for $t2 in dataset ARevs
            where similarity-jaccard(word-tokens($t1.summary),
                                     word-tokens($t2.summary)) >= 0.5
              and $t1.id < $t2.id
            return { 'a': $t1.id, 'b': $t2.id }
        "#,
            )
            .unwrap();
        assert!(r.plan.used_rule("three-stage-similarity-join"), "{:?}", r.plan.rewrites);
        // Only the (4, 6) pair is >= 0.5 similar.
        assert_eq!(r.rows.len(), 1);
        let pair = &r.rows[0];
        assert_eq!(pair.field("a"), &Value::Int64(4));
        assert_eq!(pair.field("b"), &Value::Int64(6));
    }

    #[test]
    fn jaccard_join_index_nested_loop() {
        let db = small_instance();
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        let r = db
            .query(
                r#"
            for $t1 in dataset ARevs
            for $t2 in dataset ARevs
            where similarity-jaccard(word-tokens($t1.summary),
                                     word-tokens($t2.summary)) >= 0.5
              and $t1.id < $t2.id
            return { 'a': $t1.id, 'b': $t2.id }
        "#,
            )
            .unwrap();
        assert!(
            r.plan.used_rule("introduce-index-nested-loop-join"),
            "{:?}",
            r.plan.rewrites
        );
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn edit_distance_join_with_corner_union() {
        let db = small_instance();
        db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
        let r = db
            .query(
                r#"
            for $t1 in dataset ARevs
            for $t2 in dataset ARevs
            where edit-distance($t1.reviewerName, $t2.reviewerName) <= 1
              and $t1.id < $t2.id
            return { 'a': $t1.id, 'b': $t2.id }
        "#,
            )
            .unwrap();
        assert!(r.plan.used_rule("introduce-index-nested-loop-join"));
        // Only mario~maria is within edit distance 1 (james~jamie and
        // mary~maria are both distance 2).
        assert_eq!(r.rows.len(), 1, "{:?}", r.rows);
        assert_eq!(r.rows[0].field("a"), &Value::Int64(3));
        assert_eq!(r.rows[0].field("b"), &Value::Int64(5));

        // With k = 2 the distance-2 pairs appear; some outer keys become
        // corner cases at runtime (T = grams - 4 <= 0 for 4-5 char names)
        // and flow through the union's nested-loop path.
        let r2 = db
            .query(
                r#"
            for $t1 in dataset ARevs
            for $t2 in dataset ARevs
            where edit-distance($t1.reviewerName, $t2.reviewerName) <= 2
              and $t1.id < $t2.id
            return { 'a': $t1.id, 'b': $t2.id }
        "#,
            )
            .unwrap();
        // Pairs within distance 2: (1,4) james~jamie, (2,3) mary~mario,
        // (2,5) mary~maria, (3,5) mario~maria.
        assert_eq!(r2.rows.len(), 4, "{:?}", r2.rows);
    }

    #[test]
    fn contains_selection_via_ngram_index() {
        let db = small_instance();
        db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
        let r = db
            .query("for $t in dataset ARevs where contains($t.reviewerName, 'ari') return $t.id")
            .unwrap();
        assert_eq!(r.ids(), vec![3, 5]); // mario, maria
        assert!(r.plan.used_rule("introduce-index-for-selection"), "{:?}", r.plan.rewrites);
        // Short patterns compile to a scan but still answer correctly.
        let short = db
            .query("for $t in dataset ARevs where contains($t.reviewerName, 'a') return $t.id")
            .unwrap();
        assert!(!short.plan.used_rule("introduce-index-for-selection"));
        assert_eq!(short.ids(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn drop_index_reverts_to_scan() {
        let db = small_instance();
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        let q = r#"
            for $t in dataset ARevs
            where similarity-jaccard(word-tokens($t.summary),
                                     word-tokens('great product fantastic gift')) >= 0.5
            return $t.id
        "#;
        let with = db.query(q).unwrap();
        assert!(with.plan.used_rule("introduce-index-for-selection"));
        db.drop_index("ARevs", "smix").unwrap();
        let without = db.query(q).unwrap();
        assert!(!without.plan.used_rule("introduce-index-for-selection"));
        assert_eq!(with.ids(), without.ids());
        assert!(db.drop_index("ARevs", "smix").is_err());
    }

    #[test]
    fn udf_in_query() {
        let mut db = Instance::new(InstanceConfig::tiny(2));
        db.register_udf("similarity-firstchar", |args| {
            let a = args[0].as_str().unwrap_or_default().chars().next();
            let b = args[1].as_str().unwrap_or_default().chars().next();
            Ok(Value::double(if a == b && a.is_some() { 1.0 } else { 0.0 }))
        });
        db.create_dataset("D", "id").unwrap();
        db.insert("D", record! {"id" => 1i64, "name" => "ada"}).unwrap();
        db.insert("D", record! {"id" => 2i64, "name" => "alan"}).unwrap();
        db.insert("D", record! {"id" => 3i64, "name" => "bob"}).unwrap();
        let r = db
            .query(
                r#"
            for $t in dataset D
            where similarity-firstchar($t.name, 'apple') >= 1.0
            return $t.id
        "#,
            )
            .unwrap();
        assert_eq!(r.ids(), vec![1, 2]);
    }

    #[test]
    fn errors_surface() {
        let db = small_instance();
        assert!(matches!(db.query("for $t in"), Err(CoreError::Parse(_))));
        assert!(matches!(
            db.query("for $t in dataset Nope return $t"),
            Err(CoreError::Execution(_))
        ));
        assert!(db.create_dataset("ARevs", "id").is_err());
        assert!(db.insert("ARevs", record! {"noid" => 1i64}).is_err());
    }

    #[test]
    fn index_sizes_and_counts() {
        let db = small_instance();
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.flush("ARevs").unwrap();
        assert_eq!(db.count_records("ARevs").unwrap(), 6);
        let sizes = db.index_sizes("ARevs").unwrap();
        assert!(sizes.iter().any(|(n, b)| n == "<primary>" && *b > 0));
        assert!(sizes.iter().any(|(n, b)| n == "smix" && *b > 0));
    }

    #[test]
    fn delete_removes_from_all_plans() {
        let db = small_instance();
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.delete("ARevs", &Value::Int64(4)).unwrap();
        let q = r#"
            for $t in dataset ARevs
            where similarity-jaccard(word-tokens($t.summary),
                                     word-tokens('great product fantastic gift')) >= 0.5
            return $t.id
        "#;
        let with = db.query(q).unwrap();
        assert_eq!(with.ids(), vec![6], "deleted record must vanish from index plan");
        let scan = db
            .query_with(
                q,
                &crate::result::QueryOptions {
                    optimizer: Some(asterix_algebricks::OptimizerConfig {
                        enable_index_select: false,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(scan.ids(), vec![6]);
    }

    #[test]
    fn json_loading() {
        let db = Instance::new(InstanceConfig::tiny(2));
        db.create_dataset("J", "id").unwrap();
        let n = db
            .load_json_lines("J", "{\"id\": 1, \"t\": \"x\"}\n{\"id\": 2, \"t\": \"y\"}\n")
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.count_records("J").unwrap(), 2);
    }
}
