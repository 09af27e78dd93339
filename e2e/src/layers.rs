//! Every call the benchmark makes into the repository's crates, one
//! adapter function per call, grouped by layer. The rest of the benchmark
//! names no type or function of those crates, so a change to a layer's
//! interface is a change to a few lines here.
//!
//! Options structs are built from their `Default` and name only the
//! fields a workload states, so an option a later change removes does
//! not break the benchmark.

use asterix_adm::{IndexKind, Value};
use asterix_core::{DurabilityConfig, Instance, InstanceConfig, QueryOptions};
use asterix_server::{AsterixServer, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- adm

/// One record of a dataset.
pub type Record = Value;

pub fn json_parse(text: &str) -> Result<Record, String> {
    asterix_adm::json::parse(text).map_err(|e| e.to_string())
}

pub fn json_text(v: &Record) -> String {
    asterix_adm::json::to_string(v)
}

pub fn binary_encode(v: &Record) -> Vec<u8> {
    asterix_adm::binary::to_bytes(v).to_vec()
}

pub fn binary_decode(bytes: &[u8]) -> Record {
    asterix_adm::binary::from_bytes(bytes).expect("decode a record this program encoded")
}

pub fn record_id(r: &Record) -> i64 {
    r.field("id")
        .as_i64()
        .expect("generated records have an integer id")
}

pub fn record_str<'a>(r: &'a Record, field: &str) -> &'a str {
    r.field(field)
        .as_str()
        .expect("generated records have this string field")
}

/// `fields` as a JSON number, or `None` when absent or not numeric.
pub fn json_number(v: &Record, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for name in path {
        cur = cur.field(name);
    }
    cur.as_f64()
}

pub fn json_field<'a>(v: &'a Record, field: &str) -> &'a Record {
    v.field(field)
}

pub fn json_str<'a>(v: &'a Record, field: &str) -> Option<&'a str> {
    v.field(field).as_str()
}

/// The items of the JSON array at `field`, or none.
pub fn json_list<'a>(v: &'a Record, field: &str) -> &'a [Record] {
    match v.field(field) {
        Value::OrderedList(items) => items,
        _ => &[],
    }
}

/// The (name, value) pairs of a JSON object.
pub fn json_fields(v: &Record) -> &[(String, Record)] {
    match v {
        Value::Record(fields) => fields,
        _ => &[],
    }
}

/// The integer row `id`, as `return $t.id` produces it.
pub fn id_row(id: i64) -> Record {
    Value::Int64(id)
}

/// The row `{"o": o, "i": i}` the join statements return.
pub fn pair_row(o: i64, i: i64) -> Record {
    Value::record(vec![
        ("o".to_string(), Value::Int64(o)),
        ("i".to_string(), Value::Int64(i)),
    ])
}

// ------------------------------------------------------------ datagen

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// `{id, reviewerName, summary, score}`: short names, 4-word summaries.
    Amazon,
    /// `{id, author, title}`: long handles, 9-word titles.
    Reddit,
}

impl Data {
    pub fn dataset(self) -> &'static str {
        match self {
            Data::Amazon => "AmazonReview",
            Data::Reddit => "Reddit",
        }
    }

    /// The token-rich field Jaccard predicates use.
    pub fn text_field(self) -> &'static str {
        match self {
            Data::Amazon => "summary",
            Data::Reddit => "title",
        }
    }

    /// The short field edit-distance predicates use.
    pub fn name_field(self) -> &'static str {
        match self {
            Data::Amazon => "reviewerName",
            Data::Reddit => "author",
        }
    }
}

/// `n` records with ids `first_id..first_id + n`.
pub fn generate(data: Data, n: usize, first_id: i64, seed: u64) -> Vec<Record> {
    let records = match data {
        Data::Amazon => asterix_datagen::amazon_reviews(n, seed),
        Data::Reddit => asterix_datagen::reddit_submissions(n, seed),
    };
    if first_id == 0 {
        return records;
    }
    records
        .into_iter()
        .map(|r| {
            let Value::Record(fields) = r else {
                unreachable!("generators produce records")
            };
            Value::record(
                fields
                    .into_iter()
                    .map(|(name, v)| match (name.as_str(), v) {
                        ("id", Value::Int64(id)) => (name, Value::Int64(id + first_id)),
                        (_, v) => (name, v),
                    })
                    .collect(),
            )
        })
        .collect()
}

// -------------------------------------------------------------- simfn

pub fn word_tokens(s: &str) -> Vec<String> {
    asterix_simfn::word_tokens(s)
}

pub fn gram_tokens(s: &str, n: usize) -> Vec<String> {
    asterix_simfn::gram_tokens(s, n)
}

pub fn jaccard(a: &[String], b: &[String]) -> f64 {
    asterix_simfn::jaccard(a, b)
}

pub fn edit_distance(a: &str, b: &str) -> u32 {
    asterix_simfn::edit_distance(a, b)
}

// ------------------------------------------------------ core + server

/// What a workload states about its instance; everything else is the
/// instance's default.
#[derive(Clone, Debug)]
pub struct EngineSpec {
    pub data: Data,
    /// Keyword index on the text field and 2-gram index on the name field.
    pub indexed: bool,
    /// File-backed, write-ahead-logged store under this directory.
    pub data_dir: Option<PathBuf>,
    /// Buffer-cache pages per partition, when not the default.
    pub cache_pages: Option<usize>,
}

pub const KEYWORD_INDEX: &str = "kw";
pub const NGRAM_INDEX: &str = "ng2";

/// A served instance.
pub struct Engine {
    db: Arc<Instance>,
    server: AsterixServer,
    spec: EngineSpec,
}

/// Where the time of one set-up went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub load: Duration,
    pub keyword_build: Duration,
    pub ngram_build: Duration,
}

fn instance_config(spec: &EngineSpec) -> InstanceConfig {
    let mut config = InstanceConfig::default();
    if let Some(dir) = &spec.data_dir {
        config.durability = DurabilityConfig::at(dir);
    }
    if let Some(pages) = spec.cache_pages {
        config.storage.buffer_cache_pages = pages;
    }
    config
}

/// The program's share of set-up: create the dataset, load `records`,
/// flush, build the indexes, start the server on an ephemeral port.
pub fn setup(spec: &EngineSpec, records: Vec<Record>) -> (Engine, SetupTimes) {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let dataset = spec.data.dataset();
    let db = Instance::open(instance_config(spec)).expect("open a fresh instance");
    db.create_dataset(dataset, "id").expect("create dataset");
    let load_started = Instant::now();
    db.load(dataset, records).expect("load");
    db.flush(dataset).expect("flush");
    times.load = load_started.elapsed();
    if spec.indexed {
        times.keyword_build = db
            .create_index(
                dataset,
                KEYWORD_INDEX,
                spec.data.text_field(),
                IndexKind::Keyword,
            )
            .expect("build keyword index")
            .build_time;
        times.ngram_build = db
            .create_index(
                dataset,
                NGRAM_INDEX,
                spec.data.name_field(),
                IndexKind::NGram(2),
            )
            .expect("build 2-gram index")
            .build_time;
    }
    let engine = serve(db, spec.clone());
    times.total = started.elapsed();
    (engine, times)
}

fn serve(db: Instance, spec: EngineSpec) -> Engine {
    let db = Arc::new(db);
    let server =
        AsterixServer::start(Arc::clone(&db), ServerConfig::ephemeral()).expect("start server");
    Engine { db, server, spec }
}

/// Open the instance an [`Engine::shutdown`] left in `spec.data_dir` and
/// serve it; the second value is the recovery time.
pub fn reopen(spec: &EngineSpec) -> (Engine, Duration) {
    let db = Instance::open(instance_config(spec)).expect("recover the instance");
    let recovery = db
        .recovery_stats()
        .expect("a durable instance reports its recovery")
        .recovery_time;
    (serve(db, spec.clone()), recovery)
}

/// Sums over an instance's life that the traced run differences.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub flushes: u64,
    pub merges: u64,
}

impl Engine {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    /// Stop the server and drop the instance, waiting for the server's
    /// detached connection threads to let go of it first, so its files
    /// are closed when this returns.
    pub fn shutdown(self) {
        let Engine { db, mut server, .. } = self;
        server.shutdown();
        drop(server);
        let mut db = db;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(db) {
                Ok(instance) => return drop(instance),
                Err(shared) => db = shared,
            }
            assert!(
                Instant::now() < deadline,
                "a connection thread still holds the instance"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The names of the rewrite rules the optimizer fires on `statement`.
    pub fn rules_fired(&self, statement: &str) -> Vec<(String, usize)> {
        self.db
            .explain(statement)
            .unwrap_or_else(|e| panic!("explain {statement:?}: {e}"))
            .rewrites
            .iter()
            .map(|(name, n)| (name.to_string(), *n))
            .collect()
    }

    pub fn count_records(&self) -> u64 {
        self.db
            .count_records(self.spec.data.dataset())
            .expect("count records")
    }

    /// Bytes of the primary index and of every secondary index.
    pub fn index_bytes(&self) -> u64 {
        self.db
            .index_sizes(self.spec.data.dataset())
            .expect("index sizes")
            .iter()
            .map(|(_, bytes)| bytes)
            .sum()
    }

    pub fn counters(&self) -> Counters {
        let cache = self.db.cache_stats();
        let (flushes, merges) = self.db.lsm_totals();
        Counters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            flushes,
            merges,
        }
    }

    /// `Instance::query_streaming`, discarding rows: the second of the
    /// three ways the traced run executes an op.
    pub fn query_library(&self, statement: &str) -> LibraryRun {
        let started = Instant::now();
        let result = self
            .db
            .query_streaming(statement, &QueryOptions::default(), |rows| {
                std::hint::black_box(rows);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("query {statement:?}: {e}"));
        LibraryRun {
            total: started.elapsed(),
            compile: result.compile_time,
            rows: result.streamed_rows,
            index_candidates: result.index_candidates(),
        }
    }

    /// Parse, translate, optimize, generate and run `statement` by hand
    /// on the instance's own worker pool, timing each call from outside:
    /// the first of the three ways.
    pub fn query_by_hand(&self, statement: &str) -> HandRun {
        use asterix_algebricks::{generate_job, optimize, VarGen};
        use asterix_aql::{parse_query, translate, Bindings};
        use asterix_hyracks::{run_job_with, JobOptions, ResultSink};
        use std::sync::atomic::{AtomicU64, Ordering};

        let mut stages = Vec::with_capacity(HAND_STAGES.len());
        let mut clock = Instant::now();
        let mut lap = |stages: &mut Vec<(Instant, Instant)>| {
            let now = Instant::now();
            stages.push((clock, now));
            clock = now;
        };
        let query = parse_query(statement).expect("parse");
        lap(&mut stages);
        let vargen = VarGen::new();
        let translation = translate(&query, &vargen, &Bindings::default()).expect("translate");
        lap(&mut stages);
        let catalog = self.db.catalog();
        let optimizer = &self.db.config().optimizer;
        let (optimized, rewrites) = optimize(
            &translation.plan,
            &catalog,
            &self.db.cluster().registry,
            optimizer,
            &vargen,
        );
        lap(&mut stages);
        let job = generate_job(&optimized, optimizer.enable_subplan_reuse).expect("generate job");
        lap(&mut stages);
        // Rows stream to a sink that drops them, as in `query_library`, so
        // the two ways differ by `core`'s wrapper and nothing else.
        let rows = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&rows);
        let scheduler = self.db.scheduler();
        let options = JobOptions {
            pool: scheduler.map(|s| s.pool().clone()),
            memory_budget: scheduler.map(|s| s.memory_budget()),
            result_sink: Some(ResultSink::new(move |tuples| {
                counter.fetch_add(tuples.len() as u64, Ordering::Relaxed);
                std::hint::black_box(tuples);
                Ok(())
            })),
            ..JobOptions::default()
        };
        let (_, stats) = run_job_with(&job, self.db.cluster(), &options).expect("run job");
        lap(&mut stages);
        let mut run = HandRun {
            stages,
            rules_fired: rewrites.iter().map(|(_, n)| n).sum(),
            rows: rows.load(Ordering::Relaxed),
            ..HandRun::default()
        };
        for op in stats.per_op.values() {
            *run.op_time.entry(op.name).or_default() += op.max_partition_time;
            run.frames += op.frames_emitted;
            run.bytes_emitted += op.bytes_emitted;
            run.tuples_in += op.input_tuples;
        }
        run
    }

    /// `Instance::insert` of one record, timed.
    pub fn insert(&self, record: Record) -> Duration {
        let started = Instant::now();
        self.db
            .insert(self.spec.data.dataset(), record)
            .expect("insert");
        started.elapsed()
    }

    /// Call `probe` on the dataset's store in every partition and add up
    /// what it returns; returns (elapsed, sum).
    fn timed_over_stores(
        &self,
        mut probe: impl FnMut(&asterix_storage::PartitionStore) -> usize,
    ) -> (Duration, usize) {
        let dataset = self.spec.data.dataset();
        let started = Instant::now();
        let mut sum = 0;
        for partition in &self.db.cluster().partitions {
            let set = partition.read();
            sum += probe(set.store(dataset).expect("dataset store"));
        }
        (started.elapsed(), sum)
    }

    /// Time `PartitionStore::inverted_candidates` on the keyword index of
    /// every partition for `tokens`; returns (elapsed, candidates).
    pub fn storage_keyword_candidates(&self, tokens: &[String], t: usize) -> (Duration, usize) {
        let tokens: Vec<Value> = tokens.iter().map(|s| Value::from(s.as_str())).collect();
        self.timed_over_stores(|store| {
            store
                .inverted_candidates(KEYWORD_INDEX, &tokens, t)
                .expect("inverted candidates")
                .len()
        })
    }

    /// Time `PrimaryIndex::get_many_sorted` for `ids` (ascending),
    /// each partition asked for all of them; returns (elapsed, found).
    pub fn storage_get_many(&self, ids: &[i64]) -> (Duration, usize) {
        let keys: Vec<Value> = ids.iter().map(|id| Value::Int64(*id)).collect();
        self.timed_over_stores(|store| {
            let found = store
                .primary()
                .get_many_sorted(&keys)
                .expect("get_many_sorted");
            found.iter().flatten().count()
        })
    }

    /// Time a full `PrimaryIndex::scan` of every partition; returns
    /// (elapsed, records).
    pub fn storage_scan(&self) -> (Duration, usize) {
        self.timed_over_stores(|store| {
            let mut records = 0;
            for item in store.primary().scan() {
                std::hint::black_box(item.expect("scan"));
                records += 1;
            }
            records
        })
    }
}

/// One op through `Instance::query_streaming`.
#[derive(Clone, Copy, Debug)]
pub struct LibraryRun {
    pub total: Duration,
    pub compile: Duration,
    pub rows: u64,
    pub index_candidates: u64,
}

/// The calls of [`Engine::query_by_hand`], in order, named layer first.
pub const HAND_STAGES: [&str; 5] = [
    "aql.parse",
    "aql.translate",
    "algebricks.optimize",
    "algebricks.jobgen",
    "hyracks.run_job",
];

/// One op through the compiler and executor called by hand.
#[derive(Clone, Debug, Default)]
pub struct HandRun {
    /// Start and end of each of [`HAND_STAGES`].
    pub stages: Vec<(Instant, Instant)>,
    pub rules_fired: usize,
    pub rows: u64,
    /// Σ over operators of one name of the slowest partition's time.
    pub op_time: std::collections::BTreeMap<&'static str, Duration>,
    pub frames: u64,
    pub bytes_emitted: u64,
    pub tuples_in: u64,
}

impl HandRun {
    /// How long the stage of [`HAND_STAGES`] called `name` took.
    pub fn stage(&self, name: &str) -> Duration {
        let i = HAND_STAGES
            .iter()
            .position(|s| *s == name)
            .expect("a stage name");
        self.stages[i].1 - self.stages[i].0
    }
}
