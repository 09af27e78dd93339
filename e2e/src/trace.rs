//! The traced run: one fresh instance, one client, ops run one after
//! another, each op three ways — compiler and executor called by hand,
//! `Instance::query_streaming`, and HTTP — so the cost of each wrapper is
//! a subtraction. Every call into a layer is timed from outside, as a
//! span; counts come from values the program's interfaces already return.
//! The per-layer metrics are medians over ops of those spans and ratios
//! of those counts.

use crate::client;
use crate::layers::{self, Counters, Engine, HandRun, Record, HAND_STAGES};
use crate::run::{self, Inputs, Metric, Problems, Report, THINK_MAX};
use crate::stats::{self, median};
use crate::workloads::{Rng, Workload};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Index of the op (or ingest batch) the span belongs to.
    pub op: usize,
    pub start: Instant,
    pub end: Instant,
    /// Index in the span list of the span this one ran inside.
    pub parent: Option<usize>,
}

#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    fn push(
        &mut self,
        name: &'static str,
        op: usize,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.0.push(Span {
            name,
            op,
            start,
            end,
            parent,
        });
        self.0.len() - 1
    }

    /// Chrome trace-event JSON: one complete event per span, ops as
    /// threads, times relative to the first span.
    pub fn chrome_json(&self) -> String {
        let origin = self.0.iter().map(|s| s.start).min();
        let events: Vec<String> = self
            .0
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                    s.name,
                    s.op,
                    stats::micros(s.start - origin.expect("a span exists")),
                    stats::micros(s.end - s.start),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// The median, or 0 for a layer the workload never entered.
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `GET /admin/metrics.json`, the fields the per-layer metrics read.
#[derive(Clone, Copy, Default)]
struct AdminCounts {
    plan_cache_hits: f64,
    plan_cache_misses: f64,
    wal_fsyncs: f64,
    wal_bytes: f64,
}

fn admin_counts(addr: SocketAddr) -> AdminCounts {
    let reply =
        client::request(addr, "GET", "/admin/metrics.json", b"").expect("GET /admin/metrics.json");
    assert_eq!(reply.status, 200, "GET /admin/metrics.json");
    let json = layers::json_parse(&String::from_utf8_lossy(&reply.body)).expect("metrics are JSON");
    let read = |path: &[&str]| {
        layers::json_number(&json, path)
            .unwrap_or_else(|| panic!("metrics.json has no number at {path:?}"))
    };
    AdminCounts {
        plan_cache_hits: read(&["plan_cache", "hits"]),
        plan_cache_misses: read(&["plan_cache", "misses"]),
        wal_fsyncs: read(&["durability", "wal_fsyncs"]),
        wal_bytes: read(&["durability", "wal_bytes"]),
    }
}

/// Share of `--seconds` for the plain window that precedes the traced
/// loop; the traced loop has the rest.
const PLAIN_SHARE: f64 = 0.3;
/// The traced loop runs an op through the library and by hand at least
/// [`MIN_REPEATS`] times each, and again, up to [`MAX_REPEATS`], while
/// the op has taken less than [`REPEAT_BUDGET`]: a sub-millisecond op
/// needs many runs before its minimum settles, a 30 ms op cannot afford
/// them.
const MIN_REPEATS: usize = 2;
const MAX_REPEATS: usize = 8;
const REPEAT_BUDGET: Duration = Duration::from_millis(20);
/// Ops the traced loop runs at most.
const TRACED_OPS: usize = 200;
/// Inputs of each micro-measurement of a single function.
const SAMPLE: usize = 1000;

/// What sending the first half of the tail's batches two ways,
/// alternately, measured: over HTTP, and parsed and inserted through the
/// library.
struct IngestTrace {
    http_us: Vec<f64>,
    insert_us: Vec<f64>,
}

fn trace_ingest(
    w: &Workload,
    engine: &Engine,
    inputs: &Inputs,
    spans: &mut Spans,
    rng: &mut Rng,
) -> IngestTrace {
    let path = format!("/ingest/{}", w.data.dataset());
    let mut out = IngestTrace {
        http_us: Vec::new(),
        insert_us: Vec::new(),
    };
    for (i, batch) in inputs.batches[..inputs.batches.len() / 2]
        .iter()
        .enumerate()
    {
        if i % 2 == 0 {
            std::thread::sleep(THINK_MAX.mul_f64(rng.unit()));
            let start = Instant::now();
            let reply = client::request(engine.addr(), "POST", &path, batch).expect("ingest");
            assert_eq!(reply.status, 200, "traced ingest batch {i}");
            spans.push("server.ingest_http", i, start, reply.last_byte_at, None);
            out.http_us.push(stats::micros(reply.last_byte_at - start));
        } else {
            let start = Instant::now();
            let text = String::from_utf8_lossy(batch);
            let records: Vec<Record> = text
                .lines()
                .map(|line| layers::json_parse(line).expect("generated record"))
                .collect();
            let parsed = Instant::now();
            let batch_span = spans.push("library-ingest", i, start, parsed, None);
            spans.push("adm.json_parse", i, start, parsed, Some(batch_span));
            for record in records {
                let t = Instant::now();
                let took = engine.insert(record);
                spans.push("core.insert", i, t, t + took, Some(batch_span));
                out.insert_us.push(stats::micros(took));
            }
            spans.0[batch_span].end = Instant::now();
        }
    }
    out
}

/// One op, three ways.
struct OpTrace {
    hand: HandRun,
    query_us: f64,
    compile_us: f64,
    http_us: f64,
    first_byte_us: f64,
    body_bytes: usize,
    rows: u64,
    index_candidates: u64,
}

impl OpTrace {
    /// HTTP − library: what the server adds to `core`.
    fn server_self_us(&self) -> f64 {
        self.http_us - self.query_us
    }

    /// Library − its compile − `run_job` by hand: what `core` adds to the
    /// compiler and the executor.
    fn core_self_us(&self) -> f64 {
        self.query_us - self.compile_us - self.hand_us("hyracks.run_job")
    }

    fn hand_us(&self, stage: &str) -> f64 {
        stats::micros(self.hand.stage(stage))
    }
}

fn trace_op(
    engine: &Engine,
    op_index: usize,
    statement: &str,
    want_rows: u64,
    spans: &mut Spans,
    rng: &mut Rng,
) -> OpTrace {
    let op_start = Instant::now();
    let root = spans.push("op", op_index, op_start, op_start, None);

    // Library and by-hand alternate, and each way keeps its faster run:
    // the first execution of a statement fills the plan and postings
    // caches for whichever way comes next, and the work is deterministic,
    // so the minimum is the run least disturbed.
    let mut library: Option<layers::LibraryRun> = None;
    let mut hand: Option<HandRun> = None;
    for repeat in 0..MAX_REPEATS {
        if repeat >= MIN_REPEATS && op_start.elapsed() >= REPEAT_BUDGET {
            break;
        }
        let start = Instant::now();
        let run = engine.query_library(statement);
        spans.push("core.query", op_index, start, start + run.total, Some(root));
        if library.as_ref().is_none_or(|best| run.total < best.total) {
            library = Some(run);
        }

        let run = engine.query_by_hand(statement);
        let hand_span = spans.push(
            "by-hand",
            op_index,
            run.stages[0].0,
            run.stages[HAND_STAGES.len() - 1].1,
            Some(root),
        );
        for (name, (start, end)) in HAND_STAGES.iter().zip(&run.stages) {
            spans.push(name, op_index, *start, *end, Some(hand_span));
        }
        let run_job = |r: &HandRun| r.stage("hyracks.run_job");
        if hand
            .as_ref()
            .is_none_or(|best| run_job(&run) < run_job(best))
        {
            hand = Some(run);
        }
    }
    let (library, hand) = (
        library.expect("MIN_REPEATS > 0"),
        hand.expect("MIN_REPEATS > 0"),
    );
    std::thread::sleep(THINK_MAX.mul_f64(rng.unit()));
    let start = Instant::now();
    let reply = client::request(
        engine.addr(),
        "POST",
        "/query",
        &client::query_body(statement),
    )
    .expect("query");
    let http = spans.push(
        "server.http",
        op_index,
        start,
        reply.last_byte_at,
        Some(root),
    );
    let first = reply.first_body_at.unwrap_or(reply.last_byte_at);
    spans.push("server.first_byte", op_index, start, first, Some(http));
    spans.0[root].end = reply.last_byte_at;

    let summary = reply.ndjson_summary();
    assert!(
        reply.status == 200
            && summary.done
            && [hand.rows, library.rows, summary.rows as u64] == [want_rows; 3],
        "{statement}: oracle {want_rows} rows, by hand {}, library {}, http {} (status {})",
        hand.rows,
        library.rows,
        summary.rows,
        reply.status
    );
    OpTrace {
        hand,
        query_us: stats::micros(library.total),
        compile_us: stats::micros(library.compile),
        http_us: stats::micros(reply.last_byte_at - start),
        first_byte_us: stats::micros(first - start),
        body_bytes: reply.body.len(),
        rows: library.rows,
        index_candidates: library.index_candidates,
    }
}

/// Nanoseconds per item of `f` over `items`, the items and results kept
/// from the optimiser.
fn ns_per_item<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for item in items {
        std::hint::black_box(f(std::hint::black_box(item)));
    }
    stats::micros(start.elapsed()) * 1e3 / items.len() as f64
}

/// Single functions of `adm`, `simfn` and `storage` on the workload's own
/// records.
fn micro_metrics(
    w: &Workload,
    engine: &Engine,
    inputs: &Inputs,
    rng: &mut Rng,
    out: &mut Vec<Metric>,
) {
    let sample: Vec<&Record> = (0..SAMPLE)
        .map(|_| &inputs.base[rng.below(inputs.base.len())])
        .collect();
    let texts: Vec<&str> = sample
        .iter()
        .map(|r| layers::record_str(r, w.data.text_field()))
        .collect();
    let names: Vec<&str> = sample
        .iter()
        .map(|r| layers::record_str(r, w.data.name_field()))
        .collect();
    let token_lists: Vec<Vec<String>> = texts.iter().map(|t| layers::word_tokens(t)).collect();
    let pairs: Vec<(usize, usize)> = (0..SAMPLE).map(|i| (i, rng.below(SAMPLE))).collect();
    let encoded: Vec<Vec<u8>> = sample.iter().map(|r| layers::binary_encode(r)).collect();
    let lines: Vec<String> = sample.iter().map(|r| layers::json_text(r)).collect();
    let rows: Vec<Record> = (0..SAMPLE as i64)
        .map(|i| layers::pair_row(i, i * 7))
        .collect();

    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    push(
        "adm.encode_ns_per_rec",
        ns_per_item(&sample, |r| layers::binary_encode(r)),
        "ns",
    );
    push(
        "adm.decode_ns_per_rec",
        ns_per_item(&encoded, |b| layers::binary_decode(b)),
        "ns",
    );
    push(
        "adm.json_write_ns_per_row",
        ns_per_item(&rows, layers::json_text),
        "ns",
    );
    push(
        "adm.json_parse_ns_per_rec",
        ns_per_item(&lines, |l| {
            layers::json_parse(l).expect("a record this program wrote")
        }),
        "ns",
    );
    push(
        "simfn.jaccard_ns_per_pair",
        ns_per_item(&pairs, |(a, b)| {
            layers::jaccard(&token_lists[*a], &token_lists[*b])
        }),
        "ns",
    );
    push(
        "simfn.edit_distance_ns_per_pair",
        ns_per_item(&pairs, |(a, b)| layers::edit_distance(names[*a], names[*b])),
        "ns",
    );
    push(
        "simfn.word_tokens_ns_per_rec",
        ns_per_item(&texts, |t| layers::word_tokens(t)),
        "ns",
    );
    push(
        "simfn.gram_tokens_ns_per_rec",
        ns_per_item(&names, |n| layers::gram_tokens(n, 2)),
        "ns",
    );

    // The index funnel, one function at a time: T-occurrence candidates
    // for a Jaccard 0.5 probe, then a sorted batch of primary lookups.
    let mut tocc_us = Vec::new();
    if w.indexed {
        for tokens in token_lists.iter().take(64).filter(|t| !t.is_empty()) {
            let t = (tokens.len() as f64 * 0.5).ceil() as usize;
            let (took, candidates) = engine.storage_keyword_candidates(tokens, t.max(1));
            std::hint::black_box(candidates);
            tocc_us.push(stats::micros(took));
        }
    }
    push("storage.tocc_us_per_probe", median_or_zero(&tocc_us), "us");
    let mut ids: Vec<i64> = (0..256)
        .map(|_| rng.below(inputs.base.len()) as i64)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let (took, found) = engine.storage_get_many(&ids);
    assert_eq!(
        found,
        ids.len(),
        "every base id is in exactly one partition"
    );
    push(
        "storage.get_many_us_per_key",
        stats::micros(took) / ids.len() as f64,
        "us",
    );
    let (took, records) = engine.storage_scan();
    push(
        "storage.scan_us_per_krec",
        stats::micros(took) / (records as f64 / 1e3),
        "us",
    );
}

/// Medians over the traced ops of what each way took, and the counts the
/// executor returned.
fn op_metrics(ops: &[OpTrace]) -> Vec<Metric> {
    let n = ops.len() as f64;
    let med = |f: &dyn Fn(&OpTrace) -> f64| median(&ops.iter().map(f).collect::<Vec<f64>>());
    let sum = |f: &dyn Fn(&OpTrace) -> f64| ops.iter().map(f).sum::<f64>();
    let op_us =
        |name: &'static str| med(&|o| o.hand.op_time.get(name).map_or(0.0, |d| stats::micros(*d)));
    let rows = sum(&|o| o.rows as f64);
    [
        ("server.http_us", med(&|o| o.http_us), "us"),
        ("server.self_us", med(&OpTrace::server_self_us), "us"),
        ("server.first_byte_us", med(&|o| o.first_byte_us), "us"),
        (
            "server.ndjson_bytes_per_op",
            sum(&|o| o.body_bytes as f64) / n,
            "B",
        ),
        ("aql.parse_us", med(&|o| o.hand_us("aql.parse")), "us"),
        (
            "aql.translate_us",
            med(&|o| o.hand_us("aql.translate")),
            "us",
        ),
        (
            "algebricks.optimize_us",
            med(&|o| o.hand_us("algebricks.optimize")),
            "us",
        ),
        (
            "algebricks.jobgen_us",
            med(&|o| o.hand_us("algebricks.jobgen")),
            "us",
        ),
        (
            "algebricks.rules_fired",
            med(&|o| o.hand.rules_fired as f64),
            "count",
        ),
        ("core.query_us", med(&|o| o.query_us), "us"),
        ("core.self_us", med(&OpTrace::core_self_us), "us"),
        (
            "hyracks.run_job_us",
            med(&|o| o.hand_us("hyracks.run_job")),
            "us",
        ),
        (
            "hyracks.op_us.secondary-index-search",
            op_us("secondary-index-search"),
            "us",
        ),
        (
            "hyracks.op_us.primary-index-lookup",
            op_us("primary-index-lookup"),
            "us",
        ),
        ("hyracks.op_us.select", op_us("select"), "us"),
        ("hyracks.op_us.result-sink", op_us("result-sink"), "us"),
        ("hyracks.op_us.dataset-scan", op_us("dataset-scan"), "us"),
        ("hyracks.op_us.hash-group-by", op_us("hash-group-by"), "us"),
        ("hyracks.op_us.hash-join", op_us("hash-join"), "us"),
        ("hyracks.op_us.sort", op_us("sort"), "us"),
        (
            "hyracks.frames_per_op",
            sum(&|o| o.hand.frames as f64) / n,
            "count",
        ),
        (
            "hyracks.bytes_emitted_per_op",
            sum(&|o| o.hand.bytes_emitted as f64) / n,
            "B",
        ),
        (
            "hyracks.tuples_in_per_row",
            ratio(sum(&|o| o.hand.tuples_in as f64), rows),
            "ratio",
        ),
        (
            "storage.candidates_per_result",
            ratio(sum(&|o| o.index_candidates as f64), rows),
            "ratio",
        ),
    ]
    .map(|(name, value, unit)| Metric::new(name, value, unit))
    .into()
}

/// What the instance has counted so far.
struct Snapshot {
    admin: AdminCounts,
    counters: Counters,
    index_bytes: u64,
}

impl Snapshot {
    fn take(engine: &Engine) -> Snapshot {
        Snapshot {
            admin: admin_counts(engine.addr()),
            counters: engine.counters(),
            index_bytes: engine.index_bytes(),
        }
    }
}

/// `trace_file`: where to write the spans as a Chrome trace, if anywhere.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    trace_file: Option<&Path>,
) -> Report {
    let inputs = Inputs::generate(w, seed);
    let mut problems = Problems::default();
    let mut spans = Spans::default();
    let mut rng = Rng::new(seed ^ 0x7ace);
    let mut metrics: Vec<Metric> = Vec::new();

    // A fresh instance, set up once.
    let spec = run::engine_spec(w, &scratch.join("traced"));
    let (engine, setup) = layers::setup(&spec, inputs.base.to_vec());
    let addr = engine.addr();
    let load_rate = inputs.base.len() as f64 / setup.load.as_secs_f64();
    metrics.extend([
        Metric::new("core.load_rec_per_s", load_rate, "1/s"),
        Metric::new(
            "core.index_build_ms.keyword",
            stats::millis(setup.keyword_build),
            "ms",
        ),
        Metric::new(
            "core.index_build_ms.ngram",
            stats::millis(setup.ngram_build),
            "ms",
        ),
    ]);

    // Ingest: the first half of the tail two ways, the other half as the
    // untraced run sends it; then what all of it wrote, per record and byte.
    let before = Snapshot::take(&engine);
    let ingest = trace_ingest(w, &engine, &inputs, &mut spans, &mut rng);
    let rest = &inputs.batches[inputs.batches.len() / 2..];
    let ingest_failed = run::ingest(addr, w.data.dataset(), rest, None).failed;
    let after = Snapshot::take(&engine);
    let tail_records = inputs.tail.len() as f64;
    let tail_bytes: f64 = inputs.batches.iter().map(|b| b.len() as f64).sum();
    let http_us = median_or_zero(&ingest.http_us);
    let insert_us = median_or_zero(&ingest.insert_us);
    let written = (after.admin.wal_bytes - before.admin.wal_bytes)
        + (after.index_bytes as f64 - before.index_bytes as f64);
    let flushes = after.counters.flushes - before.counters.flushes;
    let merges = after.counters.merges - before.counters.merges;
    metrics.extend([
        Metric::new("server.ingest_http_us", http_us, "us"),
        Metric::new(
            "server.ingest_self_us",
            http_us - w.batch_records as f64 * insert_us,
            "us",
        ),
        Metric::new("core.insert_us_per_rec", insert_us, "us"),
        Metric::new(
            "storage.wal_fsyncs_per_rec",
            (after.admin.wal_fsyncs - before.admin.wal_fsyncs) / tail_records,
            "count",
        ),
        Metric::new("storage.write_amp", written / tail_bytes, "ratio"),
        Metric::new("storage.flushes", flushes as f64, "count"),
        Metric::new("storage.merges", merges as f64, "count"),
    ]);
    let checked = inputs.checked_statements();
    run::check_results(addr, &inputs, &checked, true, 1, &mut problems);

    // The workload's reads as they are, one client, nothing traced: the
    // counts of a natural run, and the latency the traced loop is compared
    // with. No feed runs beside them: a layer's cost is measured alone.
    let one_client = Workload { clients: 1, ..*w };
    let before = Snapshot::take(&engine);
    let plain_length = Duration::from_secs_f64(seconds * PLAIN_SHARE);
    let plain = run::window(&one_client, addr, &inputs, plain_length, None, true);
    let after = Snapshot::take(&engine);
    let plain_log = &plain.clients[0];
    let plan_hits = after.admin.plan_cache_hits - before.admin.plan_cache_hits;
    let plan_misses = after.admin.plan_cache_misses - before.admin.plan_cache_misses;
    let page_hits = (after.counters.cache_hits - before.counters.cache_hits) as f64;
    let page_misses = (after.counters.cache_misses - before.counters.cache_misses) as f64;

    // Each op three ways, for the rest of the time.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - PLAIN_SHARE));
    let mut ops: Vec<OpTrace> = Vec::new();
    for (i, op) in inputs.ops.iter().take(TRACED_OPS).enumerate() {
        if i >= stats::SAMPLES_BEYOND * 2 && Instant::now() >= deadline {
            break;
        }
        let expected = &inputs.expected[&op.statement];
        let want_rows = (expected.base.len() + expected.tail.len()) as u64;
        ops.push(trace_op(
            &engine,
            i,
            &op.statement,
            want_rows,
            &mut spans,
            &mut rng,
        ));
    }
    metrics.extend(op_metrics(&ops));
    metrics.extend([
        Metric::new(
            "core.plan_cache_hit_share",
            ratio(plan_hits, plan_hits + plan_misses),
            "ratio",
        ),
        Metric::new(
            "storage.cache_hit_share",
            ratio(page_hits, page_hits + page_misses),
            "ratio",
        ),
        Metric::new(
            "storage.pages_read_per_op",
            ratio(page_misses, plain_log.latency.len() as f64),
            "count",
        ),
    ]);
    micro_metrics(w, &engine, &inputs, &mut rng, &mut metrics);

    // Restart: the recovery time of a durable instance.
    engine.shutdown();
    let recovery = if w.durable {
        run::check_durability(w, &spec, &inputs, inputs.tail.len(), seed, &mut problems)
    } else {
        Duration::ZERO
    };
    metrics.push(Metric::new(
        "storage.recovery_ms",
        stats::millis(recovery),
        "ms",
    ));

    // How far the numbers above can be trusted: the share of ops on which
    // a wrapper came out cheaper than what it wraps by more than 5 %, and
    // the traced HTTP latency against the plain window's.
    let negative = ops
        .iter()
        .filter(|o| o.server_self_us() < -0.05 * o.http_us || o.core_self_us() < -0.05 * o.query_us)
        .count();
    let traced_http: Vec<f64> = ops.iter().map(|o| o.http_us).collect();
    let plain_http: Vec<f64> = plain_log
        .latency
        .iter()
        .map(|d| stats::micros(*d))
        .collect();
    metrics.extend([
        Metric::new(
            "trace.negative_self_share",
            negative as f64 / ops.len() as f64,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_share",
            ratio(median(&traced_http), median_or_zero(&plain_http)) - 1.0,
            "ratio",
        ),
    ]);

    if let Some(file) = trace_file {
        std::fs::write(file, spans.chrome_json()).expect("write trace file");
    }
    Report {
        problems,
        attempted: plain_log.attempted + ops.len() as u64 * 3 + inputs.batches.len() as u64,
        failed: plain_log.failed + ingest_failed as u64,
        metrics,
        notes: vec![format!(
            "{} ops traced three ways, {} ops in the plain window, {} spans",
            ops.len(),
            plain_log.latency.len(),
            spans.0.len()
        )],
    }
}
