//! One untraced run of one workload: set-up, tail ingest, correctness
//! checks, warm-up, the measured window, and the checks after it. The
//! end-to-end metrics come from here, with nothing of the benchmark's
//! tracing in the way.

use crate::client::{self, Reply};
use crate::layers::{self, Engine, EngineSpec, Record, SetupTimes};
use crate::oracle::{self, Corpus, Interner};
use crate::stats::{self, OpenLoopSample, Schedule};
use crate::workloads::{Op, Rng, Workload, PLAN_RULES};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `setup_s` is the median of a run's set-ups after the first
/// [`SETUP_WARMUPS`], and the last one is the instance the run measures.
/// The first set-ups of a process run on memory it has never touched and
/// take about twice as long as the rest. A run sets up at least
/// [`MIN_SETUPS`] times and goes on, up to [`MAX_SETUPS`], while the
/// set-ups so far took less than [`SETUP_BUDGET`]: a set-up of a
/// millisecond needs many samples for a steady median, a set-up of half a
/// second cannot afford them.
pub const SETUP_WARMUPS: usize = 2;
pub const MIN_SETUPS: usize = 7;
pub const MAX_SETUPS: usize = 40;
pub const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Unmeasured closed-loop traffic before the window, as a share of the
/// window: 1 s before the 15 s of `BENCHMARK.json`.
pub const WARMUP_SHARE: f64 = 1.0 / 15.0;
/// Statements whose whole result is compared with the oracle's before the
/// window. Inside the window every op's row count is.
pub const EXACT_CHECKS: usize = 32;
/// A closed-loop client waits a seeded random time up to this before each
/// request. Without it a client's next request follows the previous
/// response at once, its arrivals lock onto the phase of whatever timer
/// the server polls with, and every latency reads as a whole number of
/// timer periods, whatever the engine did.
pub const THINK_MAX: Duration = Duration::from_millis(10);

/// The inputs of a run, all derived from the seed.
pub struct Inputs {
    pub base: Vec<Record>,
    pub tail: Vec<Record>,
    pub ops: Vec<Op>,
    /// For each distinct statement, the oracle's rows over the base
    /// records and the further rows the tail records add.
    pub expected: BTreeMap<String, Expected>,
    /// JSON bytes of the base records and of each tail batch.
    pub base_json_bytes: u64,
    pub batches: Vec<Vec<u8>>,
}

pub struct Expected {
    pub base: Vec<String>,
    pub tail: Vec<String>,
}

impl Expected {
    fn rows(&self, with_tail: bool) -> Vec<String> {
        let mut rows = self.base.clone();
        if with_tail {
            rows.extend(self.tail.iter().cloned());
            rows.sort_unstable();
        }
        rows
    }
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let (base, tail) = w.records(seed);
        let ops = w.ops(&base, seed);
        let mut interner = Interner::default();
        let base_corpus = Corpus::new(w.data, &base, &mut interner);
        let tail_corpus = Corpus::new(w.data, &tail, &mut interner);
        let mut expected = BTreeMap::new();
        for op in &ops {
            if !expected.contains_key(&op.statement) {
                let rows = Expected {
                    base: base_corpus.answer(&op.predicate, &base_corpus, &mut interner),
                    tail: tail_corpus.answer(&op.predicate, &base_corpus, &mut interner),
                };
                expected.insert(op.statement.clone(), rows);
            }
        }
        let base_json_bytes = base
            .iter()
            .map(|r| layers::json_text(r).len() as u64 + 1)
            .sum();
        let batches = tail
            .chunks(w.batch_records)
            .map(|chunk| {
                let mut body = String::new();
                for r in chunk {
                    body.push_str(&layers::json_text(r));
                    body.push('\n');
                }
                body.into_bytes()
            })
            .collect();
        Inputs {
            base,
            tail,
            ops,
            expected,
            base_json_bytes,
            batches,
        }
    }

    pub fn distinct_statements(&self) -> Vec<&str> {
        self.expected.keys().map(String::as_str).collect()
    }

    /// The first [`EXACT_CHECKS`] distinct statements of the op list, which
    /// is shuffled, so every template of the mix is among them.
    pub fn checked_statements(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for op in &self.ops {
            if seen.len() < EXACT_CHECKS && !seen.contains(&op.statement.as_str()) {
                seen.push(op.statement.as_str());
            }
        }
        seen
    }
}

pub fn engine_spec(w: &Workload, dir: &Path) -> EngineSpec {
    EngineSpec {
        data: w.data,
        indexed: w.indexed,
        data_dir: w.durable.then(|| dir.to_path_buf()),
        cache_pages: w.cache_pages,
    }
}

/// Set up repeatedly, each time in a directory of its own under
/// `scratch`; every instance but the last is shut down and removed.
pub fn set_up(w: &Workload, base: &[Record], scratch: &Path) -> (Engine, Vec<SetupTimes>) {
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut kept: Option<Engine> = None;
    for i in 0..MAX_SETUPS {
        let spent: Duration = times.iter().map(|t| t.total).sum();
        if i >= MIN_SETUPS && spent >= SETUP_BUDGET {
            break;
        }
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let spec = engine_spec(w, &scratch.join(format!("setup-{i}")));
        // Copying the records is the generator's work, not the program's.
        let records = base.to_vec();
        let (engine, t) = layers::setup(&spec, records);
        times.push(t);
        kept = Some(engine);
    }
    (kept.expect("MIN_SETUPS > 0"), times)
}

/// Shut an engine down and remove its data directory.
pub fn discard(engine: Engine) {
    let dir: Option<PathBuf> = engine.spec().data_dir.clone();
    engine.shutdown();
    if let Some(dir) = dir {
        remove_dir(&dir);
    }
}

/// Remove `dir` and everything in it; absent is fine.
pub fn remove_dir(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("remove {}: {e}", dir.display()),
    }
}

/// What went wrong, in the words the final report prints.
#[derive(Default)]
pub struct Problems(pub Vec<String>);

impl Problems {
    pub fn note(&mut self, what: String) {
        if self.0.len() < 20 {
            eprintln!("e2e: {what}");
        }
        self.0.push(what);
    }
}

/// Every statement of the workload must fire its rule; a scan workload
/// must fire none of the plan rules.
pub fn check_plans(w: &Workload, engine: &Engine, statements: &[&str], problems: &mut Problems) {
    for statement in statements {
        let fired = engine.rules_fired(statement);
        let used = |rule: &str| fired.iter().any(|(name, _)| name == rule);
        let ok = match w.rule {
            Some(rule) => used(rule),
            None => !PLAN_RULES.iter().any(|rule| used(rule)),
        };
        if !ok {
            problems.note(format!(
                "plan: expected {:?}, fired {fired:?} on {statement}",
                w.rule
            ));
        }
    }
}

fn post_query(addr: SocketAddr, statement: &str) -> std::io::Result<Reply> {
    client::request(addr, "POST", "/query", &client::query_body(statement))
}

/// Compare the HTTP result of each statement, as a multiset of rows, with
/// the oracle's. `clients` connections share the statements.
pub fn check_results(
    addr: SocketAddr,
    inputs: &Inputs,
    statements: &[&str],
    with_tail: bool,
    clients: usize,
    problems: &mut Problems,
) {
    let found: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut found = Vec::new();
                    for statement in statements.iter().skip(c).step_by(clients) {
                        let want = inputs.expected[*statement].rows(with_tail);
                        match post_query(addr, statement) {
                            Ok(reply) => {
                                let summary = reply.ndjson_summary();
                                let got = oracle::canonical_rows(&reply.row_texts());
                                if reply.status != 200 || !summary.done || got.as_ref() != Ok(&want)
                                {
                                    found.push(format!(
                                        "result: status {} done {} rows {} want {} on {statement}",
                                        reply.status,
                                        summary.done,
                                        summary.rows,
                                        want.len()
                                    ));
                                }
                            }
                            Err(e) => found.push(format!("result: {e} on {statement}")),
                        }
                    }
                    found
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checking client"))
            .collect()
    });
    for what in found.into_iter().flatten() {
        problems.note(what);
    }
}

/// The outcome of sending a list of ingest batches.
#[derive(Default)]
pub struct Ingested {
    pub samples: Vec<OpenLoopSample>,
    pub acked_batches: usize,
    pub failed: usize,
    /// First due time to last acknowledgement.
    pub wall: Duration,
}

/// POST each batch and wait for its `200`. With a schedule, batch `i` is
/// sent at its due time, or at once when that has passed, and its latency
/// runs from the due time; without one the loop is closed and a batch is
/// due when the one before it is acknowledged.
pub fn ingest(
    addr: SocketAddr,
    dataset: &str,
    batches: &[Vec<u8>],
    schedule: Option<Schedule>,
) -> Ingested {
    let path = format!("/ingest/{dataset}");
    let started = schedule.map_or_else(Instant::now, |s| s.start);
    let mut out = Ingested::default();
    let mut last_ack = started;
    let mut rng = Rng::new(batches.len() as u64 ^ 0x7417);
    for (i, batch) in batches.iter().enumerate() {
        let due = match schedule {
            Some(s) => {
                let due = s.due(i);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                due
            }
            None => {
                std::thread::sleep(THINK_MAX.mul_f64(rng.unit()));
                Instant::now()
            }
        };
        let sent = Instant::now();
        match client::request(addr, "POST", &path, batch) {
            Ok(reply) if reply.status == 200 => {
                out.samples
                    .push(OpenLoopSample::new(due, sent, reply.last_byte_at));
                out.acked_batches += 1;
                last_ack = reply.last_byte_at;
            }
            Ok(reply) => {
                eprintln!("e2e: ingest batch {i}: status {}", reply.status);
                out.failed += 1;
            }
            Err(e) => {
                eprintln!("e2e: ingest batch {i}: {e}");
                out.failed += 1;
            }
        }
    }
    out.wall = last_ack - started;
    out
}

/// One client's share of a window.
#[derive(Default)]
pub struct ClientLog {
    /// Request sent → last byte, of each correct op.
    pub latency: Vec<Duration>,
    /// Request sent → first body byte, of each correct op.
    pub first_row: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
}

/// Where the tail records are while a client runs, which decides the row
/// count the oracle allows an op.
#[derive(Clone, Copy)]
pub enum Tail {
    /// Not sent yet: the answer over the base records.
    Absent,
    /// Being ingested beside the reads: at least the answer over the base
    /// records, at most that plus the tail's rows.
    Arriving,
    /// All acknowledged: the answer over base and tail.
    In,
}

/// Run `ops` closed-loop from `offset`, cycling, until `stop` is set. An op
/// is correct when it answers 200, ends with a `done` line and has a row
/// count the oracle allows.
pub fn client_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    offset: usize,
    tail: Tail,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(offset as u64 ^ 0x7417);
    for op in inputs.ops.iter().cycle().skip(offset) {
        std::thread::sleep(THINK_MAX.mul_f64(rng.unit()));
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let expected = &inputs.expected[&op.statement];
        let (base, full) = (
            expected.base.len(),
            expected.base.len() + expected.tail.len(),
        );
        let (low, high) = match tail {
            Tail::Absent => (base, base),
            Tail::Arriving => (base, full),
            Tail::In => (full, full),
        };
        log.attempted += 1;
        let sent = Instant::now();
        let ok = match post_query(addr, &op.statement) {
            Ok(reply) => {
                let summary = reply.ndjson_summary();
                let ok = reply.status == 200
                    && reply.complete
                    && summary.done
                    && !summary.error
                    && (low..=high).contains(&summary.rows);
                if ok {
                    log.latency.push(reply.last_byte_at - sent);
                    log.first_row
                        .push(reply.first_body_at.unwrap_or(reply.last_byte_at) - sent);
                }
                ok
            }
            Err(_) => false,
        };
        if !ok {
            log.failed += 1;
        }
    }
    log
}

/// A measured (or warm-up) window.
pub struct Window {
    pub clients: Vec<ClientLog>,
    pub ingested: Option<Ingested>,
    pub wall: Duration,
    pub cpu: Duration,
}

/// The workload's clients for `length`, and beside them an open-loop
/// feeder of the batches in `feed`, spread evenly over `length`.
/// `tail_in`: the tail was ingested before.
pub fn window(
    w: &Workload,
    addr: SocketAddr,
    inputs: &Inputs,
    length: Duration,
    feed: Option<&[Vec<u8>]>,
    tail_in: bool,
) -> Window {
    let tail = match (feed, tail_in) {
        (Some(_), _) => Tail::Arriving,
        (None, true) => Tail::In,
        (None, false) => Tail::Absent,
    };
    let stop = AtomicBool::new(false);
    let cpu_before = stats::process_cpu();
    let started = Instant::now();
    let (clients, ingested) = std::thread::scope(|scope| {
        let stop = &stop;
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let offset = c * inputs.ops.len() / w.clients;
                scope.spawn(move || client_loop(addr, inputs, offset, tail, stop))
            })
            .collect();
        let feeder = feed.map(|batches| {
            let schedule = Schedule {
                start: started,
                interval: length / batches.len() as u32,
            };
            scope.spawn(move || ingest(addr, w.data.dataset(), batches, Some(schedule)))
        });
        std::thread::sleep(length);
        stop.store(true, Ordering::Relaxed);
        let clients: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (clients, feeder.map(|h| h.join().expect("feeder thread")))
    });
    Window {
        clients,
        ingested,
        wall: started.elapsed(),
        cpu: stats::process_cpu() - cpu_before,
    }
}

/// After a shutdown: open the same directory again, and every record
/// acknowledged before the shutdown must be there, counted and found by
/// a query. Returns the recovery time.
pub fn check_durability(
    w: &Workload,
    spec: &EngineSpec,
    inputs: &Inputs,
    acked_records: usize,
    seed: u64,
    problems: &mut Problems,
) -> Duration {
    let (engine, recovery) = layers::reopen(spec);
    let want = (inputs.base.len() + acked_records) as u64;
    let got = engine.count_records();
    if got != want {
        problems.note(format!(
            "durability: {got} records after restart, {want} acknowledged"
        ));
    }
    let mut rng = Rng::new(seed ^ 0xd07a);
    for _ in 0..8 {
        let record = &inputs.tail[rng.below(acked_records.max(1))];
        let id = layers::record_id(record);
        let text = layers::record_str(record, w.data.text_field());
        if text.contains('\'') || layers::word_tokens(text).is_empty() {
            continue;
        }
        let statement = format!(
            "for $t in dataset {} where similarity-jaccard(word-tokens($t.{}), word-tokens('{text}')) >= 1.0 return $t.id",
            w.data.dataset(),
            w.data.text_field()
        );
        let found = post_query(engine.addr(), &statement)
            .map(|reply| reply.row_texts().contains(&id.to_string()))
            .unwrap_or(false);
        if !found {
            problems.note(format!(
                "durability: acknowledged record {id} not found after restart"
            ));
        }
    }
    discard(engine);
    recovery
}

/// One measured number. The value is `None` when the run was too short
/// for it: a p95 of fewer than 200 samples is not reported.
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: Some(value),
            unit,
        }
    }
}

/// What a run, untraced or traced, reports.
pub struct Report {
    pub problems: Problems,
    pub attempted: u64,
    pub failed: u64,
    /// In the order of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Sample counts and the like, for the reader.
    pub notes: Vec<String>,
}

fn all_millis(samples: impl Iterator<Item = Duration>) -> Vec<f64> {
    samples.map(stats::millis).collect()
}

pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Report {
    let mut clock = Instant::now();
    let mut phase = |name: &str| {
        eprintln!("e2e: {name} took {:.2} s", clock.elapsed().as_secs_f64());
        clock = Instant::now();
    };
    let inputs = Inputs::generate(w, seed);
    let statements = inputs.distinct_statements();
    let mut problems = Problems::default();
    phase("inputs and oracle");

    let (engine, setups) = set_up(w, &inputs.base, scratch);
    let addr = engine.addr();
    check_plans(w, &engine, &statements, &mut problems);
    phase("set-ups and plan check");

    // The tail: closed-loop now, or open-loop beside the window's reads.
    let before_window = (!w.feeder).then(|| ingest(addr, w.data.dataset(), &inputs.batches, None));
    let tail_in = before_window.is_some();
    phase("tail ingest");
    let checked = inputs.checked_statements();
    check_results(addr, &inputs, &checked, tail_in, w.clients, &mut problems);
    phase("result check");

    window(
        w,
        addr,
        &inputs,
        Duration::from_secs_f64(seconds * WARMUP_SHARE),
        None,
        tail_in,
    );
    let feed = w.feeder.then_some(inputs.batches.as_slice());
    let measured = window(
        w,
        addr,
        &inputs,
        Duration::from_secs_f64(seconds),
        feed,
        tail_in,
    );
    phase("warm-up and window");

    let ingested = match (before_window, measured.ingested) {
        (Some(i), _) | (None, Some(i)) => i,
        (None, None) => unreachable!("the tail is ingested before or during the window"),
    };
    let all_acked = ingested.acked_batches == inputs.batches.len();
    if w.feeder && all_acked {
        // With the whole tail acknowledged the full answer is exact again.
        check_results(addr, &inputs, &checked, true, w.clients, &mut problems);
    }

    let acked_records = ingested.acked_batches * w.batch_records;
    let loaded_json_bytes = inputs.base_json_bytes
        + inputs.batches[..ingested.acked_batches]
            .iter()
            .map(|b| b.len() as u64)
            .sum::<u64>();
    let space_amp = engine.index_bytes() as f64 / loaded_json_bytes as f64;

    let spec = engine.spec().clone();
    engine.shutdown();
    if w.durable {
        check_durability(w, &spec, &inputs, acked_records, seed, &mut problems);
    }
    phase("checks after the window");

    let latency = all_millis(
        measured
            .clients
            .iter()
            .flat_map(|c| c.latency.iter().copied()),
    );
    let first_row = all_millis(
        measured
            .clients
            .iter()
            .flat_map(|c| c.first_row.iter().copied()),
    );
    let acks = all_millis(ingested.samples.iter().map(|s| s.latency));
    let query_attempted: u64 = measured.clients.iter().map(|c| c.attempted).sum();
    let query_failed: u64 = measured.clients.iter().map(|c| c.failed).sum();
    let setup_totals: Vec<f64> = setups[SETUP_WARMUPS..]
        .iter()
        .map(|t| t.total.as_secs_f64())
        .collect();

    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_totals), "s"),
        Metric::new("lat_p50_ms", stats::median(&latency), "ms"),
        Metric {
            name: "lat_p95_ms".to_string(),
            value: stats::percentile(&latency, 95.0),
            unit: "ms",
        },
        Metric::new("ttfr_p50_ms", stats::median(&first_row), "ms"),
        Metric::new(
            "ops_per_s",
            latency.len() as f64 / measured.wall.as_secs_f64(),
            "1/s",
        ),
        Metric::new(
            "cpu_ms_per_op",
            stats::millis(measured.cpu) / latency.len() as f64,
            "ms",
        ),
        Metric::new("ingest_ack_p50_ms", stats::median(&acks), "ms"),
        Metric {
            name: "ingest_ack_p95_ms".to_string(),
            value: stats::percentile(&acks, 95.0),
            unit: "ms",
        },
        Metric::new(
            "ingest_rec_per_s",
            acked_records as f64 / ingested.wall.as_secs_f64(),
            "1/s",
        ),
        Metric::new("space_amp", space_amp, "ratio"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    let mut notes = vec![format!(
        "{} query ops on {} connection(s), {} ingest batches of {} records, {} distinct statements, {} set-ups",
        latency.len(),
        w.clients,
        acks.len(),
        w.batch_records,
        statements.len(),
        setups.len()
    )];
    if w.feeder {
        // How late the open-loop generator itself ran: a send long after
        // its due time means the feeder, not the server, held the batch.
        let lag = ingested
            .samples
            .iter()
            .map(|s| s.lag)
            .max()
            .unwrap_or_default();
        notes.push(format!(
            "open-loop feeder: latest send {:.3} ms after its due time",
            stats::millis(lag)
        ));
    }
    Report {
        problems,
        attempted: query_attempted + inputs.batches.len() as u64,
        failed: query_failed + ingested.failed as u64,
        metrics,
        notes,
    }
}
