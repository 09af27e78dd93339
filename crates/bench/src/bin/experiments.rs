//! Regenerate every table and figure of the paper's evaluation (§6) at
//! laptop scale, plus the DESIGN.md ablations.
//!
//! Usage:
//!   cargo run --release -p asterix-bench --bin experiments [-- <which>...]
//!
//! `<which>` ∈ {config, datasets, table5, table6, fig15, fig22a, fig22b,
//! fig24a, fig24b, fig25a, fig25b, fig27a, fig27bc, ablations, profile,
//! monitor, observe, concurrency, durability, serve, all}
//! (default: all). Scale via env
//! `ASTERIX_SCALE` (default 1.0 ≈ 20k Amazon records) and
//! `ASTERIX_PARTITIONS` (default 4).
//!
//! `profile` runs representative queries with per-query profiling and
//! writes the full `QueryProfile` of each to `BENCH_profile.json`.
//!
//! `monitor` runs the mixed workload (scans, index selections, index
//! joins) on worker threads racing a DML + flush thread while sampling
//! `Instance::metrics_snapshot()`, forces one slow-query capture, then
//! measures telemetry-enabled vs telemetry-disabled overhead on the same
//! workload. Writes `BENCH_telemetry.json` with per-class p50/p95/p99.
//!
//! `observe` starts the admin HTTP endpoint against a loaded instance
//! and exercises live introspection over real TCP: scrapes `/queries`,
//! `/health`, `/metrics`, `/lsm`, and `/slow` while the mixed workload
//! runs, asserts every scraped running-query entry is well-formed and
//! internally consistent (and that the registry drains to empty),
//! watches one long-running query appear with non-zero live operator
//! progress and cancels it via `POST /queries/<id>/cancel`, then
//! measures continuous-polling overhead against an unpolled baseline.
//! Writes `BENCH_observe.json`. `--quick` shrinks it for CI.
//!
//! `concurrency` drives N ∈ {1, 8, 32, 128} concurrent clients of the
//! mixed workload against (a) the pooled executor with admission control
//! (the default scheduler) and (b) the unbounded seed executor
//! (`SchedulerConfig::disabled()`), sampling the process's peak thread
//! count and the client-observed latency distribution at every level.
//! Writes `BENCH_concurrency.json`. `--quick` shrinks to N ∈ {1, 8, 16}
//! for CI.
//!
//! `durability` is the kill -9 torture harness: it spawns child writer
//! processes against a durable data directory and kills them for real —
//! via armed crash points (`ASTERIX_CRASH_POINT` ∈ {flush.mid,
//! merge.mid, manifest.rename}, each an `abort()` indistinguishable from
//! SIGKILL) and via plain `SIGKILL` at random moments mid-stream. After
//! every crash the parent reopens the directory in-process and asserts
//! zero acknowledged-write loss and scan ≡ index. Also measures startup
//! recovery time and WAL group-commit throughput. Writes
//! `BENCH_durability.json`. `--quick` shrinks the round counts for CI.
//!
//! `serve` exercises the `asterix-server` HTTP service end to end: (a)
//! streaming parity + latency — concurrent HTTP clients run the same
//! indexed similarity query as direct library threads at identical
//! concurrency, every streamed result set must match library execution
//! exactly, and the HTTP p95 must stay within 1.2× of the library p95;
//! (b) ingest durability — a child `asterix-server` process is fed
//! `POST /ingest` batches by concurrent feeders and killed with SIGKILL
//! mid-feed, after which the parent reopens the data directory and
//! asserts zero acknowledged-batch loss (a `200` answer means every
//! record in the batch survived the crash). Writes `BENCH_serve.json`.
//! `--quick` shrinks client and round counts for CI.
//!
//! Absolute times are not comparable with the paper's 8-node cluster; the
//! *shapes* (who wins, how ratios move with thresholds and sizes) are the
//! reproduction targets — see EXPERIMENTS.md.

use asterix_adm::IndexKind;
use asterix_algebricks::OptimizerConfig;
use asterix_bench::{avg_time, fmt_duration, print_table, WorkloadConfig, Workloads};
use asterix_core::{Instance, InstanceConfig, QueryOptions};
use asterix_datagen::{amazon_reviews, profile_field};
use std::time::Instant;

fn options(f: impl FnOnce(&mut OptimizerConfig)) -> QueryOptions {
    let mut cfg = OptimizerConfig::default();
    f(&mut cfg);
    QueryOptions {
        optimizer: Some(cfg),
        ..QueryOptions::default()
    }
}

fn no_index() -> QueryOptions {
    options(|c| {
        c.enable_index_select = false;
        c.enable_index_join = false;
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden mode: the durability torture harness re-execs this binary as
    // a child writer that gets crashed (crash points / SIGKILL).
    if args.first().map(String::as_str) == Some("durability-child") {
        durability_child(&args[1..]);
        return;
    }
    // Hidden mode: the serve torture harness re-execs this binary as a
    // child asterix-server process that gets SIGKILLed mid-ingest.
    if args.first().map(String::as_str) == Some("serve-child") {
        serve_child(&args[1..]);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let args: Vec<String> = args.into_iter().filter(|a| a != "--quick").collect();
    let which: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let run = |name: &str| which.contains(&"all") || which.contains(&name);

    let cfg = WorkloadConfig::default();
    println!(
        "experiment configuration: partitions={} amazon={} reddit={} twitter={}",
        cfg.partitions, cfg.amazon_records, cfg.reddit_records, cfg.twitter_records
    );

    if run("config") {
        table2(&cfg);
    }
    if run("datasets") {
        tables_3_and_4(&cfg);
    }
    if run("table5") {
        table5(&cfg);
    }
    if run("table6") || run("fig22a") || run("fig22b") || run("fig24a") || run("fig24b") {
        let w = Workloads::amazon_only(cfg.clone());
        w.build_indexes();
        w.db
            .create_index("AmazonReview", "summary_bt", "summary", IndexKind::BTree)
            .unwrap();
        w.db
            .create_index("AmazonReview", "name_bt", "reviewerName", IndexKind::BTree)
            .unwrap();
        if run("table6") {
            table6(&w);
        }
        if run("fig22a") {
            fig22a(&w);
        }
        if run("fig22b") {
            fig22b(&w);
        }
        if run("fig24a") {
            fig24a(&w);
        }
        if run("fig24b") {
            fig24b(&w);
        }
    }
    if run("fig15") {
        fig15(&cfg);
    }
    if run("fig25a") {
        fig25a(&cfg);
    }
    if run("fig25b") {
        fig25b(&cfg);
    }
    if run("fig27a") {
        fig27a(&cfg);
    }
    if run("fig27bc") {
        fig27bc(&cfg);
    }
    if run("ablations") {
        ablation_pk_sort(&cfg);
        ablation_reuse(&cfg);
        ablation_surrogate(&cfg);
        ablation_token_order(&cfg);
    }
    if run("profile") {
        profile_report(&cfg);
    }
    if run("monitor") {
        monitor_report(&cfg, quick);
    }
    if run("observe") {
        observe_report(&cfg, quick);
    }
    if run("concurrency") {
        concurrency_report(&cfg, quick);
    }
    if run("durability") {
        durability_report(&cfg, quick);
    }
    if run("serve") {
        serve_report(&cfg, quick);
    }
}

/// Per-query profiles (§6's instrumentation story): run representative
/// indexed similarity queries with `profile: true`, print the headline
/// numbers, and dump every full `QueryProfile` to `BENCH_profile.json`.
fn profile_report(cfg: &WorkloadConfig) {
    use asterix_adm::Value;
    let w = Workloads::amazon_only(cfg.clone());
    w.build_indexes();
    // Flush so the profiled queries read disk components through the
    // buffer cache; otherwise the cache/LSM sections stay empty.
    w.db.flush("AmazonReview").unwrap();

    let profiled = QueryOptions {
        profile: true,
        ..QueryOptions::default()
    };
    let jac_probe = w
        .search_values("AmazonReview", "summary", 1, 3, 3, 66)
        .pop()
        .unwrap_or_else(|| "great product value".into());
    let ed_probe = w
        .search_values("AmazonReview", "reviewerName", 1, 1, 3, 67)
        .pop()
        .unwrap_or_else(|| "maria".into());
    let specs: Vec<(&str, String)> = vec![
        ("jac-sel-0.5-index", jaccard_sel_query(&jac_probe, 0.5)),
        ("jac-sel-0.8-index", jaccard_sel_query(&jac_probe, 0.8)),
        ("ed-sel-1-index", ed_sel_query(&ed_probe, 1)),
        ("jac-join-0.8-index", jaccard_join_query(50, 0.8)),
    ];
    let mut entries = Vec::new();
    let mut rows = Vec::new();
    for (name, q) in &specs {
        let r = w.db.query_with(q, &profiled).unwrap();
        let p = r.profile.as_ref().expect("profile was requested");
        rows.push(vec![
            name.to_string(),
            r.count().unwrap_or(0).to_string(),
            format!(
                "{} / {}",
                p.index_search.toccurrence_candidates, p.index_search.post_verification_survivors
            ),
            format!("{:.1}%", p.cache.hit_ratio() * 100.0),
            fmt_duration(p.execution_time),
        ]);
        entries.push(Value::record(vec![
            ("name".to_string(), Value::from(*name)),
            ("query".to_string(), Value::from(q.as_str())),
            ("result_count".to_string(), Value::Int64(r.count().unwrap_or(0))),
            ("profile".to_string(), p.to_json()),
        ]));
    }
    let doc = Value::record(vec![
        ("partitions".to_string(), Value::Int64(cfg.partitions as i64)),
        (
            "amazon_records".to_string(),
            Value::Int64(cfg.amazon_records as i64),
        ),
        ("queries".to_string(), Value::OrderedList(entries)),
    ]);
    let json = asterix_adm::json::to_string(&doc);
    std::fs::write("BENCH_profile.json", &json).unwrap();
    print_table(
        "Per-query profiles (full detail in BENCH_profile.json)",
        &[
            "Query",
            "Results",
            "Candidates / verified",
            "Cache hit ratio",
            "Execution",
        ],
        &rows,
    );
    println!("wrote BENCH_profile.json ({} bytes)", json.len());
}

/// The telemetry monitor (`monitor`): a mixed workload — scans, index
/// selections, and index joins on worker threads racing a DML + flush
/// thread — sampled live through `Instance::metrics_snapshot()`, with one
/// forced slow-query capture, followed by an enabled-vs-disabled overhead
/// measurement on the same workload. Writes `BENCH_telemetry.json`.
fn monitor_report(cfg: &WorkloadConfig, quick: bool) {
    use asterix_adm::Value;
    use asterix_core::{QueryClass, TelemetryConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    let records = if quick {
        cfg.amazon_records.min(1_500)
    } else {
        cfg.amazon_records
    };
    let rounds = if quick { 5 } else { 15 };
    const WORKERS: usize = 3;

    // Seed 42: the generator's Zipfian vocabulary includes the probe
    // terms below ("caho", "gubimo").
    let build = |telemetry_on: bool| -> Instance {
        let mut ic = InstanceConfig::with_partitions(cfg.partitions);
        if !telemetry_on {
            ic.telemetry = TelemetryConfig::off();
        }
        let db = Instance::new(ic);
        db.create_dataset("AmazonReview", "id").unwrap();
        db.load("AmazonReview", amazon_reviews(records, 42)).unwrap();
        db.create_index("AmazonReview", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.create_index("AmazonReview", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
        db.flush("AmazonReview").unwrap();
        db
    };

    let scan_q = "for $t in dataset AmazonReview where $t.id < 200 return $t.id";
    let sel_q = "for $t in dataset AmazonReview \
         where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.4 \
         return $t.id";
    let join_q = "for $o in dataset AmazonReview \
         for $i in dataset AmazonReview \
         where $o.id < 40 \
           and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
           and $o.id < $i.id \
         return {\"o\": $o.id, \"i\": $i.id}";

    // ---- Phase 1: the monitored mixed workload. ----
    let db = build(true);
    let done = AtomicBool::new(false);
    let samples: Mutex<Vec<Value>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        // Live sampler: a monitoring agent polling the snapshot while the
        // workload runs (bounded; keeps the JSON small).
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let m = db.metrics();
                let mut guard = samples.lock().unwrap();
                if guard.len() < 32 {
                    guard.push(Value::record(vec![
                        ("uptime_us".to_string(), Value::Int64(m.uptime_us as i64)),
                        (
                            "queries_completed".to_string(),
                            Value::Int64(m.classes.iter().map(|c| c.completed).sum::<u64>() as i64),
                        ),
                        (
                            "events_recorded".to_string(),
                            Value::Int64(m.events_recorded as i64),
                        ),
                    ]));
                }
                drop(guard);
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        std::thread::scope(|inner| {
            for _ in 0..WORKERS {
                inner.spawn(|| {
                    for _ in 0..rounds {
                        db.query(scan_q).unwrap();
                        db.query(sel_q).unwrap();
                        db.query(join_q).unwrap();
                    }
                });
            }
            // DML churn: inserts + flushes emit lifecycle events into the
            // ring while the queries run.
            inner.spawn(|| {
                for i in 0..rounds {
                    db.insert(
                        "AmazonReview",
                        asterix_adm::record! {"id" => 5_000_000 + i as i64,
                            "summary" => "monitor churn row",
                            "reviewerName" => "monitor"},
                    )
                    .unwrap();
                    db.flush("AmazonReview").unwrap();
                }
            });
        });
        done.store(true, Ordering::Relaxed);
    });
    // One forced slow-query capture (threshold zero), as an operator
    // would see for any query over `slow_query_threshold`.
    db.query_with(
        sel_q,
        &QueryOptions {
            slow_query_threshold: Some(Duration::ZERO),
            ..QueryOptions::default()
        },
    )
    .unwrap();

    let metrics = db.metrics();
    let expected = (WORKERS * rounds) as u64;
    let mut class_rows = Vec::new();
    let mut per_class = Vec::new();
    for c in &metrics.classes {
        let want = expected + u64::from(c.class == QueryClass::IndexSelect);
        assert_eq!(
            c.completed, want,
            "{} class must account for every issued query",
            c.class.name()
        );
        assert_eq!(c.latency.count, c.completed);
        let (p50, p95, p99) = (
            c.latency.percentile_us(0.50),
            c.latency.percentile_us(0.95),
            c.latency.percentile_us(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        class_rows.push(vec![
            c.class.name().to_string(),
            c.completed.to_string(),
            fmt_duration(Duration::from_micros(p50)),
            fmt_duration(Duration::from_micros(p95)),
            fmt_duration(Duration::from_micros(p99)),
            fmt_duration(Duration::from_micros(c.latency.mean_us() as u64)),
        ]);
        per_class.push((
            c.class.name().to_string(),
            Value::record(vec![
                ("completed".to_string(), Value::Int64(c.completed as i64)),
                ("p50_us".to_string(), Value::Int64(p50 as i64)),
                ("p95_us".to_string(), Value::Int64(p95 as i64)),
                ("p99_us".to_string(), Value::Int64(p99 as i64)),
                ("mean_us".to_string(), Value::double(c.latency.mean_us())),
            ]),
        ));
    }
    let slow = db.telemetry().expect("telemetry on").slow_queries();
    assert!(
        !slow.is_empty() && !slow[0].plan.is_empty() && !slow[0].profile.operators.is_empty(),
        "the forced slow query must be captured with plan + profile"
    );
    assert!(metrics.events_recorded > 0, "flush churn must emit events");

    // ---- Phase 2: telemetry overhead, enabled vs disabled. ----
    // Fresh identically-loaded instances; best-of-3 timed loops over the
    // same mixed workload (warmed caches) to suppress scheduler noise.
    let iters = if quick { 10 } else { 40 };
    let measure = |db: &Instance| -> u64 {
        for _ in 0..3 {
            db.query(sel_q).unwrap();
            db.query(join_q).unwrap();
        }
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    db.query(scan_q).unwrap();
                    db.query(sel_q).unwrap();
                    db.query(join_q).unwrap();
                }
                t0.elapsed().as_micros() as u64
            })
            .min()
            .expect("three timed repetitions")
    };
    let off_db = build(false);
    let on_db = build(true);
    let disabled_us = measure(&off_db);
    let enabled_us = measure(&on_db);
    let overhead_pct = (enabled_us as f64 - disabled_us as f64) / disabled_us as f64 * 100.0;
    println!(
        "telemetry overhead: enabled {} vs disabled {} over {iters}x3 mixed queries -> {overhead_pct:+.2}%",
        fmt_duration(Duration::from_micros(enabled_us)),
        fmt_duration(Duration::from_micros(disabled_us)),
    );
    if !quick {
        assert!(
            overhead_pct < 5.0,
            "telemetry must stay under the 5% overhead budget, measured {overhead_pct:.2}%"
        );
    }

    let doc = Value::record(vec![
        ("partitions".to_string(), Value::Int64(cfg.partitions as i64)),
        ("amazon_records".to_string(), Value::Int64(records as i64)),
        ("workers".to_string(), Value::Int64(WORKERS as i64)),
        ("rounds".to_string(), Value::Int64(rounds as i64)),
        ("quick".to_string(), Value::Boolean(quick)),
        ("per_class".to_string(), Value::record(per_class)),
        (
            "slow_queries_captured".to_string(),
            Value::Int64(slow.len() as i64),
        ),
        (
            "samples".to_string(),
            Value::OrderedList(samples.into_inner().unwrap()),
        ),
        (
            "overhead".to_string(),
            Value::record(vec![
                ("iterations".to_string(), Value::Int64((iters * 3) as i64)),
                ("enabled_us".to_string(), Value::Int64(enabled_us as i64)),
                ("disabled_us".to_string(), Value::Int64(disabled_us as i64)),
                ("overhead_pct".to_string(), Value::double(overhead_pct)),
                ("budget_pct".to_string(), Value::double(5.0)),
            ]),
        ),
        ("final_snapshot".to_string(), metrics.to_json()),
    ]);
    let json = asterix_adm::json::to_string(&doc);
    std::fs::write("BENCH_telemetry.json", &json).unwrap();
    print_table(
        "Telemetry monitor: per-class latency percentiles",
        &["Class", "Completed", "p50", "p95", "p99", "Mean"],
        &class_rows,
    );
    println!("wrote BENCH_telemetry.json ({} bytes)", json.len());
}

/// The live-introspection harness (`observe`): see the module docs.
/// Everything goes over real TCP against the admin endpoint — no
/// in-process shortcuts — so the numbers include HTTP parse/serialize
/// cost exactly as an operator's scraper would pay it.
fn observe_report(cfg: &WorkloadConfig, quick: bool) {
    use asterix_adm::Value;
    use asterix_core::{AdminServer, CoreError};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Minimal HTTP/1.1 client for the admin endpoint.
    fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect admin endpoint");
        let req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("admin response status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// Assert one scraped `/queries` body is well-formed and internally
    /// consistent; returns the number of in-flight entries.
    fn check_queries_body(body: &str) -> usize {
        let v = asterix_adm::json::parse(body).expect("/queries must be valid JSON");
        let queries = v.field("queries").as_list().expect("queries list");
        assert_eq!(
            v.field("count").as_i64(),
            Some(queries.len() as i64),
            "count must match the entry list"
        );
        let mut last_id = 0i64;
        for q in queries {
            let id = q.field("query_id").as_i64().expect("query_id");
            assert!(id >= 1, "query ids start at 1");
            assert!(id > last_id, "snapshot must be sorted by query_id");
            last_id = id;
            let state = q.field("state").as_str().expect("state");
            assert!(
                ["queued", "running", "cancelling"].contains(&state),
                "unexpected state {state}"
            );
            assert!(q.field("class").as_str().is_some());
            assert!(q.field("elapsed_us").as_i64().unwrap_or(-1) >= 0);
            let ops = q.field("operators").as_list().expect("operators");
            let op_total: i64 = ops
                .iter()
                .map(|o| {
                    let started = o.field("partitions_started").as_i64().unwrap();
                    let finished = o.field("partitions_finished").as_i64().unwrap();
                    assert!(finished <= started, "finished tasks cannot exceed started");
                    o.field("tuples_out").as_i64().unwrap()
                })
                .sum();
            assert_eq!(
                q.field("tuples_out").as_i64(),
                Some(op_total),
                "per-query total must equal the sum over operators"
            );
        }
        queries.len()
    }

    let records = if quick {
        cfg.amazon_records.min(1_500)
    } else {
        cfg.amazon_records
    };
    let rounds = if quick { 5 } else { 15 };
    const WORKERS: usize = 3;

    // Seed 42: the generator's Zipfian vocabulary includes the probe
    // terms below.
    let build = || -> Instance {
        let db = Instance::new(InstanceConfig::with_partitions(cfg.partitions));
        db.create_dataset("AmazonReview", "id").unwrap();
        db.load("AmazonReview", amazon_reviews(records, 42)).unwrap();
        db.create_index("AmazonReview", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.flush("AmazonReview").unwrap();
        db
    };
    let scan_q = "for $t in dataset AmazonReview where $t.id < 200 return $t.id";
    let sel_q = "for $t in dataset AmazonReview \
         where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.4 \
         return $t.id";
    let join_q = "for $o in dataset AmazonReview \
         for $i in dataset AmazonReview \
         where $o.id < 40 \
           and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
           and $o.id < $i.id \
         return {\"o\": $o.id, \"i\": $i.id}";

    // ---- Phase 1: scrape the registry while the workload runs. ----
    let db = Arc::new(build());
    let admin = AdminServer::start(Arc::clone(&db), "127.0.0.1:0").expect("bind admin endpoint");
    let addr = admin.local_addr();
    println!("observe: admin endpoint on {}", admin.url());

    let done = AtomicBool::new(false);
    let scrape = Mutex::new((0u64, 0u64, 0usize)); // polls, entries_seen, max_concurrent
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let (status, body) = http(addr, "GET", "/queries");
                assert_eq!(status, 200);
                let inflight = check_queries_body(&body);
                let mut g = scrape.lock().unwrap();
                g.0 += 1;
                g.1 += inflight as u64;
                g.2 = g.2.max(inflight);
                drop(g);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        std::thread::scope(|inner| {
            for _ in 0..WORKERS {
                inner.spawn(|| {
                    for _ in 0..rounds {
                        db.query(scan_q).unwrap();
                        db.query(sel_q).unwrap();
                        db.query(join_q).unwrap();
                    }
                });
            }
        });
        done.store(true, Ordering::Relaxed);
    });
    let (polls, entries_seen, max_concurrent) = *scrape.lock().unwrap();
    assert!(polls > 0, "the scraper must have run");
    // The registry drains once the workload stops.
    let (status, body) = http(addr, "GET", "/queries");
    assert_eq!(status, 200);
    assert_eq!(
        check_queries_body(&body),
        0,
        "registry must be empty after the workload"
    );
    println!(
        "observe: {polls} scrapes saw {entries_seen} in-flight entries (max {max_concurrent} concurrent)"
    );

    // ---- Phase 2: watch one long query live, then cancel it over HTTP. ----
    let runner = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            // Forced nested-loop self-join: long enough to observe at any
            // scale; cancelled as soon as progress is visible.
            db.query_with(
                "for $a in dataset AmazonReview \
                 for $b in dataset AmazonReview \
                 where similarity-jaccard(word-tokens($a.summary), word-tokens($b.summary)) >= 0.95 \
                 return $a.id",
                &no_index(),
            )
        })
    };
    let mut observed = None;
    let mut polls_until_visible = 0u64;
    for _ in 0..10_000 {
        polls_until_visible += 1;
        let (status, body) = http(addr, "GET", "/queries");
        assert_eq!(status, 200);
        let v = asterix_adm::json::parse(&body).unwrap();
        let queries = v.field("queries").as_list().unwrap();
        if let Some(q) = queries
            .iter()
            .find(|q| q.field("state").as_str() == Some("running"))
        {
            let tuples = q.field("tuples_out").as_i64().unwrap_or(0);
            if tuples > 0 {
                observed = Some((q.field("query_id").as_i64().unwrap(), tuples));
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (observed_id, observed_tuples) =
        observed.expect("the long query must appear in /queries with live progress");
    let t0 = Instant::now();
    let (status, body) = http(addr, "POST", &format!("/queries/{observed_id}/cancel"));
    let cancel_roundtrip_us = t0.elapsed().as_micros() as u64;
    assert_eq!(status, 200);
    let v = asterix_adm::json::parse(&body).unwrap();
    assert_eq!(v.field("cancelled").as_bool(), Some(true));
    match runner.join().expect("runner thread") {
        Err(CoreError::Cancelled) => {}
        other => panic!("expected cancelled outcome, got {other:?}"),
    }
    println!(
        "observe: query {observed_id} showed {observed_tuples} live tuples after {polls_until_visible} polls; cancel round-trip {cancel_roundtrip_us} us"
    );

    // ---- Phase 3: the other endpoints answer and agree. ----
    let (status, body) = http(addr, "GET", "/health");
    assert_eq!(status, 200);
    let health = asterix_adm::json::parse(&body).unwrap();
    assert_eq!(health.field("status").as_str(), Some("ok"));
    let (status, prom) = http(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    let metric_families = prom.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(metric_families > 10, "prometheus exposition looks empty");
    let (status, body) = http(addr, "GET", "/lsm");
    assert_eq!(status, 200);
    let lsm = asterix_adm::json::parse(&body).unwrap();
    let lsm_datasets = lsm.field("datasets").as_list().unwrap().len();
    assert_eq!(lsm_datasets, 1);
    let (status, body) = http(addr, "GET", "/slow");
    assert_eq!(status, 200);
    let slow = asterix_adm::json::parse(&body).unwrap();
    let slow_entries = slow.field("entries").as_list().unwrap().len();
    drop(admin);

    // ---- Phase 4: polling overhead vs an unpolled baseline. ----
    // Identical instances and workload; the measured side is scraped
    // continuously (/queries every 2 ms, /metrics every 20 ms) while the
    // timed loop runs. Best-of-3 to suppress scheduler noise.
    let iters = if quick { 10 } else { 40 };
    let measure = |db: &Instance| -> u64 {
        for _ in 0..3 {
            db.query(sel_q).unwrap();
            db.query(join_q).unwrap();
        }
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    db.query(scan_q).unwrap();
                    db.query(sel_q).unwrap();
                    db.query(join_q).unwrap();
                }
                t0.elapsed().as_micros() as u64
            })
            .min()
            .expect("three timed repetitions")
    };
    let baseline_db = build();
    let baseline_us = measure(&baseline_db);
    drop(baseline_db);

    let polled_db = Arc::new(build());
    let polled_admin =
        AdminServer::start(Arc::clone(&polled_db), "127.0.0.1:0").expect("bind admin endpoint");
    let polled_addr = polled_admin.local_addr();
    let stop = AtomicBool::new(false);
    let polled_us = std::thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let path = if i.is_multiple_of(10) { "/metrics" } else { "/queries" };
                let (status, _) = http(polled_addr, "GET", path);
                assert_eq!(status, 200);
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let us = measure(&polled_db);
        stop.store(true, Ordering::Relaxed);
        us
    });
    drop(polled_admin);
    let overhead_pct = (polled_us as f64 - baseline_us as f64) / baseline_us as f64 * 100.0;
    println!(
        "observe: polled {} vs baseline {} over {iters}x3 mixed queries -> {overhead_pct:+.2}% overhead",
        fmt_duration(Duration::from_micros(polled_us)),
        fmt_duration(Duration::from_micros(baseline_us)),
    );
    if !quick {
        assert!(
            overhead_pct < 5.0,
            "live introspection must stay under the 5% overhead budget, measured {overhead_pct:.2}%"
        );
    }

    let doc = Value::record(vec![
        ("partitions".to_string(), Value::Int64(cfg.partitions as i64)),
        ("amazon_records".to_string(), Value::Int64(records as i64)),
        ("workers".to_string(), Value::Int64(WORKERS as i64)),
        ("rounds".to_string(), Value::Int64(rounds as i64)),
        ("quick".to_string(), Value::Boolean(quick)),
        (
            "registry".to_string(),
            Value::record(vec![
                ("polls".to_string(), Value::Int64(polls as i64)),
                ("entries_seen".to_string(), Value::Int64(entries_seen as i64)),
                (
                    "max_concurrent_seen".to_string(),
                    Value::Int64(max_concurrent as i64),
                ),
                ("drained".to_string(), Value::Boolean(true)),
            ]),
        ),
        (
            "observed_cancel".to_string(),
            Value::record(vec![
                ("query_id".to_string(), Value::Int64(observed_id)),
                (
                    "live_tuples_seen".to_string(),
                    Value::Int64(observed_tuples),
                ),
                (
                    "polls_until_visible".to_string(),
                    Value::Int64(polls_until_visible as i64),
                ),
                (
                    "cancel_roundtrip_us".to_string(),
                    Value::Int64(cancel_roundtrip_us as i64),
                ),
                ("outcome".to_string(), Value::from("cancelled")),
            ]),
        ),
        (
            "endpoints".to_string(),
            Value::record(vec![
                ("health".to_string(), Value::from("ok")),
                (
                    "metric_families".to_string(),
                    Value::Int64(metric_families as i64),
                ),
                ("lsm_datasets".to_string(), Value::Int64(lsm_datasets as i64)),
                ("slow_entries".to_string(), Value::Int64(slow_entries as i64)),
            ]),
        ),
        (
            "overhead".to_string(),
            Value::record(vec![
                ("iterations".to_string(), Value::Int64((iters * 3) as i64)),
                ("baseline_us".to_string(), Value::Int64(baseline_us as i64)),
                ("polled_us".to_string(), Value::Int64(polled_us as i64)),
                ("overhead_pct".to_string(), Value::double(overhead_pct)),
                ("budget_pct".to_string(), Value::double(5.0)),
            ]),
        ),
    ]);
    let json = asterix_adm::json::to_string(&doc);
    std::fs::write("BENCH_observe.json", &json).unwrap();
    println!("wrote BENCH_observe.json ({} bytes)", json.len());
}

/// Current OS thread count of this process (`/proc/self/status`,
/// linux-only; 0 elsewhere).
fn current_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The `q`-quantile of a latency sample (µs), by sorted rank.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// The scheduler bench (`concurrency`): N concurrent clients of the
/// mixed workload against the pooled executor with admission control vs
/// the unbounded seed executor, recording client-observed latency
/// percentiles and the process's peak thread count at every level.
/// Writes `BENCH_concurrency.json`.
fn concurrency_report(cfg: &WorkloadConfig, quick: bool) {
    use asterix_adm::Value;
    use asterix_core::SchedulerConfig;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    let records = if quick {
        cfg.amazon_records.min(1_500)
    } else {
        cfg.amazon_records
    };
    let levels: &[usize] = if quick { &[1, 8, 16] } else { &[1, 8, 32, 128] };
    let rounds = if quick { 2 } else { 3 };
    // Deep enough that the largest level queues rather than rejects; the
    // rejection paths have their own tests in tests/scheduler.rs.
    let scheduler_cfg = SchedulerConfig {
        queue_depth: levels.iter().max().unwrap() * 2,
        ..SchedulerConfig::default()
    };

    let build = |sched: SchedulerConfig| -> Instance {
        let mut ic = InstanceConfig::with_partitions(cfg.partitions);
        ic.scheduler = sched;
        let db = Instance::new(ic);
        db.create_dataset("AmazonReview", "id").unwrap();
        db.load("AmazonReview", amazon_reviews(records, 42)).unwrap();
        db.create_index("AmazonReview", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.create_index("AmazonReview", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
        db.flush("AmazonReview").unwrap();
        db
    };

    let scan_q = "for $t in dataset AmazonReview where $t.id < 200 return $t.id";
    let sel_q = "for $t in dataset AmazonReview \
         where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.4 \
         return $t.id";
    let join_q = "for $o in dataset AmazonReview \
         for $i in dataset AmazonReview \
         where $o.id < 40 \
           and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
           and $o.id < $i.id \
         return {\"o\": $o.id, \"i\": $i.id}";
    let queries = [scan_q, sel_q, join_q];

    /// One saturation level against one executor: client-observed
    /// latencies, wall time, and thread-count extremes.
    struct LevelRun {
        latencies_us: Vec<u64>,
        wall_us: u64,
        base_threads: u64,
        peak_threads: u64,
    }

    let run_level = |db: &Instance, clients: usize| -> LevelRun {
        // Warm caches so the first client doesn't pay cold-read costs.
        for q in queries {
            db.query(q).unwrap();
        }
        let base_threads = current_threads();
        let done = AtomicBool::new(false);
        let peak = AtomicU64::new(base_threads);
        let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    peak.fetch_max(current_threads(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            std::thread::scope(|inner| {
                for _ in 0..clients {
                    inner.spawn(|| {
                        let mut mine = Vec::with_capacity(rounds * queries.len());
                        for _ in 0..rounds {
                            for q in queries {
                                let t0 = Instant::now();
                                db.query(q).unwrap();
                                mine.push(t0.elapsed().as_micros() as u64);
                            }
                        }
                        latencies.lock().unwrap().extend(mine);
                    });
                }
            });
            done.store(true, Ordering::Relaxed);
        });
        let wall_us = started.elapsed().as_micros() as u64;
        let mut latencies_us = latencies.into_inner().unwrap();
        latencies_us.sort_unstable();
        LevelRun {
            latencies_us,
            wall_us,
            base_threads,
            peak_threads: peak.load(Ordering::Relaxed),
        }
    };

    let level_json = |r: &LevelRun| -> Value {
        Value::record(vec![
            ("queries".to_string(), Value::Int64(r.latencies_us.len() as i64)),
            ("wall_us".to_string(), Value::Int64(r.wall_us as i64)),
            (
                "p50_us".to_string(),
                Value::Int64(percentile(&r.latencies_us, 0.50) as i64),
            ),
            (
                "p95_us".to_string(),
                Value::Int64(percentile(&r.latencies_us, 0.95) as i64),
            ),
            (
                "p99_us".to_string(),
                Value::Int64(percentile(&r.latencies_us, 0.99) as i64),
            ),
            (
                "max_us".to_string(),
                Value::Int64(r.latencies_us.last().copied().unwrap_or(0) as i64),
            ),
            (
                "base_threads".to_string(),
                Value::Int64(r.base_threads as i64),
            ),
            (
                "peak_threads".to_string(),
                Value::Int64(r.peak_threads as i64),
            ),
        ])
    };

    // The two executors run in the same process, one phase at a time, so
    // each phase's thread sampling only sees its own instance.
    let mut rows = Vec::new();
    let mut level_docs = Vec::new();
    let mut p95_ratio_at_max = 0.0f64;
    let mut pooled_bounded = true;

    let pooled_db = build(scheduler_cfg.clone());
    let workers = scheduler_cfg.workers as u64;
    let mut pooled_runs = Vec::new();
    for &clients in levels {
        pooled_runs.push(run_level(&pooled_db, clients));
    }
    let sched_snap = pooled_db.metrics().gauges.scheduler.clone();
    assert!(sched_snap.enabled, "pooled instance must report a scheduler");
    assert_eq!(
        sched_snap.rejected_queue_full + sched_snap.rejected_timeout,
        0,
        "the bench queue depth must be deep enough to avoid rejections"
    );
    assert!(
        sched_snap.admitted >= levels.iter().map(|&n| (n * rounds * 3) as u64).sum::<u64>(),
        "every bench query must pass admission"
    );
    drop(pooled_db);

    let unbounded_db = build(SchedulerConfig::disabled());
    let mut unbounded_runs = Vec::new();
    for &clients in levels {
        unbounded_runs.push(run_level(&unbounded_db, clients));
    }
    drop(unbounded_db);

    for ((&clients, pooled), unbounded) in
        levels.iter().zip(&pooled_runs).zip(&unbounded_runs)
    {
        let (pp95, up95) = (
            percentile(&pooled.latencies_us, 0.95),
            percentile(&unbounded.latencies_us, 0.95),
        );
        // Executor threads beyond the clients themselves (each client is
        // one thread; +2 for the main + sampler threads).
        let pooled_extra = pooled
            .peak_threads
            .saturating_sub(clients as u64 + pooled.base_threads);
        if current_threads() > 0 && pooled_extra > workers + 4 {
            pooled_bounded = false;
        }
        if clients == *levels.last().unwrap() && up95 > 0 {
            p95_ratio_at_max = pp95 as f64 / up95 as f64;
        }
        rows.push(vec![
            clients.to_string(),
            fmt_duration(Duration::from_micros(pp95)),
            fmt_duration(Duration::from_micros(up95)),
            pooled.peak_threads.to_string(),
            unbounded.peak_threads.to_string(),
            fmt_duration(Duration::from_micros(pooled.wall_us)),
            fmt_duration(Duration::from_micros(unbounded.wall_us)),
        ]);
        level_docs.push(Value::record(vec![
            ("clients".to_string(), Value::Int64(clients as i64)),
            ("pooled".to_string(), level_json(pooled)),
            ("unbounded".to_string(), level_json(unbounded)),
        ]));
    }

    // Shape pins (all modes): the pool must keep executor threads bounded
    // by workers + a small constant, independent of the client count.
    if current_threads() > 0 {
        assert!(
            pooled_bounded,
            "pooled executor spawned more than workers + constant extra threads"
        );
    }
    // Perf pin (full scale only, with slack): p95 under peak saturation
    // must not regress vs the unbounded baseline.
    if !quick && p95_ratio_at_max > 0.0 {
        assert!(
            p95_ratio_at_max < 1.25,
            "pooled p95 at max concurrency is {p95_ratio_at_max:.2}x the unbounded baseline"
        );
    }

    let doc = Value::record(vec![
        ("partitions".to_string(), Value::Int64(cfg.partitions as i64)),
        ("amazon_records".to_string(), Value::Int64(records as i64)),
        ("quick".to_string(), Value::Boolean(quick)),
        (
            "rounds_per_client".to_string(),
            Value::Int64(rounds as i64),
        ),
        (
            "queries_per_round".to_string(),
            Value::Int64(queries.len() as i64),
        ),
        (
            "scheduler".to_string(),
            Value::record(vec![
                ("workers".to_string(), Value::Int64(scheduler_cfg.workers as i64)),
                (
                    "max_concurrent_queries".to_string(),
                    Value::Int64(scheduler_cfg.max_concurrent_queries as i64),
                ),
                (
                    "queue_depth".to_string(),
                    Value::Int64(scheduler_cfg.queue_depth as i64),
                ),
                (
                    "memory_budget_bytes".to_string(),
                    Value::Int64(scheduler_cfg.memory_budget_bytes as i64),
                ),
            ]),
        ),
        (
            "admission".to_string(),
            Value::record(vec![
                ("admitted".to_string(), Value::Int64(sched_snap.admitted as i64)),
                (
                    "queued_total".to_string(),
                    Value::Int64(sched_snap.queued_total as i64),
                ),
                (
                    "rejected_queue_full".to_string(),
                    Value::Int64(sched_snap.rejected_queue_full as i64),
                ),
                (
                    "rejected_timeout".to_string(),
                    Value::Int64(sched_snap.rejected_timeout as i64),
                ),
                (
                    "queue_wait_p95_us".to_string(),
                    Value::Int64(sched_snap.queue_wait.percentile_us(0.95) as i64),
                ),
                (
                    "queue_wait_count".to_string(),
                    Value::Int64(sched_snap.queue_wait.count as i64),
                ),
            ]),
        ),
        ("levels".to_string(), Value::OrderedList(level_docs)),
        (
            "p95_ratio_at_max".to_string(),
            Value::double(p95_ratio_at_max),
        ),
    ]);
    let json = asterix_adm::json::to_string(&doc);
    std::fs::write("BENCH_concurrency.json", &json).unwrap();
    print_table(
        "Concurrency: pooled + admission vs unbounded seed executor",
        &[
            "Clients",
            "p95 pooled",
            "p95 unbounded",
            "Peak thr pooled",
            "Peak thr unbounded",
            "Wall pooled",
            "Wall unbounded",
        ],
        &rows,
    );
    println!(
        "p95 ratio at max concurrency (pooled/unbounded): {p95_ratio_at_max:.2}"
    );
    println!("wrote BENCH_concurrency.json ({} bytes)", json.len());
}

/// Table 2: configuration parameters.
fn table2(cfg: &WorkloadConfig) {
    let inst = InstanceConfig::with_partitions(cfg.partitions);
    let rows: Vec<Vec<String>> = inst
        .table2()
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    print_table("Table 2: instance parameters", &["Parameter", "Value"], &rows);
}

/// Tables 3 + 4: dataset properties and field characteristics.
fn tables_3_and_4(cfg: &WorkloadConfig) {
    let w = Workloads::load(cfg.clone());
    let mut t3 = Vec::new();
    let mut t4 = Vec::new();
    for ds in &w.datasets {
        t3.push(vec![
            ds.name.to_string(),
            ds.records.to_string(),
            format!("ed: {}, jaccard: {}", ds.ed_field, ds.jac_field),
        ]);
        for field in [ds.ed_field, ds.jac_field] {
            let r = w
                .db
                .query(&format!("for $t in dataset {} return $t.{}", ds.name, field))
                .unwrap();
            let texts: Vec<&str> = r.rows.iter().filter_map(|v| v.as_str()).collect();
            let p = profile_field(texts.iter().copied());
            t4.push(vec![
                format!("{}.{}", ds.name, field),
                format!("{:.1}", p.avg_chars),
                p.max_chars.to_string(),
                format!("{:.1}", p.avg_words),
                p.max_words.to_string(),
            ]);
        }
    }
    print_table(
        "Table 3: dataset properties (synthetic substitutes)",
        &["Dataset", "Records", "Fields used"],
        &t3,
    );
    print_table(
        "Table 4: field characteristics",
        &["Field", "Avg chars", "Max chars", "Avg words", "Max words"],
        &t4,
    );
}

/// Table 5: index sizes and build times (Amazon reviews).
fn table5(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    let mut rows = Vec::new();
    let primary = w.db.index_sizes("AmazonReview").unwrap();
    let primary_size = primary
        .iter()
        .find(|(n, _)| n == "<primary>")
        .map(|(_, b)| *b)
        .unwrap_or(0);
    rows.push(vec![
        "dataset itself".into(),
        "B+ tree".into(),
        format!("{:.2} MB", primary_size as f64 / 1e6),
        "-".into(),
    ]);
    let specs = [
        ("reviewerName", "name_bt", IndexKind::BTree),
        ("reviewerName", "name_2gram", IndexKind::NGram(2)),
        ("summary", "summary_bt", IndexKind::BTree),
        ("summary", "summary_kw", IndexKind::Keyword),
    ];
    for (field, name, kind) in specs {
        let stats = w.db.create_index("AmazonReview", name, field, kind).unwrap();
        rows.push(vec![
            format!("{field} ({name})"),
            kind.name(),
            format!("{:.2} MB", stats.size_bytes as f64 / 1e6),
            fmt_duration(stats.build_time),
        ]);
    }
    print_table(
        "Table 5: index size and build time (AmazonReview)",
        &["Field", "Index type", "Size", "Build time"],
        &rows,
    );
}

fn jaccard_sel_query(value: &str, delta: f64) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 where similarity-jaccard(word-tokens($o.summary),
                                          word-tokens('{value}')) >= {delta}
                 return {{"oid": $o.id, "v": $o.summary}} );"#
    )
}

fn ed_sel_query(value: &str, k: u32) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 where edit-distance($o.reviewerName, '{value}') <= {k}
                 return {{"oid": $o.id, "v": $o.reviewerName}} );"#
    )
}

/// Table 6: candidate set vs final result size for indexed Jaccard
/// selections.
fn table6(w: &Workloads) {
    let probes = w.search_values("AmazonReview", "summary", 8, 3, 3, 61);
    let mut rows = Vec::new();
    for delta in [0.2, 0.5, 0.8] {
        let mut results = 0u64;
        let mut candidates = 0u64;
        for p in &probes {
            let r = w.db.query(&jaccard_sel_query(p, delta)).unwrap();
            results += r.count().unwrap_or(0) as u64;
            candidates += r.index_candidates();
        }
        let ratio = if candidates == 0 {
            0.0
        } else {
            results as f64 / candidates as f64 * 100.0
        };
        rows.push(vec![
            format!("{delta}"),
            results.to_string(),
            candidates.to_string(),
            format!("{ratio:.1}%"),
        ]);
    }
    print_table(
        "Table 6: candidates vs results, indexed Jaccard selection",
        &["Jaccard threshold", "Results (B)", "Candidates (C)", "Ratio (B/C)"],
        &rows,
    );
}

/// Fig 22(a): Jaccard selection times.
fn fig22a(w: &Workloads) {
    let probes = w.search_values("AmazonReview", "summary", 8, 3, 3, 62);
    let mut rows = Vec::new();
    let exact: Vec<String> = probes
        .iter()
        .map(|p| {
            format!(
                r#"count( for $o in dataset AmazonReview where $o.summary = '{p}'
                     return {{"oid": $o.id}} );"#
            )
        })
        .collect();
    let with = avg_time(&w.db, &exact, &QueryOptions::default()).unwrap();
    let without = avg_time(&w.db, &exact, &no_index()).unwrap();
    rows.push(vec![
        "exact match".into(),
        fmt_duration(without),
        fmt_duration(with),
    ]);
    for delta in [0.2, 0.5, 0.8] {
        let queries: Vec<String> = probes.iter().map(|p| jaccard_sel_query(p, delta)).collect();
        let with = avg_time(&w.db, &queries, &QueryOptions::default()).unwrap();
        let without = avg_time(&w.db, &queries, &no_index()).unwrap();
        rows.push(vec![
            format!("jaccard {delta}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 22(a): selection times, Jaccard (avg over probes)",
        &["Threshold", "Without index", "With index"],
        &rows,
    );
}

/// Fig 22(b): edit-distance selection times.
fn fig22b(w: &Workloads) {
    let probes = w.search_values("AmazonReview", "reviewerName", 8, 1, 3, 63);
    let mut rows = Vec::new();
    let exact: Vec<String> = probes
        .iter()
        .map(|p| {
            format!(
                r#"count( for $o in dataset AmazonReview where $o.reviewerName = '{p}'
                     return {{"oid": $o.id}} );"#
            )
        })
        .collect();
    let with = avg_time(&w.db, &exact, &QueryOptions::default()).unwrap();
    let without = avg_time(&w.db, &exact, &no_index()).unwrap();
    rows.push(vec![
        "exact match".into(),
        fmt_duration(without),
        fmt_duration(with),
    ]);
    for k in [1u32, 2, 3] {
        let queries: Vec<String> = probes.iter().map(|p| ed_sel_query(p, k)).collect();
        let with = avg_time(&w.db, &queries, &QueryOptions::default()).unwrap();
        let without = avg_time(&w.db, &queries, &no_index()).unwrap();
        rows.push(vec![
            format!("edit distance {k}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 22(b): selection times, edit distance (avg over probes)",
        &["Threshold", "Without index", "With index"],
        &rows,
    );
}

fn jaccard_join_query(outer_limit: usize, delta: f64) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 for $i in dataset AmazonReview
                 where $o.id < {outer_limit}
                   and similarity-jaccard(word-tokens($o.summary),
                                          word-tokens($i.summary)) >= {delta}
                   and $o.id < $i.id
                 return {{"oid": $o.id}} );"#
    )
}

fn ed_join_query(outer_limit: usize, k: u32) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 for $i in dataset AmazonReview
                 where $o.id < {outer_limit}
                   and edit-distance($o.reviewerName, $i.reviewerName) <= {k}
                   and $o.id < $i.id
                 return {{"oid": $o.id}} );"#
    )
}

/// Fig 24(a): Jaccard join times (outer limited to 10 records, §6.4.1).
fn fig24a(w: &Workloads) {
    let mut rows = Vec::new();
    let exact = r#"count( for $o in dataset AmazonReview
                 for $i in dataset AmazonReview
                 where $o.id < 10 and $o.summary = $i.summary and $o.id < $i.id
                 return {"oid": $o.id} );"#
        .to_string();
    let t = avg_time(&w.db, &[exact], &QueryOptions::default()).unwrap();
    rows.push(vec!["exact match".into(), fmt_duration(t), "-".into()]);
    for delta in [0.2, 0.5, 0.8] {
        let q = jaccard_join_query(10, delta);
        let with = avg_time(&w.db, std::slice::from_ref(&q), &QueryOptions::default()).unwrap();
        let without = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_index_join = false),
        )
        .unwrap();
        rows.push(vec![
            format!("jaccard {delta}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 24(a): join times, Jaccard (outer = 10 records)",
        &["Threshold", "Without index (3-stage)", "With index"],
        &rows,
    );
}

/// Fig 24(b): edit-distance join times.
fn fig24b(w: &Workloads) {
    let mut rows = Vec::new();
    for k in [1u32, 2, 3] {
        let q = ed_join_query(10, k);
        let with = avg_time(&w.db, std::slice::from_ref(&q), &QueryOptions::default()).unwrap();
        let without = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_index_join = false),
        )
        .unwrap();
        rows.push(vec![
            format!("edit distance {k}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 24(b): join times, edit distance (outer = 10 records)",
        &["Threshold", "Without index (NL)", "With index"],
        &rows,
    );
}

/// Fig 15: operator counts, nested-loop vs three-stage plan.
fn fig15(cfg: &WorkloadConfig) {
    let db = Instance::new(InstanceConfig::with_partitions(cfg.partitions));
    db.create_dataset("AmazonReview", "id").unwrap();
    db.load("AmazonReview", amazon_reviews(100, cfg.seed)).unwrap();
    let q = r#"
        for $o in dataset AmazonReview
        for $i in dataset AmazonReview
        where similarity-jaccard(word-tokens($o.summary),
                                 word-tokens($i.summary)) >= 0.5
        return {"oid": $o.id, "iid": $i.id}
    "#;
    let nl = db
        .explain_with_options(
            q,
            &options(|c| {
                c.enable_three_stage = false;
                c.enable_index_join = false;
            }),
        )
        .unwrap();
    let ts = db.explain(q).unwrap();
    let collect = |ops: &[(&'static str, usize)]| -> String {
        ops.iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = vec![
        vec![
            "nested-loop plan".into(),
            nl.total_logical_ops_after().to_string(),
            collect(&nl.logical_ops_after),
        ],
        vec![
            "three-stage plan".into(),
            ts.total_logical_ops_after().to_string(),
            collect(&ts.logical_ops_after),
        ],
        vec![
            "paper (Fig 15)".into(),
            "6 vs 77".into(),
            "NL: join:1 select:1 assign:3 ... / 3-stage: join:15 assign:12 select:8 ...".into(),
        ],
    ];
    print_table(
        "Fig 15: logical operator counts for the same query",
        &["Plan", "Total ops", "Breakdown"],
        &rows,
    );
}

/// Fig 25(a): join time vs outer-branch cardinality (crossover).
fn fig25a(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    w.build_indexes();
    let mut rows = Vec::new();
    for outer in [200usize, 400, 600, 800, 1000, 1200, 1400] {
        let q = jaccard_join_query(outer, 0.8);
        let index = avg_time(&w.db, std::slice::from_ref(&q), &QueryOptions::default()).unwrap();
        let three = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_index_join = false),
        )
        .unwrap();
        // The quadratic nested-loop join is only run for small outers.
        let nl = if outer <= 400 {
            let t = avg_time(
                &w.db,
                std::slice::from_ref(&q),
                &options(|c| {
                    c.enable_index_join = false;
                    c.enable_three_stage = false;
                }),
            )
            .unwrap();
            fmt_duration(t)
        } else {
            "(skipped)".into()
        };
        rows.push(vec![
            outer.to_string(),
            nl,
            fmt_duration(three),
            fmt_duration(index),
        ]);
    }
    print_table(
        "Fig 25(a): Jaccard-0.8 self-join time vs outer cardinality",
        &["Outer records", "Nested-loop", "Three-stage", "Index-NL"],
        &rows,
    );
}

/// Fig 25(b): multi-way queries with two similarity conditions, varying
/// the condition order, on all three datasets.
fn fig25b(cfg: &WorkloadConfig) {
    let w = Workloads::load(cfg.clone());
    w.build_indexes();
    let mut rows = Vec::new();
    for ds in &w.datasets {
        let jac = format!(
            "similarity-jaccard(word-tokens($o.{jf}), word-tokens($i.{jf})) >= 0.8",
            jf = ds.jac_field
        );
        let ed = format!("edit-distance($o.{ef}, $i.{ef}) <= 1", ef = ds.ed_field);
        let query = |first: &str, second: &str| {
            format!(
                r#"count( for $o in dataset {name}
                     for $i in dataset {name}
                     where $o.id < 10 and {first} and {second} and $o.id < $i.id
                     return {{"oid": $o.id, "iid": $i.id}} );"#,
                name = ds.name
            )
        };
        let jac_first = avg_time(&w.db, &[query(&jac, &ed)], &QueryOptions::default()).unwrap();
        let ed_first = avg_time(&w.db, &[query(&ed, &jac)], &QueryOptions::default()).unwrap();
        let both_noindex = avg_time(&w.db, &[query(&jac, &ed)], &no_index()).unwrap();
        rows.push(vec![
            ds.name.to_string(),
            fmt_duration(jac_first),
            fmt_duration(ed_first),
            fmt_duration(both_noindex),
        ]);
    }
    print_table(
        "Fig 25(b): multi-way joins (two similarity conditions)",
        &["Dataset", "Jac-I, ED-NI", "ED-I, Jac-NI", "Jac-NI, ED-NI"],
        &rows,
    );
}

fn scaled_amazon_instance(partitions: usize, records: usize, seed: u64) -> Workloads {
    let cfg = WorkloadConfig {
        partitions,
        amazon_records: records,
        reddit_records: 0,
        twitter_records: 0,
        seed,
    };
    let w = Workloads::amazon_only(cfg);
    w.build_indexes();
    w
}

fn fig27_queries(w: &Workloads) -> [(&'static str, String, QueryOptions); 4] {
    let probe = w
        .search_values("AmazonReview", "summary", 1, 3, 3, 64)
        .pop()
        .unwrap_or_else(|| "great product value".into());
    [
        (
            "Jac-Sel-0.8-Index",
            jaccard_sel_query(&probe, 0.8),
            QueryOptions::default(),
        ),
        (
            "Jac-Sel-0.8-NoIndex",
            jaccard_sel_query(&probe, 0.8),
            no_index(),
        ),
        (
            "Jac-Join-0.8-Index",
            jaccard_join_query(200, 0.8),
            QueryOptions::default(),
        ),
        (
            "Jac-Join-0.8-NoIndex",
            jaccard_join_query(200, 0.8),
            options(|c| c.enable_index_join = false),
        ),
    ]
}

/// Fig 27(a): scale-out — data grows with the partition count. The
/// per-partition critical-path work (max tuples through the busiest
/// partition, summed over operators) is the hardware-independent metric:
/// on a single-core host the wall times of the simulated partitions
/// serialize, but the work column shows what an 8-node cluster would see.
fn fig27a(cfg: &WorkloadConfig) {
    let base = cfg.amazon_records;
    let mut rows = Vec::new();
    for p in [1usize, 2, 4, 8] {
        let records = (base * p / 8).max(100);
        let w = scaled_amazon_instance(p, records, cfg.seed);
        let mut row = vec![format!("{p} ({records} recs)")];
        for (_, q, opts) in fig27_queries(&w) {
            let r = w.db.query_with(&q, &opts).unwrap();
            row.push(format!(
                "{} / {}t",
                fmt_duration(r.execution_time),
                r.stats.critical_path_tuples()
            ));
        }
        rows.push(row);
    }
    print_table(
        "Fig 27(a): scale-out (wall / per-partition work; flat work is ideal)",
        &[
            "Partitions",
            "Jac-Sel-Index",
            "Jac-Sel-NoIndex",
            "Jac-Join-Index",
            "Jac-Join-NoIndex(3stage)",
        ],
        &rows,
    );
}

/// Fig 27(b,c): speed-up — fixed data, growing partitions. Speed-up is
/// reported on the per-partition critical-path work (see fig27a): on an
/// ideal cluster wall time tracks that work, and on a single-core host
/// only the work column is meaningful.
fn fig27bc(cfg: &WorkloadConfig) {
    let mut rows = Vec::new();
    let mut base_work: Option<Vec<u64>> = None;
    for p in [1usize, 2, 4, 8] {
        let w = scaled_amazon_instance(p, cfg.amazon_records, cfg.seed);
        let mut work = Vec::new();
        let mut wall = Vec::new();
        for (_, q, opts) in fig27_queries(&w) {
            let r = w.db.query_with(&q, &opts).unwrap();
            work.push(r.stats.critical_path_tuples().max(1));
            wall.push(r.execution_time);
        }
        let mut row = vec![p.to_string()];
        match &base_work {
            None => {
                for (t, wk) in wall.iter().zip(&work) {
                    row.push(format!("1.00x ({}, {wk}t)", fmt_duration(*t)));
                }
                base_work = Some(work);
            }
            Some(base) => {
                for ((b, wk), t) in base.iter().zip(&work).zip(&wall) {
                    row.push(format!(
                        "{:.2}x ({}, {wk}t)",
                        *b as f64 / *wk as f64,
                        fmt_duration(*t)
                    ));
                }
            }
        }
        rows.push(row);
    }
    print_table(
        "Fig 27(b,c): speed-up on per-partition work (fixed data; linear is ideal)",
        &[
            "Partitions",
            "Jac-Sel-Index",
            "Jac-Sel-NoIndex",
            "Jac-Join-Index",
            "Jac-Join-NoIndex(3stage)",
        ],
        &rows,
    );
}

/// Ablation: sorting primary keys before the primary-index lookup
/// (§4.1.1) — measured through buffer-cache hit ratios.
fn ablation_pk_sort(cfg: &WorkloadConfig) {
    // A dedicated instance with a *small* buffer cache (and a small page
    // size so the primary index spans many pages): without cache
    // pressure, every lookup hits and the sort cannot matter.
    let mut inst_cfg = InstanceConfig::with_partitions(cfg.partitions);
    inst_cfg.storage.page_size = 4 * 1024;
    inst_cfg.storage.buffer_cache_pages = 8;
    let db = Instance::new(inst_cfg);
    db.create_dataset("AmazonReview", "id").unwrap();
    db.load("AmazonReview", amazon_reviews(cfg.amazon_records, cfg.seed))
        .unwrap();
    db.create_index("AmazonReview", "summary_kw", "summary", IndexKind::Keyword)
        .unwrap();
    db.flush("AmazonReview").unwrap();
    let w = Workloads {
        db,
        datasets: vec![],
        config: cfg.clone(),
    };
    let probes = w.search_values("AmazonReview", "summary", 6, 3, 3, 65);
    let queries: Vec<String> = probes.iter().map(|p| jaccard_sel_query(p, 0.2)).collect();
    let mut rows = Vec::new();
    for sort in [true, false] {
        w.db.reset_cache_stats();
        let t = avg_time(&w.db, &queries, &options(|c| c.sort_pks = sort)).unwrap();
        let stats = w.db.cache_stats();
        rows.push(vec![
            if sort { "sorted pks" } else { "unsorted pks" }.into(),
            fmt_duration(t),
            format!("{:.1}%", stats.hit_ratio() * 100.0),
        ]);
    }
    print_table(
        "Ablation: pk sorting before primary lookup (§4.1.1)",
        &["Variant", "Avg time", "Cache hit ratio"],
        &rows,
    );
}

/// Ablation: materialize/reuse of shared subplans (Fig 20).
fn ablation_reuse(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    let q = jaccard_join_query(2_000, 0.8);
    let mut rows = Vec::new();
    for reuse in [true, false] {
        let r = w
            .db
            .query_with(
                &q,
                &options(|c| {
                    c.enable_index_join = false;
                    c.enable_subplan_reuse = reuse;
                }),
            )
            .unwrap();
        let scans = r
            .plan
            .physical_ops
            .iter()
            .find(|(n, _)| *n == "dataset-scan")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        rows.push(vec![
            if reuse {
                "reuse shared subplans"
            } else {
                "recompute"
            }
            .into(),
            fmt_duration(r.execution_time),
            scans.to_string(),
        ]);
    }
    print_table(
        "Ablation: shared-subplan reuse in the three-stage self join (Fig 20)",
        &["Variant", "Time", "Physical scans"],
        &rows,
    );
}

/// Ablation: surrogate index-nested-loop join (Fig 19).
fn ablation_surrogate(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    w.build_indexes();
    let q = jaccard_join_query(1_000, 0.8);
    let mut rows = Vec::new();
    for surrogate in [false, true] {
        let t = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_surrogate = surrogate),
        )
        .unwrap();
        rows.push(vec![
            if surrogate {
                "surrogate join"
            } else {
                "full-record broadcast"
            }
            .into(),
            fmt_duration(t),
        ]);
    }
    print_table(
        "Ablation: surrogate index-nested-loop join (Fig 19)",
        &["Variant", "Time"],
        &rows,
    );
}

/// Ablation: global token order — increasing frequency vs arbitrary
/// (§4.2.2's claim that frequency order generates fewer candidate pairs).
fn ablation_token_order(cfg: &WorkloadConfig) {
    use asterix_simfn::prefix::TokenOrder;
    use asterix_simfn::tokenize::word_tokens_distinct;
    use std::collections::HashMap;
    let records = amazon_reviews(cfg.amazon_records.min(5_000), cfg.seed);
    let token_sets: Vec<Vec<String>> = records
        .iter()
        .filter_map(|r| r.field("summary").as_str().map(word_tokens_distinct))
        .collect();
    let mut counts: HashMap<String, usize> = HashMap::new();
    for ts in &token_sets {
        for t in ts {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
    }
    let freq_order = TokenOrder::from_counts(counts.clone());
    let arbitrary = TokenOrder::arbitrary(counts.keys().cloned());
    let delta = 0.8;
    let candidate_pairs = |order: &TokenOrder<String>| -> u64 {
        // Sum over prefix tokens of C(n, 2): the pairs a prefix join
        // would generate.
        let mut by_token: HashMap<u32, u64> = HashMap::new();
        for ts in &token_sets {
            for tok in order.prefix(ts, delta) {
                *by_token.entry(tok).or_insert(0) += 1;
            }
        }
        by_token.values().map(|n| n * n.saturating_sub(1) / 2).sum()
    };
    let started = Instant::now();
    let freq_pairs = candidate_pairs(&freq_order);
    let freq_time = started.elapsed();
    let started = Instant::now();
    let arb_pairs = candidate_pairs(&arbitrary);
    let arb_time = started.elapsed();
    print_table(
        "Ablation: global token order (candidate pairs at δ=0.8)",
        &["Order", "Candidate pairs", "Prefix-extraction time"],
        &[
            vec![
                "increasing frequency (paper)".into(),
                freq_pairs.to_string(),
                fmt_duration(freq_time),
            ],
            vec![
                "arbitrary".into(),
                arb_pairs.to_string(),
                fmt_duration(arb_time),
            ],
        ],
    );
}

// ---------------------------------------------------------------------------
// durability: kill -9 torture harness + WAL group-commit throughput
// ---------------------------------------------------------------------------

/// Partitions for the torture rounds. Kept small so per-partition WALs
/// and manifests all see traffic even in `--quick` runs.
const TORTURE_PARTITIONS: usize = 2;
/// The child issues an explicit `flush()` this often, so flush / merge /
/// manifest-commit crash points are reached within a few dozen inserts.
const TORTURE_FLUSH_EVERY: i64 = 25;

/// A scratch directory under the system tempdir, removed on drop. The
/// torture rounds each get a fresh one so crashes cannot contaminate
/// each other.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asterix-bench-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The durable configuration shared by the torture child and the
/// parent's recovery verification — both sides must agree on page size
/// and partition count for the on-disk files to be readable.
fn torture_config(dir: &std::path::Path) -> InstanceConfig {
    use asterix_core::DurabilityConfig;
    let mut ic = InstanceConfig::tiny(TORTURE_PARTITIONS);
    ic.durability = DurabilityConfig::at(dir);
    // Short group-commit window: the torture child fsyncs on every
    // insert anyway, and the rounds should finish quickly.
    ic.durability.wal_commit_interval = std::time::Duration::from_micros(200);
    ic
}

/// Deterministic record for id `id` whose summary is drawn from a small
/// vocabulary, so the similarity query below always has matches.
fn torture_record(id: i64) -> asterix_adm::Value {
    const WORDS: [&str; 8] = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    let summary = format!(
        "{} {}",
        WORDS[(id.rem_euclid(8)) as usize],
        WORDS[((id / 8).rem_euclid(8)) as usize]
    );
    asterix_adm::record! {"id" => id, "summary" => summary.as_str()}
}

/// A similarity selection that the keyword index can answer; used for
/// the scan ≡ index consistency check after every crash.
const TORTURE_SIM_Q: &str = "for $t in dataset ARevs \
     where similarity-jaccard(word-tokens($t.summary), word-tokens('alpha beta')) >= 0.3 \
     return $t.id";

/// Hidden child mode: open the durable instance at `args[0]`, create the
/// dataset + keyword index if this is a fresh directory, then insert
/// records from `args[1]` onward, printing `ACK <id>` after each insert
/// returns `Ok` (i.e. after the WAL group commit made it durable) and
/// flushing every `args[3]` inserts. The parent crashes this process via
/// `ASTERIX_CRASH_POINT` aborts or a raw SIGKILL; every id this process
/// ACKed must survive recovery.
fn durability_child(args: &[String]) {
    use std::io::Write;
    let dir = std::path::PathBuf::from(args.first().expect("durability-child: data dir"));
    let start_id: i64 = args[1].parse().expect("durability-child: start id");
    let count: i64 = args[2].parse().expect("durability-child: count");
    let flush_every: i64 = args[3].parse().expect("durability-child: flush interval");

    let db = Instance::open(torture_config(&dir)).expect("durability-child: open");
    if db.count_records("ARevs").is_err() {
        db.create_dataset("ARevs", "id").expect("durability-child: create dataset");
        db.create_index("ARevs", "sum_kw", "summary", IndexKind::Keyword)
            .expect("durability-child: create index");
    }
    let mut out = std::io::stdout().lock();
    for i in 0..count {
        let id = start_id + i;
        db.insert("ARevs", torture_record(id)).expect("durability-child: insert");
        // The ACK line *is* the acknowledgment the harness checks for —
        // only printed after insert() returned, i.e. after the WAL fsync.
        writeln!(out, "ACK {id}").expect("durability-child: ack");
        out.flush().expect("durability-child: ack flush");
        if flush_every > 0 && (i + 1) % flush_every == 0 {
            db.flush("ARevs").expect("durability-child: flush");
        }
    }
}

/// Spawn the torture child against `dir` and return `(acked ids,
/// crashed)`. With `crash_point` set the child aborts at that point; with
/// `kill_after` the parent SIGKILLs it once that many ACKs arrived. ACKs
/// already in the pipe when the child dies still count — the child only
/// writes them after the insert was acknowledged durable.
fn spawn_torture_child(
    dir: &std::path::Path,
    start_id: i64,
    count: i64,
    crash_point: Option<&str>,
    kill_after: Option<usize>,
) -> (Vec<i64>, bool) {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("durability-child")
        .arg(dir)
        .arg(start_id.to_string())
        .arg(count.to_string())
        .arg(TORTURE_FLUSH_EVERY.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .env_remove("ASTERIX_CRASH_POINT");
    if let Some(point) = crash_point {
        cmd.env("ASTERIX_CRASH_POINT", point);
    }
    let mut child = cmd.spawn().expect("spawn durability child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut acked = Vec::new();
    let mut killed = false;
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if let Some(id) = line.strip_prefix("ACK ").and_then(|s| s.trim().parse::<i64>().ok()) {
            acked.push(id);
            if !killed && kill_after.is_some_and(|k| acked.len() >= k) {
                let _ = child.kill();
                killed = true;
                // Keep reading: ACKs the child wrote before dying are
                // real acknowledgments and must survive recovery.
            }
        }
    }
    let status = child.wait().expect("wait for durability child");
    (acked, !status.success())
}

/// Reopen `dir` in-process and check the recovery invariants: every
/// acked id is present and the similarity query answers identically with
/// and without the index. Returns the per-round measurements.
struct TortureVerify {
    recovered: u64,
    missing: usize,
    scan_eq_index: bool,
    replayed: u64,
    wal_truncated: u64,
    orphans_removed: u64,
    recovery_us: u64,
}

fn verify_torture_round(dir: &std::path::Path, acked: &[i64]) -> TortureVerify {
    use asterix_adm::Value;
    let db = Instance::open(torture_config(dir)).expect("reopen after crash");
    let stats = db.recovery_stats().expect("durable instance reports recovery stats");
    let (replayed, wal_truncated, orphans_removed, recovery_us) = (
        stats.wal_records_replayed,
        stats.wal_bytes_truncated,
        stats.orphan_files_removed,
        stats.recovery_time.as_micros() as u64,
    );
    let ids: std::collections::HashSet<i64> = db
        .query("for $t in dataset ARevs return $t.id")
        .expect("id scan after recovery")
        .rows
        .into_iter()
        .filter_map(|v| match v {
            Value::Int64(i) => Some(i),
            _ => None,
        })
        .collect();
    let missing = acked.iter().filter(|id| !ids.contains(id)).count();
    let collect = |r: Result<asterix_core::QueryResult, asterix_core::CoreError>| {
        let mut ids: Vec<i64> = r
            .expect("similarity query after recovery")
            .rows
            .into_iter()
            .filter_map(|v| match v {
                Value::Int64(i) => Some(i),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids
    };
    let with_index = collect(db.query(TORTURE_SIM_Q));
    let without_index = collect(db.query_with(TORTURE_SIM_Q, &no_index()));
    // The recovered instance must also accept new writes.
    db.insert("ARevs", torture_record(9_999_999)).expect("post-recovery insert");
    db.flush("ARevs").expect("post-recovery flush");
    TortureVerify {
        recovered: ids.len() as u64,
        missing,
        scan_eq_index: with_index == without_index && !with_index.is_empty(),
        replayed,
        wal_truncated,
        orphans_removed,
        recovery_us,
    }
}

fn durability_report(cfg: &WorkloadConfig, quick: bool) {
    use asterix_adm::Value;
    use std::time::Duration;

    println!("\nDurability: kill -9 torture + crash points + WAL group commit");
    let crash_rounds = if quick { 1 } else { 3 };
    let kill_rounds = if quick { 2 } else { 5 };
    let seed_records: i64 = if quick { 120 } else { 400 };
    let child_records: i64 = if quick { 400 } else { 1_200 };

    // --- torture rounds -------------------------------------------------
    let mut scenarios: Vec<(String, Option<&'static str>, Option<usize>)> = Vec::new();
    for _ in 0..crash_rounds {
        for point in ["flush.mid", "merge.mid", "manifest.rename"] {
            scenarios.push((format!("crash:{point}"), Some(point), None));
        }
    }
    for round in 0..kill_rounds {
        scenarios.push(("sigkill".to_string(), None, Some(40 + round * 61)));
    }

    let mut rows = Vec::new();
    let mut round_docs = Vec::new();
    for (mode, crash_point, kill_after) in &scenarios {
        let scratch = ScratchDir::new("durability");
        // Seed in-process so the dataset + index exist and sealed
        // components are on disk before the crash round begins.
        let mut acked: Vec<i64> = {
            let db = Instance::open(torture_config(scratch.path())).expect("seed open");
            db.create_dataset("ARevs", "id").expect("seed dataset");
            db.create_index("ARevs", "sum_kw", "summary", IndexKind::Keyword)
                .expect("seed index");
            let loaded = db
                .load("ARevs", (0..seed_records).map(torture_record))
                .expect("seed load");
            assert_eq!(loaded, seed_records as u64);
            db.flush("ARevs").expect("seed flush");
            (0..seed_records).collect()
        };

        let (child_acked, crashed) = spawn_torture_child(
            scratch.path(),
            seed_records,
            child_records,
            *crash_point,
            *kill_after,
        );
        assert!(
            crashed,
            "{mode}: the torture child must die mid-stream, not exit cleanly \
             (it acked {} of {child_records})",
            child_acked.len()
        );
        acked.extend(&child_acked);

        let v = verify_torture_round(scratch.path(), &acked);
        assert_eq!(
            v.missing, 0,
            "{mode}: {} acknowledged writes lost after recovery",
            v.missing
        );
        assert!(
            v.scan_eq_index,
            "{mode}: scan and index disagree after recovery"
        );
        println!(
            "  {mode}: acked={} recovered={} replayed={} wal_truncated={}B \
             orphans={} recovery={}",
            acked.len(),
            v.recovered,
            v.replayed,
            v.wal_truncated,
            v.orphans_removed,
            fmt_duration(Duration::from_micros(v.recovery_us)),
        );
        rows.push(vec![
            mode.clone(),
            acked.len().to_string(),
            v.recovered.to_string(),
            "0".to_string(),
            v.replayed.to_string(),
            v.wal_truncated.to_string(),
            v.orphans_removed.to_string(),
            fmt_duration(Duration::from_micros(v.recovery_us)),
        ]);
        round_docs.push(Value::record(vec![
            ("mode".to_string(), Value::String(mode.clone())),
            ("acked".to_string(), Value::Int64(acked.len() as i64)),
            ("recovered".to_string(), Value::Int64(v.recovered as i64)),
            ("lost".to_string(), Value::Int64(v.missing as i64)),
            (
                "scan_eq_index".to_string(),
                Value::Boolean(v.scan_eq_index),
            ),
            ("replayed_records".to_string(), Value::Int64(v.replayed as i64)),
            (
                "wal_bytes_truncated".to_string(),
                Value::Int64(v.wal_truncated as i64),
            ),
            (
                "orphan_files_removed".to_string(),
                Value::Int64(v.orphans_removed as i64),
            ),
            ("recovery_us".to_string(), Value::Int64(v.recovery_us as i64)),
        ]));
    }
    print_table(
        "Durability torture: zero acked-write loss across crashes",
        &[
            "crash", "acked", "recovered", "lost", "replayed", "wal trunc B", "orphans",
            "recovery",
        ],
        &rows,
    );

    // --- WAL group-commit throughput ------------------------------------
    // Concurrent writers against one durable instance: each insert blocks
    // until its WAL record is fsynced, so throughput beyond
    // 1/commit_interval per partition is group commit at work. The
    // batching factor is appends per fsync batch.
    let per_writer: i64 = if quick { 150 } else { 600 };
    let writer_levels: &[usize] = &[1, 8];
    let mut gc_rows = Vec::new();
    let mut gc_docs = Vec::new();
    let mut replay_doc = Value::record(vec![]);
    for (li, &writers) in writer_levels.iter().enumerate() {
        let scratch = ScratchDir::new("groupcommit");
        let mut ic = InstanceConfig::with_partitions(cfg.partitions);
        ic.durability = asterix_core::DurabilityConfig::at(scratch.path());
        ic.durability.wal_commit_interval = Duration::from_micros(500);
        let db = Instance::open(ic.clone()).expect("group-commit open");
        db.create_dataset("ARevs", "id").expect("group-commit dataset");
        let before = db.metrics().gauges.durability.clone();
        let started = Instant::now();
        std::thread::scope(|s| {
            for w in 0..writers {
                let db = &db;
                s.spawn(move || {
                    let base = (w as i64 + 1) * 1_000_000;
                    for i in 0..per_writer {
                        db.insert("ARevs", torture_record(base + i))
                            .expect("group-commit insert");
                    }
                });
            }
        });
        let wall_us = started.elapsed().as_micros().max(1) as u64;
        let after = db.metrics().gauges.durability.clone();
        let total = (writers as i64 * per_writer) as u64;
        let per_sec = total as f64 * 1e6 / wall_us as f64;
        let appends = after.wal_appends - before.wal_appends;
        let commits = (after.wal_group_commits - before.wal_group_commits).max(1);
        let batching = appends as f64 / commits as f64;
        println!(
            "  group commit: writers={writers} inserts={total} wall={} \
             rate={per_sec:.0}/s appends={appends} fsync_batches={commits} \
             batching={batching:.2}x",
            fmt_duration(Duration::from_micros(wall_us)),
        );
        gc_rows.push(vec![
            writers.to_string(),
            total.to_string(),
            fmt_duration(Duration::from_micros(wall_us)),
            format!("{per_sec:.0}"),
            format!("{batching:.2}"),
        ]);
        gc_docs.push(Value::record(vec![
            ("writers".to_string(), Value::Int64(writers as i64)),
            ("inserts".to_string(), Value::Int64(total as i64)),
            ("wall_us".to_string(), Value::Int64(wall_us as i64)),
            ("inserts_per_sec".to_string(), Value::from(per_sec)),
            ("wal_appends".to_string(), Value::Int64(appends as i64)),
            ("wal_group_commits".to_string(), Value::Int64(commits as i64)),
            (
                "wal_fsyncs".to_string(),
                Value::Int64((after.wal_fsyncs - before.wal_fsyncs) as i64),
            ),
            ("batching_factor".to_string(), Value::from(batching)),
        ]));

        // After the widest level, measure cold-start recovery of the
        // whole unflushed WAL — drop, reopen, time the replay.
        if li == writer_levels.len() - 1 {
            drop(db);
            let t0 = Instant::now();
            let db = Instance::open(ic).expect("replay reopen");
            let open_us = t0.elapsed().as_micros().max(1) as u64;
            let stats = db.recovery_stats().expect("replay stats");
            let replayed = stats.wal_records_replayed;
            let recovery_us = stats.recovery_time.as_micros() as u64;
            assert_eq!(
                db.count_records("ARevs").expect("replay count"),
                total,
                "WAL replay must restore every unflushed insert"
            );
            let rate = replayed as f64 * 1e6 / recovery_us.max(1) as f64;
            println!(
                "  recovery: replayed={replayed} records in {} ({rate:.0}/s, open {} total)",
                fmt_duration(Duration::from_micros(recovery_us)),
                fmt_duration(Duration::from_micros(open_us)),
            );
            replay_doc = Value::record(vec![
                ("records_replayed".to_string(), Value::Int64(replayed as i64)),
                ("recovery_us".to_string(), Value::Int64(recovery_us as i64)),
                ("open_us".to_string(), Value::Int64(open_us as i64)),
                ("replay_per_sec".to_string(), Value::from(rate)),
            ]);
        }
    }
    print_table(
        "WAL group commit: concurrent writers, fsync batching",
        &["writers", "inserts", "wall", "inserts/s", "batching"],
        &gc_rows,
    );

    // --- bulk load: one group commit per WAL batch ----------------------
    let bulk_records: i64 = if quick { 2_000 } else { 10_000 };
    let bulk_doc = {
        let scratch = ScratchDir::new("bulkload");
        let mut ic = InstanceConfig::with_partitions(cfg.partitions);
        ic.durability = asterix_core::DurabilityConfig::at(scratch.path());
        let db = Instance::open(ic).expect("bulk open");
        db.create_dataset("ARevs", "id").expect("bulk dataset");
        let started = Instant::now();
        let loaded = db
            .load("ARevs", (0..bulk_records).map(torture_record))
            .expect("bulk load");
        let wall_us = started.elapsed().as_micros().max(1) as u64;
        assert_eq!(loaded, bulk_records as u64);
        let g = db.metrics().gauges.durability.clone();
        let per_sec = bulk_records as f64 * 1e6 / wall_us as f64;
        println!(
            "  bulk load: {bulk_records} records in {} ({per_sec:.0}/s, \
             {} WAL group commits)",
            fmt_duration(Duration::from_micros(wall_us)),
            g.wal_group_commits,
        );
        Value::record(vec![
            ("records".to_string(), Value::Int64(bulk_records)),
            ("wall_us".to_string(), Value::Int64(wall_us as i64)),
            ("records_per_sec".to_string(), Value::from(per_sec)),
            ("wal_appends".to_string(), Value::Int64(g.wal_appends as i64)),
            (
                "wal_group_commits".to_string(),
                Value::Int64(g.wal_group_commits as i64),
            ),
        ])
    };

    let doc = Value::record(vec![
        ("quick".to_string(), Value::Boolean(quick)),
        (
            "torture_partitions".to_string(),
            Value::Int64(TORTURE_PARTITIONS as i64),
        ),
        (
            "group_commit_partitions".to_string(),
            Value::Int64(cfg.partitions as i64),
        ),
        ("seed_records".to_string(), Value::Int64(seed_records)),
        ("child_records".to_string(), Value::Int64(child_records)),
        ("torture".to_string(), Value::OrderedList(round_docs)),
        ("group_commit".to_string(), Value::OrderedList(gc_docs)),
        ("wal_replay".to_string(), replay_doc),
        ("bulk_load".to_string(), bulk_doc),
    ]);
    let json = asterix_adm::json::to_string(&doc);
    std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json");
}

// --------------------------------------------------------------------
// serve: the asterix-server HTTP service — streaming parity, latency
// under concurrency, and zero acked-ingest loss across kill -9.
// --------------------------------------------------------------------

/// Minimal HTTP/1.1 client exchange (`Connection: close`); decodes a
/// chunked body when the server streamed one. Errors are connection
/// failures — expected while the torture child is being killed.
fn http_exchange(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).to_string();
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no head"))?;
    let head = &text[..head_end];
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body_raw = &text[head_end + 4..];
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        let mut out = String::new();
        let mut rest = body_raw;
        while let Some(line_end) = rest.find("\r\n") {
            let size = usize::from_str_radix(rest[..line_end].trim(), 16).unwrap_or(0);
            if size == 0 || rest.len() < line_end + 2 + size + 2 {
                break;
            }
            out.push_str(&rest[line_end + 2..line_end + 2 + size]);
            rest = &rest[line_end + 2 + size + 2..];
        }
        out
    } else {
        body_raw.to_string()
    };
    Ok((status, body))
}

/// Run `statement` over `POST /query` and return the sorted serialized
/// result rows (the canonical form the parity check compares).
fn http_query_rows(addr: std::net::SocketAddr, statement: &str) -> (Vec<String>, u64) {
    use asterix_adm::Value;
    let body = format!(
        "{{\"statement\": {}}}",
        asterix_adm::json::to_string(&Value::from(statement))
    );
    // Time only the wire exchange (request out, full stream back);
    // client-side NDJSON parsing is not server overhead.
    let started = Instant::now();
    let (status, text) = http_exchange(addr, "POST", "/query", &body).expect("query exchange");
    let exchange_us = started.elapsed().as_micros() as u64;
    assert_eq!(status, 200, "query over HTTP failed: {text}");
    let mut rows = Vec::new();
    let mut done = false;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = asterix_adm::json::parse(line).expect("NDJSON line");
        if !matches!(v.field("row"), Value::Missing) {
            rows.push(asterix_adm::json::to_string(v.field("row")));
        } else if !matches!(v.field("done"), Value::Missing) {
            done = true;
        } else {
            panic!("in-band query error: {line}");
        }
    }
    assert!(done, "stream ended without a done line");
    rows.sort();
    (rows, exchange_us)
}

/// Deterministic review record for the serve workload.
fn serve_record(id: i64) -> asterix_adm::Value {
    const ADJ: [&str; 8] = [
        "great", "awful", "decent", "fantastic", "cheap", "sturdy", "fragile", "reliable",
    ];
    const NOUN: [&str; 8] = [
        "product", "charger", "cable", "speaker", "keyboard", "monitor", "backpack", "bottle",
    ];
    let summary = format!(
        "{} {} {} number {}",
        ADJ[(id.rem_euclid(8)) as usize],
        ADJ[((id / 8).rem_euclid(8)) as usize],
        NOUN[((id / 64).rem_euclid(8)) as usize],
        id
    );
    asterix_adm::record! {"id" => id, "summary" => summary.as_str()}
}

/// Hidden child mode: open the durable instance at `args[0]` (creating
/// the torture dataset + index on a fresh directory), start a full
/// `asterix-server` on an OS-assigned port, publish the bound address
/// atomically at `args[1]`, and serve until killed. The parent SIGKILLs
/// this process mid-ingest; every batch it answered `200` must survive.
fn serve_child(args: &[String]) {
    let dir = std::path::PathBuf::from(args.first().expect("serve-child: data dir"));
    let addr_file = std::path::PathBuf::from(args.get(1).expect("serve-child: addr file"));
    let db = Instance::open(torture_config(&dir)).expect("serve-child: open");
    if db.count_records("ARevs").is_err() {
        db.create_dataset("ARevs", "id").expect("serve-child: create dataset");
        db.create_index("ARevs", "sum_kw", "summary", IndexKind::Keyword)
            .expect("serve-child: create index");
    }
    let server = asterix_server::AsterixServer::start(
        std::sync::Arc::new(db),
        asterix_server::ServerConfig::ephemeral(),
    )
    .expect("serve-child: bind");
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).expect("serve-child: addr write");
    std::fs::rename(&tmp, &addr_file).expect("serve-child: addr publish");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Spawn a serve child on a fresh scratch dir and wait for its address.
fn spawn_serve_child(
    dir: &std::path::Path,
    addr_file: &std::path::Path,
) -> (std::process::Child, std::net::SocketAddr) {
    let exe = std::env::current_exe().expect("current exe");
    let child = std::process::Command::new(exe)
        .arg("serve-child")
        .arg(dir)
        .arg(addr_file)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .env_remove("ASTERIX_CRASH_POINT")
        .spawn()
        .expect("spawn serve child");
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "serve child did not publish its address in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    (child, addr)
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn serve_report(cfg: &WorkloadConfig, quick: bool) {
    use asterix_adm::Value;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    println!("\nServe: HTTP streaming parity, latency, and ingest durability");
    let records: i64 = if quick { 1_500 } else { 8_000 };
    let clients: usize = if quick { 8 } else { 64 };
    let per_client: usize = if quick { 3 } else { 8 };
    let torture_rounds: usize = if quick { 1 } else { 3 };
    let feeders: usize = if quick { 2 } else { 4 };
    let kill_after_acks: usize = if quick { 150 } else { 600 };

    // --- streaming parity + latency under concurrency -------------------
    let db = Instance::new(InstanceConfig::with_partitions(cfg.partitions));
    db.create_dataset("Reviews", "id").expect("serve dataset");
    for i in 0..records {
        db.insert("Reviews", serve_record(i)).expect("serve seed");
    }
    db.create_index("Reviews", "smix", "summary", IndexKind::Keyword)
        .expect("serve index");
    let db = Arc::new(db);
    let query = "for $r in dataset Reviews \
                 where similarity-jaccard(word-tokens($r.summary), \
                                          word-tokens('great fantastic product number')) >= 0.4 \
                 return $r.id";

    let canonical: Vec<String> = {
        let mut rows: Vec<String> = db
            .query(query)
            .expect("library baseline")
            .rows
            .iter()
            .map(asterix_adm::json::to_string)
            .collect();
        rows.sort();
        rows
    };
    assert!(!canonical.is_empty(), "serve parity query returned no rows");

    // Library execution at the same concurrency as the HTTP clients, so
    // the ratio isolates the HTTP + streaming overhead rather than
    // admission queueing (both paths share the scheduler).
    let library_lat: Vec<u64> = {
        let lat = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    for _ in 0..per_client {
                        let started = Instant::now();
                        let result = db.query(query).expect("library query");
                        let us = started.elapsed().as_micros() as u64;
                        assert_eq!(result.rows.len(), canonical.len());
                        lat.lock().unwrap().push(us);
                    }
                });
            }
        });
        let mut lat = lat.into_inner().unwrap();
        lat.sort_unstable();
        lat
    };

    let server = asterix_server::AsterixServer::start(
        Arc::clone(&db),
        asterix_server::ServerConfig::ephemeral(),
    )
    .expect("start serve server");
    let addr = server.local_addr();
    let parity;
    let http_lat: Vec<u64> = {
        let lat = Mutex::new(Vec::new());
        let all_match = AtomicBool::new(true);
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| {
                    for _ in 0..per_client {
                        let (rows, us) = http_query_rows(addr, query);
                        if rows != canonical {
                            all_match.store(false, Ordering::SeqCst);
                        }
                        lat.lock().unwrap().push(us);
                    }
                });
            }
        });
        parity = all_match.load(Ordering::SeqCst);
        let mut lat = lat.into_inner().unwrap();
        lat.sort_unstable();
        lat
    };
    assert!(parity, "a streamed HTTP result diverged from library execution");

    let lib_p50 = percentile_us(&library_lat, 0.50);
    let lib_p95 = percentile_us(&library_lat, 0.95);
    let http_p50 = percentile_us(&http_lat, 0.50);
    let http_p95 = percentile_us(&http_lat, 0.95);
    let p95_ratio = http_p95 as f64 / lib_p95.max(1) as f64;
    print_table(
        &format!(
            "Streaming over HTTP vs direct library at {clients} concurrent clients \
             ({} queries each, {} rows per result)",
            per_client,
            canonical.len()
        ),
        &["path", "p50", "p95"],
        &[
            vec![
                "library".to_string(),
                fmt_duration(std::time::Duration::from_micros(lib_p50)),
                fmt_duration(std::time::Duration::from_micros(lib_p95)),
            ],
            vec![
                "http".to_string(),
                fmt_duration(std::time::Duration::from_micros(http_p50)),
                fmt_duration(std::time::Duration::from_micros(http_p95)),
            ],
        ],
    );
    println!("  parity: all {} HTTP results identical to library execution", clients * per_client);
    println!("  p95 ratio (http/library): {p95_ratio:.3}");
    drop(server);

    // --- ingest durability across kill -9 --------------------------------
    let mut round_docs = Vec::new();
    let mut rows = Vec::new();
    for round in 0..torture_rounds {
        let scratch = ScratchDir::new("serve");
        let addr_file = scratch.path().with_extension(format!("addr{round}"));
        let (mut child, addr) = spawn_serve_child(scratch.path(), &addr_file);

        let acked: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for f in 0..feeders {
                let acked = Arc::clone(&acked);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut next = (f as i64 + 1) * 1_000_000;
                    while !stop.load(Ordering::SeqCst) {
                        let ids: Vec<i64> = (next..next + 10).collect();
                        let batch: String = ids
                            .iter()
                            .map(|id| {
                                let mut line =
                                    asterix_adm::json::to_string(&torture_record(*id));
                                line.push('\n');
                                line
                            })
                            .collect();
                        match http_exchange(addr, "POST", "/ingest/ARevs", &batch) {
                            Ok((200, _)) => {
                                // 200 means every record in the batch is
                                // durable — these ids must survive SIGKILL.
                                acked.lock().unwrap().extend(&ids);
                                next += 10;
                            }
                            Ok((429, _)) => {
                                // Feed saturated: retry the same batch.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                            }
                            Ok((status, body)) => {
                                panic!("unexpected ingest status {status}: {body}")
                            }
                            Err(_) => {
                                // Connection failure: the child is being
                                // (or has been) killed. Nothing from this
                                // batch was acknowledged.
                                std::thread::sleep(std::time::Duration::from_millis(10));
                            }
                        }
                    }
                });
            }
            // Kill the server for real once enough batches are acked.
            while acked.lock().unwrap().len() < kill_after_acks {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            child.kill().expect("SIGKILL serve child");
            let _ = child.wait();
            stop.store(true, Ordering::SeqCst);
        });

        let acked = Arc::try_unwrap(acked).unwrap().into_inner().unwrap();
        assert!(acked.len() >= kill_after_acks);
        let v = verify_torture_round(scratch.path(), &acked);
        assert_eq!(
            v.missing, 0,
            "round {round}: {} HTTP-acked records lost after kill -9",
            v.missing
        );
        assert!(
            v.scan_eq_index,
            "round {round}: scan and index disagree after recovery"
        );
        println!(
            "  round {round}: acked={} recovered={} lost=0 replayed={} recovery={}",
            acked.len(),
            v.recovered,
            v.replayed,
            fmt_duration(std::time::Duration::from_micros(v.recovery_us)),
        );
        rows.push(vec![
            round.to_string(),
            acked.len().to_string(),
            v.recovered.to_string(),
            "0".to_string(),
            v.replayed.to_string(),
            fmt_duration(std::time::Duration::from_micros(v.recovery_us)),
        ]);
        round_docs.push(Value::record(vec![
            ("round".to_string(), Value::Int64(round as i64)),
            ("acked".to_string(), Value::Int64(acked.len() as i64)),
            ("recovered".to_string(), Value::Int64(v.recovered as i64)),
            ("lost".to_string(), Value::Int64(v.missing as i64)),
            ("replayed_records".to_string(), Value::Int64(v.replayed as i64)),
            ("recovery_us".to_string(), Value::Int64(v.recovery_us as i64)),
        ]));
    }
    print_table(
        "Ingest-over-HTTP torture: zero acked-batch loss across kill -9",
        &["round", "acked", "recovered", "lost", "replayed", "recovery"],
        &rows,
    );

    let doc = Value::record(vec![
        ("quick".to_string(), Value::Boolean(quick)),
        ("records".to_string(), Value::Int64(records)),
        ("clients".to_string(), Value::Int64(clients as i64)),
        ("queries_per_client".to_string(), Value::Int64(per_client as i64)),
        ("rows_per_query".to_string(), Value::Int64(canonical.len() as i64)),
        (
            "streaming".to_string(),
            Value::record(vec![
                ("parity".to_string(), Value::Boolean(parity)),
                ("library_p50_us".to_string(), Value::Int64(lib_p50 as i64)),
                ("library_p95_us".to_string(), Value::Int64(lib_p95 as i64)),
                ("http_p50_us".to_string(), Value::Int64(http_p50 as i64)),
                ("http_p95_us".to_string(), Value::Int64(http_p95 as i64)),
                ("p95_ratio".to_string(), Value::from(p95_ratio)),
            ]),
        ),
        (
            "ingest".to_string(),
            Value::record(vec![
                ("feeders".to_string(), Value::Int64(feeders as i64)),
                ("kill_after_acks".to_string(), Value::Int64(kill_after_acks as i64)),
                ("rounds".to_string(), Value::OrderedList(round_docs)),
                ("zero_loss".to_string(), Value::Boolean(true)),
            ]),
        ),
    ]);
    let json = asterix_adm::json::to_string(&doc);
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json ({} bytes)", json.len());
}
