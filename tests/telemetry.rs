//! Instance-wide telemetry: per-class histograms account for every query
//! under concurrency, tracing spans form well-nested trees per query,
//! the LSM lifecycle event ring never loses the newest K events, the
//! and the slow-query log captures the full plan + profile.

use asterix_adm::{record, IndexKind};
use asterix_core::{
    Instance, InstanceConfig, QueryClass, QueryOptions,
};
use asterix_datagen::amazon_reviews;
use asterix_storage::{FaultInjector, FaultRule, IoOp, SpanRecord};
use std::sync::Arc;
use std::time::Duration;

fn reviews_instance(n: usize) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(n, 42)).unwrap();
    db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
        .unwrap();
    db.flush("ARevs").unwrap();
    db
}

const SCAN_Q: &str = "for $t in dataset ARevs return $t.id";
const SELECT_Q: &str = "for $t in dataset ARevs \
     where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.4 \
     return $t.id";
const JOIN_Q: &str = "for $o in dataset ARevs \
     for $i in dataset ARevs \
     where $o.id < 20 \
       and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
       and $o.id < $i.id \
     return {\"o\": $o.id, \"i\": $i.id}";

fn class_snapshot(db: &Instance, class: QueryClass) -> asterix_core::telemetry::ClassSnapshot {
    db.metrics()
        .classes
        .into_iter()
        .find(|c| c.class == class)
        .expect("class present in snapshot")
}

/// Every query lands in exactly one class, and the latency histogram's
/// total equals the number of queries issued in that class.
#[test]
fn classes_and_histogram_totals_match_issued_queries() {
    let db = reviews_instance(200);
    for _ in 0..3 {
        db.query(SCAN_Q).unwrap();
    }
    for _ in 0..2 {
        let r = db.query(SELECT_Q).unwrap();
        assert!(r.plan.used_rule("introduce-index-for-selection"));
    }
    let r = db.query(JOIN_Q).unwrap();
    assert!(r.plan.used_rule("introduce-index-nested-loop-join"));

    let scan = class_snapshot(&db, QueryClass::Scan);
    let select = class_snapshot(&db, QueryClass::IndexSelect);
    let join = class_snapshot(&db, QueryClass::IndexJoin);
    assert_eq!(scan.completed, 3);
    assert_eq!(select.completed, 2);
    assert_eq!(join.completed, 1);
    for c in [&scan, &select, &join] {
        assert_eq!(c.latency.count, c.completed, "histogram total == query count");
        assert_eq!(
            c.latency.buckets.iter().sum::<u64>(),
            c.latency.count,
            "histogram buckets sum to the count"
        );
        assert_eq!(c.compile.count, c.completed);
        assert_eq!(c.failed, 0);
        assert_eq!(c.timeouts, 0);
        let (p50, p95, p99) = (
            c.latency.percentile_us(0.50),
            c.latency.percentile_us(0.95),
            c.latency.percentile_us(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }
    assert!(scan.rows_returned >= 200);
}

/// N query threads racing insert + flush threads: after the dust settles
/// the class counters and histogram totals account for every single
/// query, and the event ring holds the newest K events with contiguous
/// sequence numbers.
#[test]
fn concurrent_queries_and_flushes_account_exactly() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 6;
    let mut config = InstanceConfig::tiny(2);
    config.telemetry.event_log_capacity = 16;
    let db = Instance::new(config);
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(120, 42)).unwrap();
    db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
        .unwrap();
    db.flush("ARevs").unwrap();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    if (t + i) % 2 == 0 {
                        db.query(SCAN_Q).unwrap();
                    } else {
                        db.query(SELECT_Q).unwrap();
                    }
                }
            });
        }
        // DML + flush churn concurrent with the queries: inserts keep
        // refilling memory components so every flush emits events.
        let db = &db;
        s.spawn(move || {
            for i in 0..8 {
                db.insert(
                    "ARevs",
                    record! {"id" => 1_000_000 + i as i64, "summary" => "churn churn churn",
                             "reviewerName" => "tel"},
                )
                .unwrap();
                db.flush("ARevs").unwrap();
            }
        });
    });

    // DDL, load, and flush are not queries — the class counters account
    // for exactly the queries the threads issued, nothing more.
    let m = db.metrics();
    let total: u64 = m.classes.iter().map(|c| c.total()).sum();
    assert_eq!(total, (THREADS * PER_THREAD) as u64);
    let hist_total: u64 = m.classes.iter().map(|c| c.latency.count).sum();
    assert_eq!(hist_total, total, "histogram totals == query count");
    assert!(m.classes.iter().all(|c| c.failed == 0 && c.timeouts == 0));

    // The flush churn left lifecycle events in the bounded ring; the ring
    // never exceeds its capacity and never loses the newest events.
    let log = db.telemetry().event_log().clone();
    let events = log.snapshot();
    assert!(log.total_recorded() > 0);
    assert!(events.len() <= 16);
    let last = events.last().unwrap().seq;
    assert_eq!(last, log.total_recorded() - 1, "newest event is retained");
}

/// The event ring under concurrent flushes: `snapshot` is always the
/// newest K events, oldest first, with contiguous sequence numbers ending
/// at `total_recorded - 1`.
#[test]
fn event_ring_retains_newest_k_under_concurrency() {
    let mut config = InstanceConfig::tiny(2);
    config.telemetry.event_log_capacity = 8;
    let db = Instance::new(config);
    db.create_dataset("ARevs", "id").unwrap();
    std::thread::scope(|s| {
        for t in 0..3 {
            let db = &db;
            s.spawn(move || {
                for i in 0..10 {
                    db.insert(
                        "ARevs",
                        record! {"id" => (t * 100 + i) as i64, "summary" => "x y z",
                                 "reviewerName" => "r"},
                    )
                    .unwrap();
                    db.flush("ARevs").unwrap();
                }
            });
        }
    });
    let log = db.telemetry().event_log().clone();
    let events = log.snapshot();
    let recorded = log.total_recorded();
    assert!(recorded >= 8, "flush churn must have recorded events");
    assert_eq!(events.len(), 8);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let expect: Vec<u64> = (recorded - 8..recorded).collect();
    assert_eq!(seqs, expect, "ring must hold exactly the newest K events");
    assert_eq!(log.dropped(), recorded - 8);
    // Flush events carry tree tags and byte counts.
    assert!(events
        .iter()
        .any(|e| e.tree.starts_with("ARevs/") && e.bytes > 0));
}

fn assert_well_nested(spans: &[SpanRecord]) {
    assert!(!spans.is_empty());
    let root: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(root.len(), 1, "exactly one root span: {spans:?}");
    let root = root[0];
    assert_eq!(root.name, "query");
    // Unique ids.
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "span ids must be unique");
    // The compile + execute stages hang off the root. A plan-cache hit
    // replaces the four compile-stage spans with one "plan-cache" span.
    let cache_hit = spans.iter().any(|s| s.name == "plan-cache");
    let stages: &[&str] = if cache_hit {
        &["plan-cache", "execute"]
    } else {
        &["parse", "translate", "optimize", "jobgen", "execute"]
    };
    for &stage in stages {
        let s = spans
            .iter()
            .find(|s| s.name == stage)
            .unwrap_or_else(|| panic!("missing {stage} span in {spans:?}"));
        assert_eq!(s.parent, Some(root.id), "{stage} must parent under root");
    }
    let execute = spans.iter().find(|s| s.name == "execute").unwrap();
    // Operator spans parent under execute and carry their partition.
    let op_spans: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent == Some(execute.id))
        .collect();
    assert!(!op_spans.is_empty(), "execute must have operator child spans");
    assert!(op_spans.iter().all(|s| s.partition.is_some()));
    assert!(op_spans.iter().any(|s| s.name == "result-sink"));
    // Intervals nest within their parent (2us slack for µs truncation).
    for s in spans {
        if let Some(pid) = s.parent {
            let p = spans.iter().find(|x| x.id == pid).expect("parent exists");
            assert!(
                s.start_us + 2 >= p.start_us,
                "child {s:?} starts before parent {p:?}"
            );
            assert!(
                s.start_us + s.duration_us <= p.start_us + p.duration_us + 2,
                "child {s:?} ends after parent {p:?}"
            );
        }
    }
}

/// Span trees are complete and well-nested, independently for concurrent
/// queries (no cross-query parenting through the thread-local).
#[test]
fn span_trees_well_nested_per_query_under_concurrency() {
    let db = reviews_instance(150);
    let force_capture = QueryOptions {
        slow_query_threshold: Some(Duration::ZERO),
        ..QueryOptions::default()
    };
    std::thread::scope(|s| {
        for _ in 0..3 {
            let db = &db;
            let opts = &force_capture;
            s.spawn(move || db.query_with(SELECT_Q, opts).unwrap());
        }
    });
    let slow = db.telemetry().slow_queries();
    assert_eq!(slow.len(), 3, "every forced-threshold query is captured");
    for entry in &slow {
        assert_well_nested(&entry.spans);
    }
}

/// The slow-query log captures the query text, full plan, and full
/// profile; fast queries under the default threshold are not captured.
#[test]
fn slow_query_log_captures_plan_and_profile() {
    let db = reviews_instance(150);
    db.query(SCAN_Q).unwrap(); // default 250ms threshold: not captured
    assert!(db.telemetry().slow_queries().is_empty());

    let r = db
        .query_with(
            SELECT_Q,
            &QueryOptions {
                slow_query_threshold: Some(Duration::ZERO),
                ..QueryOptions::default()
            },
        )
        .unwrap();
    let slow = db.telemetry().slow_queries();
    assert_eq!(slow.len(), 1);
    let entry = &slow[0];
    assert_eq!(entry.query, SELECT_Q);
    assert_eq!(entry.class, QueryClass::IndexSelect);
    assert_eq!(entry.rows, r.rows.len() as u64);
    assert!(
        entry.plan.contains("secondary-index-search") || entry.plan.contains("select"),
        "captured plan must be the real explain output: {}",
        entry.plan
    );
    assert!(!entry.profile.operators.is_empty(), "full profile captured");
    assert!(entry.profile.index_search.primary_lookups > 0);
    // The capture flows into the JSON snapshot, plan and profile included.
    let json = asterix_adm::json::to_string(&db.metrics_snapshot());
    assert!(json.contains("secondary-index-search"));
    assert!(json.contains("post_verification_survivors"));
}

/// Failed and timed-out queries are counted under their outcome, and
/// compile errors under `compile_errors`.
#[test]
fn outcomes_and_compile_errors_are_counted() {
    let db = reviews_instance(400);
    db.query("for $t in").unwrap_err(); // parse error
    db.query("for $t in dataset Nope return $t").unwrap_err(); // exec error
    db.query_with(
        JOIN_Q,
        &QueryOptions {
            timeout: Some(Duration::ZERO),
            ..QueryOptions::default()
        },
    )
    .unwrap_err();
    let m = db.metrics();
    assert_eq!(m.compile_errors, 1);
    let scan = class_snapshot(&db, QueryClass::Scan);
    assert_eq!(scan.failed, 1, "unknown-dataset failure counted");
    let join = class_snapshot(&db, QueryClass::IndexJoin);
    assert_eq!(join.timeouts, 1, "deadline exceeded counted as timeout");
    assert_eq!(join.latency.count, 1, "failed queries still land in the histogram");
}

/// Transient flush faults absorbed by the retry loop leave `fault_retry`
/// events in the ring, tagged with the dataset and carrying the error.
#[test]
fn fault_retries_land_in_event_ring() {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(60, 7)).unwrap();
    let injector = Arc::new(FaultInjector::new(9).with_rule(FaultRule {
        op: IoOp::Flush,
        file: None,
        nth: 1,
        transient: true,
    }));
    db.partition_cache(0).disk().set_fault_injector(injector.clone());
    db.flush("ARevs").unwrap();
    assert_eq!(injector.faults_injected(), 1);
    let events = db.telemetry().event_log().snapshot();
    let retry = events
        .iter()
        .find(|e| e.kind.name() == "fault_retry")
        .expect("fault retry event recorded");
    assert!(retry.tree.starts_with("ARevs/"));
    assert!(retry.detail.as_deref().unwrap_or("").contains("flush attempt 1"));
}

/// Buffer-cache and postings-cache ratios and the per-index LSM gauges
/// show up in the snapshot after a flushed, indexed workload.
#[test]
fn snapshot_gauges_reflect_workload() {
    let db = reviews_instance(200);
    db.query(SELECT_Q).unwrap();
    db.query(SELECT_Q).unwrap(); // second run hits the postings cache
    let m = db.metrics();
    assert!(m.gauges.buffer_cache.hits + m.gauges.buffer_cache.misses > 0);
    assert!(m.storage.postings_cache_hits > 0, "warm probe must hit");
    assert!(m.gauges.lsm_flushes > 0);
    let ds = m
        .gauges
        .datasets
        .iter()
        .find(|d| d.dataset == "ARevs")
        .expect("dataset gauges present");
    let primary = ds.indexes.iter().find(|i| i.name == "<primary>").unwrap();
    let smix = ds.indexes.iter().find(|i| i.name == "smix").unwrap();
    assert!(primary.components > 0 && primary.size_bytes > 0);
    assert!(smix.components > 0 && smix.size_bytes > 0);
    // Per-operator histograms and partition busy counters filled in.
    assert!(m.operators.iter().any(|(name, h)| name == "result-sink" && h.count > 0));
    assert!(m.partitions.iter().any(|p| p.op_runs > 0));
    // JSON round-trips through the ADM parser.
    let parsed = asterix_adm::json::parse(&asterix_adm::json::to_string(&m.to_json()))
        .expect("snapshot JSON parses");
    assert!(parsed.field("uptime_us").as_i64().is_some());
    // Prometheus text has the class series.
    let prom = db.metrics_prometheus();
    assert!(prom.contains("asterix_queries_total{class=\"index-select\",outcome=\"completed\"} 2"));
    assert!(prom.contains("asterix_lsm_components{dataset=\"ARevs\",index=\"smix\"}"));
}

/// The compiled-plan cache: a repeated query text is a hit with identical
/// results, the counters surface in the metrics snapshot and Prometheus
/// export, and DDL invalidates so a new index is picked up by the next
/// compile.
#[test]
fn plan_cache_hits_misses_and_ddl_invalidation() {
    let db = reviews_instance(150);
    let first = db.query(SELECT_Q).unwrap();
    let m = db.metrics();
    assert_eq!(m.gauges.plan_cache_hits, 0);
    assert!(m.gauges.plan_cache_misses >= 1);
    let misses_after_first = m.gauges.plan_cache_misses;

    let second = db.query(SELECT_Q).unwrap();
    assert_eq!(first.ids(), second.ids(), "cache hit must not change results");
    assert!(second.plan.used_rule("introduce-index-for-selection"));
    let m = db.metrics();
    assert_eq!(m.gauges.plan_cache_hits, 1);
    assert_eq!(m.gauges.plan_cache_misses, misses_after_first);

    // DDL invalidation: dropping the keyword index must evict the cached
    // plan; the recompiled plan falls back to a scan and still agrees.
    db.drop_index("ARevs", "smix").unwrap();
    let fourth = db.query(SELECT_Q).unwrap();
    assert_eq!(first.ids(), fourth.ids());
    assert!(
        !fourth.plan.used_rule("introduce-index-for-selection"),
        "stale cached plan survived DDL"
    );
    let m = db.metrics();
    assert_eq!(m.gauges.plan_cache_misses, misses_after_first + 1);

    let prom = db.metrics_prometheus();
    assert!(prom.contains("asterix_plan_cache_hits_total 1"));
    let json = asterix_adm::json::to_string(&db.metrics_snapshot());
    assert!(json.contains("\"plan_cache\""));
}

/// The similarity-kernel counters flow through the per-query profile,
/// the instance-lifetime metrics snapshot, and the Prometheus export.
#[test]
fn kernel_counters_in_profile_and_metrics() {
    let db = reviews_instance(150);
    let opts = QueryOptions {
        profile: true,
        ..QueryOptions::default()
    };
    let r = db.query_with(SELECT_Q, &opts).unwrap();
    let profile = r.profile.expect("profile requested");
    let json = profile.to_json_string();
    for key in ["\"kernels\"", "\"bitparallel_ed_calls\"", "\"gallop_probes\"", "\"scancount_fallbacks\""] {
        assert!(json.contains(key), "profile JSON missing {key}");
    }
    let m = db.metrics();
    // δ=0.4 keeps T below the list count, so the ScanCount kernel runs.
    assert!(m.storage.scancount_fallbacks > 0, "scan-count fallback counted");
    let prom = db.metrics_prometheus();
    for metric in [
        "asterix_bitparallel_ed_calls_total",
        "asterix_gallop_probes_total",
        "asterix_scancount_fallbacks_total",
    ] {
        assert!(prom.contains(metric), "prometheus missing {metric}");
    }
}
