//! Query deadlines and external cancellation at the engine level.
//!
//! A genuinely expensive query (a scan-based similarity self-join) is run
//! with a small [`QueryOptions::timeout`]; the contract is:
//!
//! 1. the query fails with exactly [`CoreError::Timeout`] (not a panic,
//!    not a hang, not a partial Ok),
//! 2. the failure arrives within a bounded wall-clock window — the
//!    cooperative cancellation poll keeps unwind latency small,
//! 3. the instance stays fully usable afterwards: counters are
//!    consistent and the next query succeeds.

use asterix_algebricks::OptimizerConfig;
use asterix_core::{CoreError, Instance, InstanceConfig, QueryOptions};
use asterix_datagen::amazon_reviews;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS: usize = 500;

/// Records behind the deliberately slow queries: enough that the
/// quadratic self-join takes well over a second even in an optimised
/// build (500 records finish inside 100 ms there).
const SLOW_RECORDS: usize = 2_000;

fn instance_of(records: usize) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(records, 77)).unwrap();
    db
}

/// A similarity self-join with no index available: the optimizer is
/// forced onto the scan-based nested-loop path, quadratic in the dataset
/// — far slower than the timeouts used below.
fn slow_query() -> &'static str {
    r#"
    for $a in dataset ARevs
    for $b in dataset ARevs
    where edit-distance($a.reviewerName, $b.reviewerName) <= 2
      and $a.id < $b.id
    return { "a": $a.id, "b": $b.id }
    "#
}

fn scan_only(timeout: Option<Duration>) -> QueryOptions {
    QueryOptions {
        optimizer: Some(OptimizerConfig {
            enable_index_select: false,
            enable_index_join: false,
            ..OptimizerConfig::default()
        }),
        timeout,
        ..QueryOptions::default()
    }
}

#[test]
fn deadline_produces_typed_timeout_within_bounded_wallclock() {
    let db = instance_of(SLOW_RECORDS);
    let budget = Duration::from_millis(100);
    let started = Instant::now();
    let err = db
        .query_with(slow_query(), &scan_only(Some(budget)))
        .expect_err("the self-join cannot finish inside 100 ms");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, CoreError::Timeout(d) if d == budget),
        "expected CoreError::Timeout({budget:?}), got {err:?}"
    );
    // Bounded unwind: generous CI margin, but far below the minutes the
    // full join would take — proving cancellation actually interrupted it.
    assert!(
        elapsed < Duration::from_secs(30),
        "timeout took {elapsed:?} to surface"
    );

    // The instance is not poisoned: counters agree and queries still run.
    assert_eq!(db.count_records("ARevs").unwrap(), SLOW_RECORDS as u64);
    let ok = db
        .query("for $t in dataset ARevs where $t.id < 5 return $t.id")
        .unwrap();
    assert_eq!(ok.rows.len(), 5);
}

#[test]
fn generous_deadline_does_not_fire() {
    let db = instance_of(RECORDS);
    let res = db
        .query_with(
            "for $t in dataset ARevs where $t.id < 10 return $t.id",
            &scan_only(Some(Duration::from_secs(120))),
        )
        .unwrap();
    assert_eq!(res.rows.len(), 10);
}

#[test]
fn external_cancel_produces_typed_cancelled_error() {
    let db = Arc::new(instance_of(SLOW_RECORDS));
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || db.query_with(slow_query(), &scan_only(None)))
    };
    // Wait for the job to install its cancel token, then trip it. The
    // retry loop covers the startup race (translate/optimize before the
    // job begins executing).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if db.cluster().cancel_active() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query never started within 30 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = worker
        .join()
        .expect("query thread must not panic")
        .expect_err("cancelled query must fail");
    assert!(
        matches!(err, CoreError::Cancelled),
        "expected CoreError::Cancelled, got {err:?}"
    );
    // Cluster remains usable.
    let ok = db
        .query("for $t in dataset ARevs where $t.id < 3 return $t.id")
        .unwrap();
    assert_eq!(ok.rows.len(), 3);
}
