//! Fault tolerance tour: query deadlines, external cancellation, and
//! seeded storage fault injection — the failure contract is that every
//! failure surfaces as a typed [`CoreError`], never a panic or a hang,
//! and that a failed query does not poison the instance.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use asterix_algebricks::OptimizerConfig;
use asterix_core::{CoreError, Instance, InstanceConfig, QueryOptions};
use asterix_datagen::amazon_reviews;
use asterix_storage::{FaultInjector, FaultRule, IoOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An index-less similarity self-join: quadratic scan work, the natural
/// victim for deadlines and cancellation.
const SLOW_JOIN: &str = r#"
    for $a in dataset ARevs
    for $b in dataset ARevs
    where edit-distance($a.reviewerName, $b.reviewerName) <= 2
      and $a.id < $b.id
    return { "a": $a.id, "b": $b.id }
"#;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id")?;
    // 2 000 records: enough that the self-join outlasts the 150 ms
    // deadline of step 1 even in a release build.
    db.load("ARevs", amazon_reviews(2_000, 77))?;
    println!("loaded {} records over 2 partitions", db.count_records("ARevs")?);

    // 1. Deadline: the self-join cannot finish in 150 ms; the engine
    //    cancels every partition cooperatively and reports Timeout.
    let started = Instant::now();
    match db.query_with(SLOW_JOIN, &scan_only(Some(Duration::from_millis(150)))) {
        Err(CoreError::Timeout(budget)) => println!(
            "1. deadline   -> CoreError::Timeout({budget:?}) after {:?}",
            started.elapsed()
        ),
        other => panic!("expected Timeout, got {other:?}"),
    }

    // 2. External cancellation: a second thread kills the active job.
    let db = Arc::new(db);
    let worker = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.query_with(SLOW_JOIN, &scan_only(None)))
    };
    // Spin until the job has installed its cancel token; a worker that
    // finishes first would leave nothing to cancel.
    while !db.cluster().cancel_active() {
        assert!(
            !worker.is_finished(),
            "the self-join finished before it could be cancelled"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    match worker.join().expect("worker must not panic") {
        Err(CoreError::Cancelled) => println!("2. cancel     -> CoreError::Cancelled"),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // 3. Transient flush fault: fires once, the bounded retry in
    //    Instance::flush absorbs it, and the flush still succeeds.
    let injector = Arc::new(FaultInjector::new(9).with_rule(FaultRule {
        op: IoOp::Flush,
        file: None,
        nth: 1,
        transient: true,
    }));
    db.partition_cache(0).disk().set_fault_injector(injector.clone());
    db.flush("ARevs")?;
    println!(
        "3. transient  -> flush succeeded after absorbing {} injected fault(s)",
        injector.faults_injected()
    );

    // 4. Permanent read fault: the on-disk component is unreadable, so a
    //    query over it fails with a typed I/O error...
    db.partition_cache(0).disk().set_fault_injector(Arc::new(
        FaultInjector::new(5).with_rule(FaultRule {
            op: IoOp::Read,
            file: None,
            nth: 1,
            transient: false,
        }),
    ));
    match db.query("for $t in dataset ARevs return $t.id") {
        Err(CoreError::Io(msg)) => println!("4. permanent  -> CoreError::Io({msg:?})"),
        other => panic!("expected Io, got {other:?}"),
    }

    // ...and clearing the injector proves the failure did not poison
    // anything: the same query now returns every record.
    db.partition_cache(0).disk().clear_fault_injector();
    let rows = db.query("for $t in dataset ARevs return $t.id")?.rows.len();
    println!("5. recovered  -> same query returns {rows} rows");
    Ok(())
}
