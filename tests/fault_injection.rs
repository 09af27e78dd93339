//! Fault-injection matrix: inject failures (panics, typed operator
//! errors, and seeded disk faults) into every operator shape and every
//! partition, and assert the engine's failure contract:
//!
//! 1. failures surface as *typed* errors ([`ExecError`] / [`CoreError`]),
//!    never as process panics,
//! 2. jobs never hang — every cell runs under a watchdog,
//! 3. a failed job does not poison the cluster: the next job succeeds,
//! 4. transient storage faults are absorbed by the bounded retry in
//!    [`Instance::flush`], permanent ones surface as [`CoreError::Io`].

use asterix_adm::IndexKind;
use asterix_core::{CoreError, Instance, InstanceConfig};
use asterix_datagen::amazon_reviews;
use asterix_hyracks::{
    run_job, AggSpec, CmpOp, ConnectorKind, ExecError, Expr, FaultMode, JobSpec, OpId,
    PhysicalOp, SortKey,
};
use asterix_storage::{FaultInjector, FaultRule, IoOp};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(60);
const PARTITIONS: usize = 2;

/// Run a closure on its own thread and panic if it does not finish within
/// the watchdog budget — converts "the job hung" into a test failure
/// instead of a stuck CI run.
fn with_watchdog<T: Send + 'static>(
    label: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(_) => panic!("watchdog fired: {label} did not finish in {WATCHDOG:?}"),
    }
}

fn instance_with_reviews(n: usize) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(PARTITIONS));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(n, 77)).unwrap();
    db
}

/// The operator shapes the fault is injected downstream of.
const SHAPES: &[&str] = &["scan", "select", "sort", "join", "group"];

/// Build `<shape> -> FaultInject -> ResultSink` against dataset ARevs.
fn job_with_fault(shape: &str, partition: usize, mode: FaultMode) -> JobSpec {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
    });
    let mid: OpId = match shape {
        "scan" => scan,
        "select" => {
            // id >= 0: keeps everything, exercises the operator body.
            let sel = job.add(PhysicalOp::Select {
                predicate: Expr::cmp(
                    CmpOp::Ge,
                    Expr::col(1).field("id"),
                    Expr::lit(0i64),
                ),
            });
            job.pipe(scan, sel);
            sel
        }
        "sort" => {
            let sort = job.add(PhysicalOp::Sort {
                keys: vec![SortKey::asc(0)],
            });
            job.pipe(scan, sort);
            sort
        }
        "join" => {
            // Self equi-join on pk; both sides co-partitioned.
            let scan2 = job.add(PhysicalOp::DatasetScan {
                dataset: "ARevs".into(),
                range: Default::default(),
            });
            let join = job.add(PhysicalOp::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
            });
            job.connect(scan, join, 0, ConnectorKind::OneToOne);
            job.connect(scan2, join, 1, ConnectorKind::OneToOne);
            join
        }
        "group" => {
            let group = job.add(PhysicalOp::HashGroupBy {
                keys: vec![0],
                aggs: vec![AggSpec::Count],
            });
            job.pipe(scan, group);
            group
        }
        other => panic!("unknown shape {other}"),
    };
    let fault = job.add(PhysicalOp::FaultInject {
        partition,
        after_tuples: 2,
        mode,
    });
    job.pipe(mid, fault);
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(fault, sink, 0, ConnectorKind::ToOne);
    job
}

/// A healthy job over the same cluster, proving the failure did not
/// poison shared state.
fn healthy_job() -> JobSpec {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(scan, sink, 0, ConnectorKind::ToOne);
    job
}

/// The full matrix: operator shape × failing partition × fault mode.
/// Each cell must produce a typed error naming the failing partition and
/// leave the cluster usable.
#[test]
fn operator_fault_matrix_is_typed_and_recoverable() {
    for shape in SHAPES {
        for partition in 0..PARTITIONS {
            for mode in [FaultMode::Panic, FaultMode::Error] {
                let label = format!("{shape}/p{partition}/{mode:?}");
                let cell = label.clone();
                with_watchdog(label, move || {
                    let db = instance_with_reviews(60);
                    let job = job_with_fault(shape, partition, mode);
                    let pool = db.scheduler().expect("every instance has a scheduler").pool();
                    let err = run_job(&job, db.cluster(), pool)
                        .expect_err(&format!("{cell}: injected fault must fail the job"));
                    match mode {
                        FaultMode::Panic => assert!(
                            matches!(&err, ExecError::Panic { partition: p, .. } if *p == partition),
                            "{cell}: expected typed panic, got {err:?}"
                        ),
                        FaultMode::Error => assert!(
                            matches!(&err, ExecError::Operator { partition: p, .. } if *p == partition),
                            "{cell}: expected typed operator error, got {err:?}"
                        ),
                    }
                    // Supervision must not poison the cluster.
                    let (rows, _) = run_job(&healthy_job(), db.cluster(), pool)
                        .expect("healthy job after failure");
                    assert_eq!(rows.len(), 60, "{cell}: cluster degraded after failure");
                });
            }
        }
    }
}

/// A permanent disk-read fault on one partition surfaces as a typed
/// `CoreError::Io` from a full AQL query — not a panic, not a hang, and
/// not a silently truncated result.
#[test]
fn permanent_read_fault_fails_query_with_typed_io_error() {
    for failing in 0..PARTITIONS {
        let label = format!("read-fault/p{failing}");
        with_watchdog(label, move || {
            let db = instance_with_reviews(200);
            db.flush("ARevs").unwrap();
            db.partition_cache(failing).disk().set_fault_injector(Arc::new(
                FaultInjector::new(42).with_rule(FaultRule {
                    op: IoOp::Read,
                    file: None,
                    nth: 1,
                    transient: false,
                }),
            ));
            let err = db
                .query("for $t in dataset ARevs return $t.id")
                .expect_err("query over faulted disk must fail");
            assert!(
                matches!(err, CoreError::Io(_)),
                "expected CoreError::Io, got {err:?}"
            );
            // Clearing the injector restores the partition.
            db.partition_cache(failing).disk().clear_fault_injector();
            let ok = db.query("for $t in dataset ARevs return $t.id").unwrap();
            assert_eq!(ok.rows.len(), 200);
        });
    }
}

/// A transient flush fault is absorbed by the bounded retry-with-backoff
/// in `Instance::flush`: the caller sees success and no data is lost.
#[test]
fn transient_flush_fault_is_absorbed_by_retry() {
    with_watchdog("transient-flush".into(), || {
        let db = instance_with_reviews(120);
        let injector = Arc::new(FaultInjector::new(9).with_rule(FaultRule {
            op: IoOp::Flush,
            file: None,
            nth: 1,
            transient: true,
        }));
        db.partition_cache(0).disk().set_fault_injector(injector.clone());
        db.flush("ARevs").unwrap();
        assert_eq!(injector.faults_injected(), 1, "the fault must actually fire");
        assert_eq!(db.count_records("ARevs").unwrap(), 120);
    });
}

/// A *permanent* flush fault exhausts the retry budget and surfaces as
/// `CoreError::Io`; the unflushed data stays queryable in memory.
#[test]
fn permanent_flush_fault_exhausts_retries() {
    with_watchdog("permanent-flush".into(), || {
        let db = instance_with_reviews(120);
        db.partition_cache(0).disk().set_fault_injector(Arc::new(
            FaultInjector::new(5).with_rule(FaultRule {
                op: IoOp::Flush,
                file: None,
                nth: 1,
                transient: false,
            }),
        ));
        let err = db.flush("ARevs").expect_err("permanent flush fault must fail");
        assert!(matches!(err, CoreError::Io(_)), "got {err:?}");
        // Failure-atomic: nothing was lost; memory components still serve.
        db.partition_cache(0).disk().clear_fault_injector();
        assert_eq!(db.count_records("ARevs").unwrap(), 120);
    });
}

/// Chaos mode: a seeded random fault probability produces a
/// deterministic outcome. Each partition's disk gets its own injector
/// (seed derived from the partition) and is then read sequentially via
/// `count_records`, so the exact fault counts — and the exact error, if
/// any — must be identical run to run.
#[test]
fn seeded_chaos_is_deterministic_and_typed() {
    let outcome = |seed: u64| -> (Vec<u64>, Result<u64, String>) {
        let db = instance_with_reviews(150);
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.flush("ARevs").unwrap();
        let injectors: Vec<Arc<FaultInjector>> = (0..PARTITIONS)
            .map(|p| Arc::new(FaultInjector::random(seed + p as u64, 0.2)))
            .collect();
        for (p, inj) in injectors.iter().enumerate() {
            db.partition_cache(p).disk().set_fault_injector(inj.clone());
        }
        let res = db.count_records("ARevs").map_err(|e| e.to_string());
        (
            injectors.iter().map(|i| i.faults_injected()).collect(),
            res,
        )
    };
    let (faults_a, res_a) = with_watchdog("chaos-run-a".into(), move || outcome(1234));
    let (faults_b, res_b) = with_watchdog("chaos-run-b".into(), move || outcome(1234));
    assert_eq!(faults_a, faults_b, "same seed must inject the same faults");
    assert_eq!(res_a, res_b, "same seed must produce the same outcome");
    // Whatever the seed did, the API contract held: typed result, no panic.
}
