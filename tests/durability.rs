//! Durable-storage integration tests: the instance-level crash-recovery
//! contract.
//!
//! 1. an acknowledged write (an `Ok` from `insert`/`delete`/`load`) is
//!    never lost across a restart, flushed or not,
//! 2. restart after a flush re-links the sealed components from the
//!    manifest and replays nothing,
//! 3. torn WAL tails (a crash mid-append) are truncated, never replayed
//!    as garbage, and a corpus of malformed WAL segments can at worst
//!    lose *unacknowledged* data — opening never panics,
//! 4. obsolete component files are reclaimed through the manifest: after
//!    flushes and merges the data directory holds exactly the files the
//!    manifest references (plus WAL + MANIFEST),
//! 5. injected WAL/manifest faults surface as typed errors before the
//!    write is acknowledged, and the instance stays consistent across a
//!    subsequent restart.

use asterix_adm::{record, IndexKind, Value};
use asterix_core::{CoreError, DurabilityConfig, Instance, InstanceConfig};
use asterix_datagen::amazon_reviews;
use asterix_storage::{FaultInjector, FaultRule, IoOp};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: usize = 2;

/// Unique scratch directory, removed on drop (even on test failure).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asterix_durability_{tag}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_config(dir: &Path) -> InstanceConfig {
    let mut cfg = InstanceConfig::with_partitions(PARTITIONS);
    cfg.durability = DurabilityConfig::at(dir);
    // Keep acknowledged-write latency low in tests.
    cfg.durability.wal_commit_interval = Duration::from_micros(200);
    cfg
}

/// Tiny LSM budgets force flushes and merges through the durable path.
fn tiny_durable_config(dir: &Path) -> InstanceConfig {
    let mut cfg = InstanceConfig::tiny(PARTITIONS);
    cfg.durability = DurabilityConfig::at(dir);
    cfg.durability.wal_commit_interval = Duration::from_micros(200);
    cfg
}

const SIM_QUERY: &str = r#"
    for $t in dataset ARevs
    where similarity-jaccard(word-tokens($t.summary),
                             word-tokens('great product')) >= 0.3
    return $t.id
"#;

fn sorted_rows(db: &Instance, aql: &str) -> Vec<Value> {
    let mut rows = db.query(aql).unwrap().rows;
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// Unflushed inserts reach a restarted instance purely through WAL
/// replay, and the durability gauges report the traffic.
#[test]
fn unflushed_inserts_survive_restart_via_wal_replay() {
    let tmp = TempDir::new("wal_replay");
    {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(80, 7)).unwrap();
        db.insert("ARevs", record! {"id" => 90_000i64, "summary" => "great product"})
            .unwrap();
        let gauges = &db.metrics().gauges.durability;
        assert!(gauges.enabled);
        assert!(gauges.wal_appends >= 81, "every insert must hit the WAL");
        assert!(gauges.wal_bytes > 0);
        // No flush: everything lives in memory components + WAL only.
    }
    let db = Instance::open(durable_config(tmp.path())).unwrap();
    let stats = db.recovery_stats().unwrap().clone();
    assert_eq!(stats.wal_records_replayed, 81, "all 81 acked writes replay");
    assert_eq!(db.count_records("ARevs").unwrap(), 81);
    let found = db
        .query("for $t in dataset ARevs where $t.id = 90000 return $t.summary")
        .unwrap();
    assert_eq!(found.rows.len(), 1);
    let gauges = &db.metrics().gauges.durability;
    assert_eq!(gauges.replayed_records, 81);
}

/// A batch insert costs one WAL group commit per partition it touches,
/// not one per record, and every record of an acknowledged batch replays
/// after a restart. A record without the primary key fails the batch
/// before anything is written.
#[test]
fn batch_insert_is_one_group_commit_per_partition() {
    let tmp = TempDir::new("batch_commit");
    {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        let before = db.metrics().gauges.durability.wal_group_commits;
        db.insert_batch("ARevs", amazon_reviews(64, 3)).unwrap();
        let gauges = &db.metrics().gauges.durability;
        assert_eq!(gauges.wal_appends, 64);
        let commits = gauges.wal_group_commits - before;
        assert!(
            (1..=PARTITIONS as u64).contains(&commits),
            "64 records over {PARTITIONS} partitions took {commits} group commits"
        );

        let keyless = vec![
            record! {"id" => 70_000i64, "summary" => "has a key"},
            record! {"summary" => "has none"},
        ];
        let err = db.insert_batch("ARevs", keyless).unwrap_err();
        assert!(matches!(err, CoreError::Schema(_)), "{err}");
        assert_eq!(db.count_records("ARevs").unwrap(), 64);
        assert_eq!(db.metrics().gauges.durability.wal_appends, 64);
    }
    let db = Instance::open(durable_config(tmp.path())).unwrap();
    assert_eq!(db.recovery_stats().unwrap().wal_records_replayed, 64);
    assert_eq!(db.count_records("ARevs").unwrap(), 64);
}

/// After a flush, restart restores the sealed components from the
/// manifest, replays nothing, and index query results are identical to
/// the pre-restart instance (scan ≡ index across the restart).
#[test]
fn flushed_components_restore_from_manifest_without_replay() {
    let tmp = TempDir::new("manifest_restore");
    let before = {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(120, 11)).unwrap();
        db.create_index("ARevs", "sum_kw", "summary", IndexKind::Keyword)
            .unwrap();
        db.flush("ARevs").unwrap();
        sorted_rows(&db, SIM_QUERY)
    };
    let db = Instance::open(durable_config(tmp.path())).unwrap();
    let stats = db.recovery_stats().unwrap().clone();
    assert!(stats.components_opened > 0, "sealed components must re-link");
    assert_eq!(
        stats.wal_records_replayed, 0,
        "flushed WAL records must not replay (flushed_lsn advanced)"
    );
    assert_eq!(db.count_records("ARevs").unwrap(), 120);
    assert_eq!(sorted_rows(&db, SIM_QUERY), before);
    // The full scan agrees with the index-driven query's universe.
    assert_eq!(
        db.query("for $t in dataset ARevs return $t.id").unwrap().rows.len(),
        120
    );
}

/// Deletes (tombstones) are WAL-logged and survive a restart, whether
/// the deleted record was flushed or still in memory.
#[test]
fn deletes_survive_restart() {
    let tmp = TempDir::new("deletes");
    {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(50, 3)).unwrap();
        db.flush("ARevs").unwrap();
        // Flushed record deleted post-flush + unflushed record inserted
        // and deleted again — both paths live purely in the WAL.
        db.delete("ARevs", &Value::Int64(1)).unwrap();
        db.insert("ARevs", record! {"id" => 777i64, "summary" => "doomed"})
            .unwrap();
        db.delete("ARevs", &Value::Int64(777)).unwrap();
    }
    let db = Instance::open(durable_config(tmp.path())).unwrap();
    assert_eq!(db.count_records("ARevs").unwrap(), 49);
    assert_eq!(
        db.query("for $t in dataset ARevs where $t.id = 1 return $t").unwrap().rows.len(),
        0
    );
    assert_eq!(
        db.query("for $t in dataset ARevs where $t.id = 777 return $t").unwrap().rows.len(),
        0
    );
}

fn newest_wal_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = Vec::new();
    for p in 0..PARTITIONS {
        let wal_dir = dir.join(format!("p{p}")).join("wal");
        if let Ok(entries) = std::fs::read_dir(&wal_dir) {
            for e in entries.flatten() {
                if e.path().extension().is_some_and(|x| x == "log") {
                    segments.push(e.path());
                }
            }
        }
    }
    segments.sort();
    segments.pop().expect("at least one WAL segment")
}

/// A torn tail — a crash partway through appending a record — is
/// truncated at the first bad checksum; every acknowledged write
/// (all of which precede the torn frame) survives.
#[test]
fn torn_wal_tail_is_truncated_without_losing_acked_writes() {
    let tmp = TempDir::new("torn_tail");
    {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(40, 5)).unwrap();
    }
    // Simulate the torn write: garbage bytes after the last good record.
    let segment = newest_wal_segment(tmp.path());
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02]);
    std::fs::write(&segment, &bytes).unwrap();

    let db = Instance::open(durable_config(tmp.path())).unwrap();
    let stats = db.recovery_stats().unwrap().clone();
    assert!(stats.wal_bytes_truncated > 0, "the torn tail must be dropped");
    assert_eq!(db.count_records("ARevs").unwrap(), 40, "acked writes survive");
}

/// Corpus of malformed WAL segments: truncations at many offsets,
/// bit-flips, and wholesale garbage. Opening must never panic; when it
/// succeeds the instance must be internally consistent (scan works,
/// point lookups work). Data loss is permitted only because the
/// mutations simulate *physical* corruption of unsynced suffixes.
#[test]
fn malformed_wal_corpus_never_panics() {
    let build = |tag: &str| -> TempDir {
        let tmp = TempDir::new(tag);
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(30, 9)).unwrap();
        drop(db);
        tmp
    };
    // Truncate the newest segment at a spread of lengths.
    for cut in [1usize, 3, 7, 9, 13, 50, 101] {
        let tmp = build("corpus_trunc");
        let segment = newest_wal_segment(tmp.path());
        let bytes = std::fs::read(&segment).unwrap();
        let keep = bytes.len().saturating_sub(cut);
        std::fs::write(&segment, &bytes[..keep]).unwrap();
        let db = Instance::open(durable_config(tmp.path()))
            .unwrap_or_else(|e| panic!("truncate-{cut}: open must not fail hard: {e}"));
        let n = db.count_records("ARevs").unwrap();
        assert!(n <= 30, "truncate-{cut}: more records than were written");
        db.query("for $t in dataset ARevs return $t.id").unwrap();
    }
    // Flip one byte at a spread of offsets.
    for at in [0usize, 5, 11, 40, 97] {
        let tmp = build("corpus_flip");
        let segment = newest_wal_segment(tmp.path());
        let mut bytes = std::fs::read(&segment).unwrap();
        if at < bytes.len() {
            bytes[at] ^= 0xff;
        }
        std::fs::write(&segment, &bytes).unwrap();
        let db = Instance::open(durable_config(tmp.path()))
            .unwrap_or_else(|e| panic!("flip-{at}: open must not fail hard: {e}"));
        db.query("for $t in dataset ARevs return $t.id").unwrap();
    }
    // Replace the whole newest segment with garbage.
    {
        let tmp = build("corpus_garbage");
        let segment = newest_wal_segment(tmp.path());
        std::fs::write(&segment, vec![0xa5u8; 256]).unwrap();
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.query("for $t in dataset ARevs return $t.id").unwrap();
    }
}

fn cmp_files_on_disk(dir: &Path) -> u64 {
    let mut n = 0;
    for p in 0..PARTITIONS {
        let pdir = dir.join(format!("p{p}"));
        for e in std::fs::read_dir(&pdir).unwrap().flatten() {
            if e.path().extension().is_some_and(|x| x == "cmp") {
                n += 1;
            }
        }
    }
    n
}

/// Satellite pin: obsolete component files are reclaimed through the
/// manifest. After heavy flush/merge traffic the data directory holds
/// exactly as many component files as the live LSM trees have
/// components — pre-merge inputs and dropped-index files are gone.
#[test]
fn merge_and_drop_reclaim_component_files_on_disk() {
    let tmp = TempDir::new("reclaim");
    let db = Instance::open(tiny_durable_config(tmp.path())).unwrap();
    db.create_dataset("ARevs", "id").unwrap();
    db.create_index("ARevs", "sum_kw", "summary", IndexKind::Keyword)
        .unwrap();
    // Load in waves with explicit flushes: tiny budgets force merges.
    for wave in 0..6 {
        db.load("ARevs", amazon_reviews(40, 100 + wave)).unwrap();
        db.flush("ARevs").unwrap();
    }
    let (_, merges) = {
        let g = db.metrics().gauges;
        (g.lsm_flushes, g.lsm_merges)
    };
    assert!(merges > 0, "tiny budgets must have forced merges");
    let live_components: u64 = db
        .metrics()
        .gauges
        .datasets
        .iter()
        .flat_map(|d| d.indexes.iter())
        .map(|i| i.components)
        .sum();
    assert_eq!(
        cmp_files_on_disk(tmp.path()),
        live_components,
        "on-disk files must match live components exactly (no leaked pre-merge inputs)"
    );
    // Dropping the index reclaims its files too.
    db.drop_index("ARevs", "sum_kw").unwrap();
    let live_after: u64 = db
        .metrics()
        .gauges
        .datasets
        .iter()
        .flat_map(|d| d.indexes.iter())
        .map(|i| i.components)
        .sum();
    assert!(live_after < live_components);
    assert_eq!(cmp_files_on_disk(tmp.path()), live_after);
}

/// WAL/recovery fault matrix: injected failures on the WAL append path,
/// the group-commit flush, and the manifest commit surface as typed
/// errors *before* the write is acknowledged; after clearing the fault
/// the instance works, and a restart proves no acked write was lost.
#[test]
fn wal_and_manifest_fault_matrix() {
    for (op, transient) in [
        (IoOp::WalAppend, true),
        (IoOp::WalAppend, false),
        (IoOp::WalFlush, false),
        (IoOp::ManifestCommit, false),
    ] {
        let tmp = TempDir::new("fault_matrix");
        let mut acked: Vec<i64> = Vec::new();
        {
            let db = Instance::open(durable_config(tmp.path())).unwrap();
            db.create_dataset("ARevs", "id").unwrap();
            for rec in amazon_reviews(20, 21) {
                let id = match rec.field("id") {
                    Value::Int64(i) => *i,
                    other => panic!("unexpected id {other:?}"),
                };
                db.insert("ARevs", rec).unwrap();
                acked.push(id);
            }
            for p in 0..PARTITIONS {
                db.partition_cache(p).disk().set_fault_injector(Arc::new(
                    FaultInjector::new(17).with_rule(FaultRule {
                        op,
                        file: None,
                        nth: 1,
                        transient,
                    }),
                ));
            }
            let probe = record! {"id" => 500_000i64, "summary" => "probe"};
            let result = match op {
                IoOp::ManifestCommit => db.flush("ARevs"),
                _ => db.insert("ARevs", probe.clone()),
            };
            let err = result.expect_err(&format!("{op:?} fault must fail the operation"));
            assert!(
                matches!(err, CoreError::Io(_)),
                "{op:?}: expected CoreError::Io, got {err:?}"
            );
            // Clearing the injector restores the partition: the same
            // operation succeeds and is acknowledged.
            for p in 0..PARTITIONS {
                db.partition_cache(p).disk().clear_fault_injector();
            }
            match op {
                IoOp::ManifestCommit => db.flush("ARevs").unwrap(),
                _ => {
                    db.insert("ARevs", probe).unwrap();
                    acked.push(500_000);
                }
            }
        }
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        assert_eq!(
            db.count_records("ARevs").unwrap(),
            acked.len() as u64,
            "{op:?}: acked-write count must survive restart"
        );
        for id in &acked {
            let hit = db
                .query(&format!("for $t in dataset ARevs where $t.id = {id} return $t.id"))
                .unwrap();
            assert_eq!(hit.rows.len(), 1, "{op:?}: acked id {id} lost");
        }
    }
}

/// DDL is durable on its own (without any flush): datasets and index
/// definitions committed to the manifest come back after a restart, and
/// a dropped index stays dropped.
#[test]
fn ddl_survives_restart() {
    let tmp = TempDir::new("ddl");
    {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.create_index("ARevs", "sum_kw", "summary", IndexKind::Keyword)
            .unwrap();
        db.create_index("ARevs", "sum_ng", "summary", IndexKind::NGram(3))
            .unwrap();
        db.drop_index("ARevs", "sum_ng").unwrap();
    }
    let db = Instance::open(durable_config(tmp.path())).unwrap();
    // The dataset exists (insert works) and the surviving index serves
    // similarity queries after loading data.
    db.load("ARevs", amazon_reviews(60, 13)).unwrap();
    db.insert("ARevs", record! {"id" => 90_001i64, "summary" => "great product"})
        .unwrap();
    let names: Vec<String> = db
        .index_sizes("ARevs")
        .unwrap()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(names.iter().any(|n| n == "sum_kw"), "index def lost: {names:?}");
    assert!(!names.iter().any(|n| n == "sum_ng"), "dropped index came back");
    assert!(!sorted_rows(&db, SIM_QUERY).is_empty());
}

/// In-memory instances (no data dir) are unaffected: no files, no WAL,
/// durability gauges disabled.
#[test]
fn in_memory_instance_reports_durability_disabled() {
    let db = Instance::new(InstanceConfig::with_partitions(PARTITIONS));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(10, 1)).unwrap();
    assert!(db.recovery_stats().is_none());
    assert!(!db.is_durable());
    let g = &db.metrics().gauges.durability;
    assert!(!g.enabled);
    assert_eq!(g.wal_appends, 0);
}

/// Regression: a manifest commit can truncate away every WAL segment, so
/// a restarted WAL would renumber from 1 — *below* the manifest's
/// `flushed_lsn` — and the next recovery would skip the fresh appends as
/// already flushed. The opener must keep LSNs monotonic across restarts:
/// flush → restart → append → crash → restart must keep the appends.
#[test]
fn appends_after_flush_survive_a_second_restart() {
    let tmp = TempDir::new("lsn_floor");
    {
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(60, 3)).unwrap();
        db.flush("ARevs").unwrap();
    }
    {
        // Second incarnation: WAL segments were truncated by the flush's
        // manifest commit; these inserts must get LSNs above flushed_lsn.
        let db = Instance::open(durable_config(tmp.path())).unwrap();
        for i in 0..7i64 {
            db.insert("ARevs", record! {"id" => 80_000 + i, "summary" => "great product"})
                .unwrap();
        }
        // No flush: drop simulates a crash with the records WAL-only.
    }
    let db = Instance::open(durable_config(tmp.path())).unwrap();
    let stats = db.recovery_stats().unwrap();
    assert_eq!(
        stats.wal_records_replayed, 7,
        "appends from the second incarnation must replay"
    );
    assert_eq!(db.count_records("ARevs").unwrap(), 67);
}

/// Regression for the manifest-commit race: flushes and DDL statements
/// commit every partition's manifest concurrently, and without
/// per-partition commit serialization a staler committer could
/// overwrite a newer manifest whose advanced `flushed_lsn` had already
/// reclaimed WAL segments — after a restart the operations in between
/// would be in neither the manifest's components nor the WAL. Hammer
/// inserts, flushes, and index create/drop concurrently under tiny LSM
/// budgets, then reopen and demand every acknowledged write back.
#[test]
fn concurrent_flush_and_ddl_commits_lose_no_acked_writes() {
    let tmp = TempDir::new("commit_race");
    const WRITERS: i64 = 4;
    const PER_WRITER: i64 = 100;
    {
        let db = Instance::open(tiny_durable_config(tmp.path())).unwrap();
        db.create_dataset("ARevs", "id").unwrap();
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let db = &db;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        db.insert(
                            "ARevs",
                            record! {"id" => w * 10_000 + i, "summary" => "great product"},
                        )
                        .unwrap();
                    }
                });
            }
            // Flush committer: advances flushed_lsn and truncates WAL.
            {
                let db = &db;
                s.spawn(move || {
                    for _ in 0..15 {
                        db.flush("ARevs").unwrap();
                    }
                });
            }
            // DDL committer: every create/drop commits all manifests too.
            {
                let db = &db;
                s.spawn(move || {
                    for round in 0..5 {
                        let name = format!("kw{round}");
                        db.create_index("ARevs", &name, "summary", IndexKind::Keyword)
                            .unwrap();
                        db.drop_index("ARevs", &name).unwrap();
                    }
                });
            }
        });
        // Drop without a final flush: recovery must reassemble the state
        // from whatever mix of components and WAL the race left behind.
    }
    let db = Instance::open(tiny_durable_config(tmp.path())).unwrap();
    assert_eq!(
        db.count_records("ARevs").unwrap(),
        (WRITERS * PER_WRITER) as u64,
        "every acknowledged insert must survive the concurrent commits"
    );
}
