//! Per-partition durability: the WAL-operation codec, the handle tying a
//! partition's write-ahead log to its manifest, and the recovery
//! statistics [`crate::Instance::open`] reports after a restart.
//!
//! The protocol, end to end:
//!
//! * Every acknowledged mutation is appended to the partition's WAL
//!   (group-committed, fsynced) **before** it is applied to the LSM
//!   memory components — an `Ok` from `insert`/`delete`/`load` means the
//!   operation survives a crash.
//! * A manifest commit (atomic rename, see
//!   [`asterix_storage::Manifest`]) snapshots every index's disk
//!   components. Its `flushed_lsn` only advances when every memory
//!   component of the partition is empty, so WAL records at or below it
//!   are fully contained in manifest-listed components and their
//!   segments can be reclaimed.
//! * Recovery re-links manifest components, sweeps orphan files (from
//!   flushes/merges that crashed before their manifest commit), and
//!   replays surviving WAL records above `flushed_lsn` in LSN order.
//!   Replay is idempotent: inserts overwrite, deletes of absent keys are
//!   no-ops.
//! * Manifest commits are serialized per partition
//!   ([`PartitionDurability::commit_lock`], held from the LSM state
//!   sample through the rename and WAL truncation), and a committed
//!   `flushed_lsn` never regresses — both are required so a staler
//!   manifest can never overwrite a newer one after the newer one's
//!   WAL segments were reclaimed.
//!
//! ## Failure anomaly: at-least-once
//!
//! The guarantee is one-directional. `Ok` means the operation survives
//! any crash; `Err` means it is *not guaranteed durable* — it does
//! **not** mean guaranteed absent. Two windows make a failed mutation
//! resurrectable or transiently visible:
//!
//! * If the memory-component apply fails *after* the WAL submit (the
//!   record's group commit may still fsync), the record is durable in
//!   the WAL and the next restart replays it, even though the client
//!   saw an error.
//! * If the group-commit wait fails *after* the apply, the record stays
//!   visible in memory until a restart discards it with its WAL batch —
//!   unless a flush persists it into a component first.
//!
//! Callers that need exactly-once semantics must retry idempotently
//! (replay itself is idempotent: inserts overwrite by primary key).

use asterix_adm::{binary, Value};
use asterix_storage::{Disk, IoError, Manifest, Wal, WalConfig, WalRecord};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// One logical WAL operation, as appended by the instance's DML paths.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Insert (or overwrite) `record` into `dataset`.
    Insert {
        /// Target dataset name.
        dataset: String,
        /// The full record.
        record: Value,
    },
    /// Delete the record of `dataset` stored under `pk`.
    Delete {
        /// Target dataset name.
        dataset: String,
        /// The primary key to delete.
        pk: Value,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

impl WalOp {
    /// Serialize: `tag ‖ u16 dataset-name length ‖ name ‖ ADM-binary value`.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, dataset, value) = match self {
            WalOp::Insert { dataset, record } => (TAG_INSERT, dataset, record),
            WalOp::Delete { dataset, pk } => (TAG_DELETE, dataset, pk),
        };
        let name = dataset.as_bytes();
        let mut out = Vec::with_capacity(3 + name.len() + 16);
        out.push(tag);
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&binary::to_bytes(value));
        out
    }

    /// Inverse of [`WalOp::encode`]. A malformed payload (which a WAL
    /// checksum should have caught) surfaces as a corruption error.
    pub fn decode(bytes: &[u8]) -> Result<WalOp, IoError> {
        let bad = |m: &str| IoError::corruption(format!("wal op: {m}"));
        if bytes.len() < 3 {
            return Err(bad("short header"));
        }
        let tag = bytes[0];
        let name_len = u16::from_le_bytes([bytes[1], bytes[2]]) as usize;
        if bytes.len() < 3 + name_len {
            return Err(bad("short dataset name"));
        }
        let dataset = std::str::from_utf8(&bytes[3..3 + name_len])
            .map_err(|_| bad("dataset name not UTF-8"))?
            .to_string();
        let value = binary::from_bytes(&bytes[3 + name_len..])
            .map_err(|e| bad(&format!("bad value: {e}")))?;
        match tag {
            TAG_INSERT => Ok(WalOp::Insert {
                dataset,
                record: value,
            }),
            TAG_DELETE => Ok(WalOp::Delete { dataset, pk: value }),
            other => Err(bad(&format!("unknown tag {other}"))),
        }
    }
}

/// What startup recovery did, summed over every partition. Exposed via
/// [`crate::Instance::recovery_stats`] and the telemetry snapshot.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Partitions that had a manifest to restore from.
    pub partitions_recovered: usize,
    /// Disk components re-linked from manifests (all indexes).
    pub components_opened: u64,
    /// WAL records replayed (lsn > manifest `flushed_lsn`).
    pub wal_records_replayed: u64,
    /// WAL bytes discarded as torn tails during segment scans.
    pub wal_bytes_truncated: u64,
    /// WAL segment files dropped because a torn record invalidated
    /// everything after it.
    pub wal_segments_dropped: u64,
    /// Component files deleted because no manifest referenced them
    /// (flushes/merges that crashed before their manifest commit).
    pub orphan_files_removed: u64,
    /// Wall-clock time of the whole recovery pass.
    pub recovery_time: Duration,
}

/// The durability handle of one partition: its write-ahead log plus the
/// manifest bookkeeping (current `flushed_lsn`, commit path).
#[derive(Debug)]
pub struct PartitionDurability {
    dir: PathBuf,
    disk: Arc<Disk>,
    wal: Wal,
    /// The `flushed_lsn` of the last committed manifest.
    flushed_lsn: Mutex<u64>,
    /// Serializes whole manifest commits — from the LSM state sample
    /// through the atomic rename and the WAL truncation. Without it,
    /// two concurrent committers (a flush racing a DDL statement) could
    /// publish their manifests out of sample order: the newer one
    /// advances `flushed_lsn` and reclaims the WAL segments it covers,
    /// then the staler one overwrites the manifest with an older
    /// component list and a lower `flushed_lsn` — after a crash, the
    /// operations in between are in neither the manifest nor the WAL.
    commit_lock: Mutex<()>,
}

impl PartitionDurability {
    /// Open (or create) the durability state under `dir`: load the
    /// manifest if one exists and open the WAL, returning the surviving
    /// WAL records for replay.
    pub fn open(
        dir: &Path,
        wal_config: WalConfig,
        disk: Arc<Disk>,
    ) -> Result<(PartitionDurability, Option<Manifest>, Vec<WalRecord>), IoError> {
        let manifest = Manifest::load(dir)?;
        let (wal, records) = Wal::open(dir.join("wal"), wal_config, disk.clone())?;
        let flushed_lsn = manifest.as_ref().map_or(0, |m| m.flushed_lsn);
        // The manifest commit may have truncated away every WAL segment
        // that carried the highest LSNs; keep numbering monotonic so
        // fresh appends never land in the already-flushed range.
        wal.reserve_lsn_floor(flushed_lsn);
        Ok((
            PartitionDurability {
                dir: dir.to_path_buf(),
                disk,
                wal,
                flushed_lsn: Mutex::new(flushed_lsn),
                commit_lock: Mutex::new(()),
            },
            manifest,
            records,
        ))
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The file-backed disk of this partition.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// The partition's data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `flushed_lsn` of the last committed manifest.
    pub fn flushed_lsn(&self) -> u64 {
        *self.flushed_lsn.lock()
    }

    /// Append one operation and block until it is durable.
    pub fn log(&self, op: &WalOp) -> Result<u64, IoError> {
        self.wal.append(&op.encode())
    }

    /// Enqueue one operation for the next group commit, returning its
    /// LSN without waiting for the fsync. Call [`Self::wait_durable`]
    /// with the returned LSN (after releasing any coarse locks) before
    /// acknowledging the operation — this is what lets concurrent
    /// writers to one partition share a single group commit.
    pub fn submit(&self, op: &WalOp) -> Result<u64, IoError> {
        self.wal.submit(&op.encode())
    }

    /// Block until `lsn` is durable; an error means the operation was
    /// not persisted and must not be acknowledged.
    pub fn wait_durable(&self, lsn: u64) -> Result<u64, IoError> {
        self.wal.wait_durable(lsn)
    }

    /// Enqueue a batch of operations into one group commit, returning the
    /// LSN of the last without waiting for the fsync; see
    /// [`Self::submit`]. A batch commits or fails as a whole, so waiting
    /// on the last LSN settles all of it. Panics when `ops` is empty.
    pub fn submit_many(&self, ops: &[WalOp]) -> Result<u64, IoError> {
        let encoded: Vec<Vec<u8>> = ops.iter().map(WalOp::encode).collect();
        self.wal.submit_many(encoded.iter().map(|b| b.as_slice()))
    }

    /// Append a batch of operations as one group commit; returns the LSN
    /// of the last. No-op returning the current durable LSN when empty.
    pub fn log_many(&self, ops: &[WalOp]) -> Result<u64, IoError> {
        if ops.is_empty() {
            return Ok(self.wal.durable_lsn());
        }
        self.wait_durable(self.submit_many(ops)?)
    }

    /// Acquire the partition's commit lock. Callers must hold the
    /// returned guard from the moment they sample the LSM state that
    /// will become a manifest until [`Self::commit_manifest`] returns,
    /// so concurrent committers can never publish manifests out of
    /// sample order.
    pub fn commit_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.commit_lock.lock()
    }

    /// Commit `manifest` (atomic rename) and, when its `flushed_lsn`
    /// advanced, truncate the WAL segments it makes obsolete. Returns the
    /// WAL bytes reclaimed by truncation.
    ///
    /// Callers serialize the sample-to-commit window via
    /// [`Self::commit_lock`]. As defense in depth, a manifest whose
    /// `flushed_lsn` is behind the last committed one is clamped before
    /// it is written: a published `flushed_lsn` must never regress,
    /// because the WAL segments below the previous value may already be
    /// reclaimed — recovery would find the regressed range in neither
    /// the manifest's components nor the WAL.
    pub fn commit_manifest(&self, manifest: &Manifest) -> Result<u64, IoError> {
        let current = self.flushed_lsn();
        let clamped;
        let manifest = if manifest.flushed_lsn < current {
            clamped = Manifest {
                flushed_lsn: current,
                datasets: manifest.datasets.clone(),
            };
            &clamped
        } else {
            manifest
        };
        manifest.commit(&self.dir, &self.disk)?;
        let mut flushed = self.flushed_lsn.lock();
        let advanced = manifest.flushed_lsn > *flushed;
        *flushed = manifest.flushed_lsn;
        drop(flushed);
        if advanced {
            let before = self.wal.segment_bytes();
            self.wal.truncate_upto(manifest.flushed_lsn)?;
            Ok(before.saturating_sub(self.wal.segment_bytes()))
        } else {
            Ok(0)
        }
    }
}

/// Instance-lifetime durability counters sampled at snapshot time, summed
/// over every partition. All-zero (with `enabled == false`) on in-memory
/// instances.
#[derive(Clone, Debug, Default)]
pub struct DurabilityGauges {
    /// True when the instance runs with a data directory.
    pub enabled: bool,
    /// Component-file fsyncs (flush seals) across all partition disks.
    pub disk_fsyncs: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL payload bytes appended.
    pub wal_bytes: u64,
    /// WAL group commits (batched fsyncs serving ≥ 1 appender).
    pub wal_group_commits: u64,
    /// WAL fsyncs issued by the group-commit flusher.
    pub wal_fsyncs: u64,
    /// Live WAL bytes on disk across all partitions.
    pub wal_live_bytes: u64,
    /// WAL records replayed by the last startup recovery.
    pub replayed_records: u64,
    /// Duration of the last startup recovery, in microseconds.
    pub recovery_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::record;

    #[test]
    fn wal_op_roundtrip() {
        let ops = [
            WalOp::Insert {
                dataset: "Reviews".into(),
                record: record! {"id" => 7i64, "summary" => "great product"},
            },
            WalOp::Delete {
                dataset: "Reviews".into(),
                pk: Value::Int64(7),
            },
        ];
        for op in ops {
            let bytes = op.encode();
            assert_eq!(WalOp::decode(&bytes).unwrap(), op);
        }
    }

    /// A committed `flushed_lsn` must never regress: a staler manifest
    /// (sampled before a concurrent committer advanced it) is clamped
    /// to the current value before it is published, because the WAL
    /// segments below the newer value may already be reclaimed.
    #[test]
    fn commit_manifest_never_regresses_flushed_lsn() {
        let dir = std::env::temp_dir().join(format!(
            "asterix_durability_test_{}_noregress",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Arc::new(Disk::new());
        let (pd, _, _) =
            PartitionDurability::open(&dir, WalConfig::default(), disk).unwrap();
        pd.commit_manifest(&Manifest {
            flushed_lsn: 100,
            datasets: Vec::new(),
        })
        .unwrap();
        assert_eq!(pd.flushed_lsn(), 100);
        // A staler sample must not drag durability backwards.
        pd.commit_manifest(&Manifest {
            flushed_lsn: 40,
            datasets: Vec::new(),
        })
        .unwrap();
        assert_eq!(pd.flushed_lsn(), 100);
        let on_disk = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(on_disk.flushed_lsn, 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_op_decode_rejects_garbage() {
        assert!(WalOp::decode(&[]).unwrap_err().is_corruption());
        assert!(WalOp::decode(&[9, 0, 0]).unwrap_err().is_corruption());
        // Truncated dataset name.
        assert!(WalOp::decode(&[1, 10, 0, b'x']).unwrap_err().is_corruption());
        // Valid header, garbage value payload.
        let mut bytes = vec![1, 1, 0, b'd'];
        bytes.extend_from_slice(&[0xff, 0xff, 0xff]);
        assert!(WalOp::decode(&bytes).unwrap_err().is_corruption());
    }
}
