//! Bounded ring buffer of LSM lifecycle events.
//!
//! Flushes, merges, and bulk loads are the background heartbeat of an
//! LSM-based instance: most operational mysteries ("why did p99 spike at
//! 14:32?") resolve to "a merge was running". The [`LsmEventLog`] records
//! every lifecycle transition — start and end, with bytes, component
//! count, and component generation — into a fixed-capacity ring so an
//! operator can always see the *recent* history without the log growing
//! with uptime. Fault retries from the [`crate::fault::FaultInjector`]
//! path are recorded here too, so transient-I/O storms show up next to
//! the flushes they disturbed.
//!
//! One [`LsmEventLog`] is shared by every LSM tree of an instance (it is
//! threaded through [`crate::StorageConfig::events`]); each tree stamps
//! its events with a human-readable tag (`dataset/p3/inv_kw`) set by
//! [`crate::partition::PartitionStore`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// What happened. `*Start`/`*End` pairs bracket the operation; a `Start`
/// without a matching `End` means the operation failed (e.g. an injected
/// flush fault) — the retry then appears as [`LsmEventKind::FaultRetry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsmEventKind {
    /// A memory-component flush began.
    FlushStart,
    /// A flush completed and its run component is linked.
    FlushEnd,
    /// A full merge of the disk components began.
    MergeStart,
    /// A merge completed; superseded components are unlinked.
    MergeEnd,
    /// A sorted bulk load began.
    BulkLoadStart,
    /// A bulk load completed.
    BulkLoadEnd,
    /// A transient injected I/O fault was retried.
    FaultRetry,
    /// Startup recovery began for one partition (`bytes` = WAL bytes on
    /// disk before replay).
    RecoveryStart,
    /// Startup recovery finished (`bytes` = WAL records replayed).
    RecoveryEnd,
    /// WAL segments discarded after a manifest commit (`bytes` = WAL
    /// bytes reclaimed).
    WalTruncate,
}

impl LsmEventKind {
    /// Stable snake_case name used in telemetry JSON.
    pub fn name(&self) -> &'static str {
        match self {
            LsmEventKind::FlushStart => "flush_start",
            LsmEventKind::FlushEnd => "flush_end",
            LsmEventKind::MergeStart => "merge_start",
            LsmEventKind::MergeEnd => "merge_end",
            LsmEventKind::BulkLoadStart => "bulk_load_start",
            LsmEventKind::BulkLoadEnd => "bulk_load_end",
            LsmEventKind::FaultRetry => "fault_retry",
            LsmEventKind::RecoveryStart => "recovery_start",
            LsmEventKind::RecoveryEnd => "recovery_end",
            LsmEventKind::WalTruncate => "wal_truncate",
        }
    }
}

/// One lifecycle event. `seq` is a monotonically increasing global
/// sequence number (never reset, even when old events are evicted from
/// the ring), so consumers can detect gaps after sampling.
#[derive(Clone, Debug)]
pub struct LsmEvent {
    /// Global sequence number (monotone across evictions).
    pub seq: u64,
    /// Microseconds since the event log was created.
    pub at_us: u64,
    /// Which tree: `dataset/p<partition>/<index>`.
    pub tree: Arc<str>,
    /// What happened.
    pub kind: LsmEventKind,
    /// Bytes involved: memory-component size for `FlushStart`, resulting
    /// component size for `FlushEnd`/`MergeEnd`, total input bytes for
    /// `MergeStart`.
    pub bytes: u64,
    /// Disk component count after the event.
    pub components: u64,
    /// LSM generation after the event (bumped by every mutation and
    /// structural change, so events order against the writes between them).
    pub generation: u64,
    /// Free-form context (fault description for `FaultRetry`).
    pub detail: Option<String>,
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<LsmEvent>,
    /// Total events ever recorded (`buf` holds the `capacity` newest).
    recorded: u64,
    /// Events evicted to make room (== recorded - buf.len()).
    dropped: u64,
}

/// Fixed-capacity, thread-safe event ring. Eviction is strictly
/// oldest-first, so the newest `capacity` events are always retained.
#[derive(Debug)]
pub struct LsmEventLog {
    t0: Instant,
    capacity: usize,
    inner: Mutex<Ring>,
}

impl LsmEventLog {
    /// Create a ring retaining the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        LsmEventLog {
            t0: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(Ring::default()),
        }
    }

    /// The retention capacity this ring was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event. Lock-cheap: one short mutex hold, no allocation
    /// beyond the event itself once the ring is warm.
    pub fn record(
        &self,
        tree: &Arc<str>,
        kind: LsmEventKind,
        bytes: u64,
        components: u64,
        generation: u64,
        detail: Option<String>,
    ) {
        let at_us = self.t0.elapsed().as_micros() as u64;
        let mut ring = self.inner.lock();
        let seq = ring.recorded;
        ring.recorded += 1;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(LsmEvent {
            seq,
            at_us,
            tree: tree.clone(),
            kind,
            bytes,
            components,
            generation,
            detail,
        });
    }

    /// The retained events, oldest first. Sequence numbers are contiguous
    /// and end at `total_recorded() - 1`.
    pub fn snapshot(&self) -> Vec<LsmEvent> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Events evicted from the ring to bound memory.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn ring_keeps_newest_k_events() {
        let log = LsmEventLog::new(4);
        let t = tag("ds/p0/<primary>");
        for i in 0..10u64 {
            log.record(&t, LsmEventKind::FlushEnd, i, 1, i, None);
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(log.total_recorded(), 10);
        assert_eq!(log.dropped(), 6);
        // The newest K survive, in order, with contiguous seq numbers
        // ending at total_recorded - 1.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_recording_never_loses_the_newest_events() {
        let log = Arc::new(LsmEventLog::new(16));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    let tag: Arc<str> = Arc::from(format!("ds/p{t}/<primary>"));
                    for i in 0..100u64 {
                        log.record(&tag, LsmEventKind::MergeEnd, i, 1, i, None);
                    }
                });
            }
        });
        assert_eq!(log.total_recorded(), 400);
        assert_eq!(log.dropped(), 400 - 16);
        let events = log.snapshot();
        assert_eq!(events.len(), 16);
        // Monotone, contiguous, ending at the final sequence number.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, 400 - 16 + i as u64);
        }
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let log = LsmEventLog::new(0);
        let t = tag("x");
        log.record(&t, LsmEventKind::BulkLoadStart, 0, 0, 0, None);
        log.record(&t, LsmEventKind::BulkLoadEnd, 5, 1, 1, None);
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot()[0].kind, LsmEventKind::BulkLoadEnd);
    }
}
