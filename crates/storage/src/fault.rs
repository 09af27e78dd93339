//! Deterministic, seeded fault injection for the simulated disk.
//!
//! Real AsterixDB runs on disks that fail; the reproduction's storage
//! stack must surface those failures as typed errors instead of panics
//! so the executor can cancel a query cleanly. The [`FaultInjector`]
//! makes failures *reproducible*: every fault is either
//!
//! * a **targeted rule** ([`FaultRule`]) — fail the Nth read/append/flush,
//!   optionally restricted to one [`FileId`], either once (`transient`,
//!   the fault clears and a retry succeeds) or forever (`permanent`), or
//! * **seeded chaos** ([`FaultInjector::random`]) — each I/O consults a
//!   SplitMix64 stream, so a given seed produces the same fault sequence
//!   on every run.
//!
//! Injectors attach to a [`crate::disk::Disk`] (one per partition in the
//! simulated cluster), so "fail partition 2's disk" is "install an
//! injector on partition 2's disk".

use crate::disk::FileId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// What class of failure an [`IoError`] reports. Most errors are plain
/// device faults; `Corruption` is reserved for integrity violations — a
/// page or WAL record whose stored CRC32 does not match its payload, or a
/// manifest that no longer parses. Corruption is never transient: retrying
/// the read returns the same bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoErrorKind {
    /// A device-level failure (injected or real OS error).
    #[default]
    Device,
    /// A checksum/format mismatch: the bytes read are not the bytes
    /// written.
    Corruption,
}

/// A storage I/O failure. `transient` faults are expected to succeed if
/// the operation is retried (the core layer retries flushes with bounded
/// backoff); `permanent` faults fail every retry. `kind` separates device
/// faults from [`IoErrorKind::Corruption`] (checksum mismatches), which
/// the recovery path treats differently: a corrupt WAL tail is truncated,
/// a corrupt sealed component fails recovery loudly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoError {
    /// Human-readable description of the failure.
    pub message: String,
    /// `true` when a retry of the same operation may succeed.
    pub transient: bool,
    /// Device fault vs. data corruption.
    pub kind: IoErrorKind,
}

impl IoError {
    /// A permanent device fault: every retry fails.
    pub fn permanent(message: impl Into<String>) -> Self {
        IoError {
            message: message.into(),
            transient: false,
            kind: IoErrorKind::Device,
        }
    }

    /// A transient device fault: a retry is expected to succeed.
    pub fn transient(message: impl Into<String>) -> Self {
        IoError {
            message: message.into(),
            transient: true,
            kind: IoErrorKind::Device,
        }
    }

    /// A typed corruption error (CRC mismatch, undecodable page, torn
    /// manifest). Never transient.
    pub fn corruption(message: impl Into<String>) -> Self {
        IoError {
            message: message.into(),
            transient: false,
            kind: IoErrorKind::Corruption,
        }
    }

    /// True when this error reports data corruption rather than a device
    /// fault.
    pub fn is_corruption(&self) -> bool {
        self.kind == IoErrorKind::Corruption
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match (self.kind, self.transient) {
            (IoErrorKind::Corruption, _) => "corruption",
            (IoErrorKind::Device, true) => "transient",
            (IoErrorKind::Device, false) => "permanent",
        };
        write!(f, "{} i/o error: {}", kind, self.message)
    }
}

impl std::error::Error for IoError {}

/// The I/O operations a fault can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// A page read from a file.
    Read,
    /// A page append to a file.
    Append,
    /// An LSM flush (checked once per [`crate::lsm::LsmTree::flush`],
    /// before any page is written).
    Flush,
    /// One record append to the write-ahead log (an `Append`-class
    /// failure, checked synchronously in [`crate::wal::Wal::append`]
    /// before the record is queued).
    WalAppend,
    /// One WAL group-commit flush (a `Flush`-class failure, checked by
    /// the group-commit thread before the batch is written + fsynced;
    /// every writer waiting on that batch sees the error).
    WalFlush,
    /// One manifest commit (a `Flush`-class failure, checked before the
    /// atomic rename that publishes the new manifest).
    ManifestCommit,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoOp::Read => write!(f, "read"),
            IoOp::Append => write!(f, "append"),
            IoOp::Flush => write!(f, "flush"),
            IoOp::WalAppend => write!(f, "wal-append"),
            IoOp::WalFlush => write!(f, "wal-flush"),
            IoOp::ManifestCommit => write!(f, "manifest-commit"),
        }
    }
}

/// Abort the process if the `ASTERIX_CRASH_POINT` environment variable
/// names this point. The kill -9 torture test (`tests/durability.rs`)
/// runs a child writer with a crash point armed —
/// mid-flush, mid-merge, mid-WAL-commit, mid-manifest-rename — and then
/// verifies that a reopened instance lost no acknowledged write. An
/// abort is indistinguishable from `kill -9` for durability purposes:
/// no destructor runs, no buffer is flushed.
///
/// The environment variable is read once per process; when unset (every
/// normal run) the cost is one atomic load and a pointer compare.
pub fn crash_point(name: &str) {
    static POINT: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    let armed = POINT.get_or_init(|| std::env::var("ASTERIX_CRASH_POINT").ok());
    if let Some(p) = armed {
        if p == name {
            eprintln!("crash point '{name}' armed: aborting");
            std::process::abort();
        }
    }
}

/// Fail the `nth` (1-based) matching operation. A `transient` rule fires
/// exactly once; a permanent rule fails the nth and every later match.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Which operation class the rule applies to.
    pub op: IoOp,
    /// Restrict to one file; `None` matches any file (and flushes, which
    /// have no file yet).
    pub file: Option<FileId>,
    /// 1-based index of the first matching operation to fail.
    pub nth: u64,
    /// Whether the injected error is retryable.
    pub transient: bool,
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    seen: u64,
    fired: bool,
}

/// SplitMix64 — tiny, deterministic, and good enough to decorrelate the
/// chaos stream from the op sequence.
#[derive(Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Deterministic fault source for one simulated disk.
#[derive(Debug)]
pub struct FaultInjector {
    rules: Mutex<Vec<RuleState>>,
    rng: Mutex<SplitMix64>,
    /// Probability that any single I/O fails transiently (chaos mode).
    probability: f64,
    injected: AtomicU64,
}

impl FaultInjector {
    /// An injector with no faults until rules are added.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rules: Mutex::new(Vec::new()),
            rng: Mutex::new(SplitMix64(seed)),
            probability: 0.0,
            injected: AtomicU64::new(0),
        }
    }

    /// Seeded chaos: every I/O fails transiently with `probability`,
    /// drawn from a SplitMix64 stream — the same seed yields the same
    /// fault sequence.
    pub fn random(seed: u64, probability: f64) -> Self {
        FaultInjector {
            probability: probability.clamp(0.0, 1.0),
            ..Self::new(seed)
        }
    }

    /// Add a targeted rule; builder-style so tests read declaratively.
    pub fn with_rule(self, rule: FaultRule) -> Self {
        self.add_rule(rule);
        self
    }

    /// Install an additional rule on a live injector.
    pub fn add_rule(&self, rule: FaultRule) {
        assert!(rule.nth >= 1, "fault rule nth is 1-based");
        self.rules.lock().push(RuleState {
            rule,
            seen: 0,
            fired: false,
        });
    }

    /// How many faults this injector has raised so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consult the injector before performing `op` on `file`.
    pub fn check(&self, op: IoOp, file: Option<FileId>) -> Result<(), IoError> {
        {
            let mut rules = self.rules.lock();
            for state in rules.iter_mut() {
                if state.rule.op != op {
                    continue;
                }
                if let (Some(want), Some(got)) = (state.rule.file, file) {
                    if want != got {
                        continue;
                    }
                } else if state.rule.file.is_some() {
                    continue; // rule wants a specific file, op has none
                }
                state.seen += 1;
                if state.seen < state.rule.nth {
                    continue;
                }
                if state.rule.transient && state.fired {
                    continue; // transient: already fired once
                }
                state.fired = true;
                self.injected.fetch_add(1, Ordering::Relaxed);
                let scope = match state.rule.file {
                    Some(file) => format!("file {}", file.0),
                    None => "any file".into(),
                };
                return Err(IoError {
                    message: format!("injected fault on {op} #{} ({scope})", state.seen),
                    transient: state.rule.transient,
                    kind: IoErrorKind::Device,
                });
            }
        }
        if self.probability > 0.0 && self.rng.lock().next_f64() < self.probability {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(IoError::transient(format!("injected random fault on {op}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_transient_fires_once() {
        let inj = FaultInjector::new(1).with_rule(FaultRule {
            op: IoOp::Read,
            file: None,
            nth: 2,
            transient: true,
        });
        assert!(inj.check(IoOp::Read, None).is_ok());
        let err = inj.check(IoOp::Read, None).unwrap_err();
        assert!(err.transient);
        // Cleared: later reads succeed (a retry would too).
        assert!(inj.check(IoOp::Read, None).is_ok());
        assert_eq!(inj.faults_injected(), 1);
    }

    #[test]
    fn targeted_permanent_keeps_failing() {
        let inj = FaultInjector::new(1).with_rule(FaultRule {
            op: IoOp::Append,
            file: None,
            nth: 1,
            transient: false,
        });
        assert!(inj.check(IoOp::Append, None).is_err());
        assert!(inj.check(IoOp::Append, None).is_err());
        assert!(inj.check(IoOp::Read, None).is_ok());
    }

    #[test]
    fn file_scoped_rule_ignores_other_files() {
        let inj = FaultInjector::new(1).with_rule(FaultRule {
            op: IoOp::Read,
            file: Some(FileId(7)),
            nth: 1,
            transient: false,
        });
        assert!(inj.check(IoOp::Read, Some(FileId(3))).is_ok());
        assert!(inj.check(IoOp::Read, None).is_ok());
        assert!(inj.check(IoOp::Read, Some(FileId(7))).is_err());
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed| {
            let inj = FaultInjector::random(seed, 0.3);
            (0..100)
                .map(|_| inj.check(IoOp::Read, None).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let faults = run(42).iter().filter(|f| **f).count();
        assert!(faults > 10 && faults < 60, "~30% of 100, got {faults}");
    }

    #[test]
    fn zero_probability_never_fails() {
        let inj = FaultInjector::random(9, 0.0);
        assert!((0..50).all(|_| inj.check(IoOp::Flush, None).is_ok()));
    }
}
