//! Thread usage of a saturated pooled instance is bounded by `workers` +
//! the client threads + a small constant — not client × operators ×
//! partitions.
//!
//! The test reads the process-wide `Threads:` count, so it runs in a test
//! binary of its own: no other test shares its process.

mod scheduler_support;

use asterix_core::SchedulerConfig;
use scheduler_support::{instance_with, matrix};
use std::time::Duration;

/// Current OS thread count (`/proc/self/status`, linux-only; 0 elsewhere).
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

#[test]
fn saturated_pooled_instance_keeps_thread_count_bounded() {
    if current_threads() == 0 {
        return; // /proc/self/status unavailable on this platform
    }
    const CLIENTS: usize = 12;
    let db = instance_with(SchedulerConfig {
        queue_depth: 64,
        ..SchedulerConfig::default()
    });
    let queries = matrix();
    let base = current_threads();
    let peak = std::sync::atomic::AtomicU64::new(base);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            use std::sync::atomic::Ordering;
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(current_threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        std::thread::scope(|inner| {
            for _ in 0..CLIENTS {
                inner.spawn(|| {
                    for (name, q) in &queries {
                        db.query(q).unwrap_or_else(|e| panic!("{name}: {e}"));
                    }
                });
            }
        });
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let peak = peak.load(std::sync::atomic::Ordering::Relaxed);
    // Budget: the client threads themselves + the sampler + slack. A
    // thread per operator instance would add ~operators × partitions
    // threads *per concurrent query* on top; the pool must not.
    let budget = base + CLIENTS as u64 + 6;
    assert!(
        peak <= budget,
        "peak {peak} threads > bound {budget} (base {base}, {CLIENTS} clients)"
    );
    let snap = db.metrics().gauges.scheduler;
    assert_eq!(snap.rejected_queue_full + snap.rejected_timeout, 0);
    assert!(snap.admitted >= (CLIENTS * queries.len()) as u64);
}
