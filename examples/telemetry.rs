//! Instance-wide telemetry: run a small mixed workload, then inspect the
//! three export surfaces — the JSON metrics snapshot (per-class latency
//! histograms, operator timings, cache ratios, LSM gauges, the lifecycle
//! event ring), the Prometheus text rendering, and a slow-query capture
//! with its full plan, profile, and tracing spans.
//!
//! Run with: `cargo run --example telemetry`

use asterix_adm::IndexKind;
use asterix_core::{Instance, InstanceConfig, QueryOptions};
use asterix_datagen::amazon_reviews;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Telemetry is on by default — no opt-in needed.
    let db = Instance::new(InstanceConfig::with_partitions(4));
    db.create_dataset("AmazonReview", "id")?;
    db.load("AmazonReview", amazon_reviews(2_000, 42))?;
    db.create_index("AmazonReview", "smix", "summary", IndexKind::Keyword)?;
    db.create_index("AmazonReview", "nix", "reviewerName", IndexKind::NGram(2))?;
    // Flushing emits flush events into the lifecycle ring and moves data
    // to disk components so queries exercise the buffer cache.
    db.flush("AmazonReview")?;

    // A mixed workload: scans, index selections, and an index join. Each
    // query is classified by its plan and lands in that class's latency
    // histogram.
    for _ in 0..5 {
        db.query("for $t in dataset AmazonReview where $t.id < 50 return $t.id")?;
    }
    for _ in 0..5 {
        db.query(
            "for $t in dataset AmazonReview \
             where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.5 \
             return $t.id",
        )?;
    }
    db.query(
        "for $o in dataset AmazonReview \
         for $i in dataset AmazonReview \
         where $o.id < 25 \
           and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
           and $o.id < $i.id \
         return {\"o\": $o.id, \"i\": $i.id}",
    )?;

    // Force one slow-query capture by dropping the threshold to zero for
    // a single query (normally `TelemetryConfig::slow_query_threshold`,
    // default 250ms, decides).
    db.query_with(
        "for $t in dataset AmazonReview \
         where edit-distance($t.reviewerName, 'gubimo') <= 1 \
         return $t.id",
        &QueryOptions {
            slow_query_threshold: Some(Duration::ZERO),
            ..QueryOptions::default()
        },
    )?;

    // Surface 1: the full JSON snapshot.
    println!("=== metrics snapshot (JSON) ===\n");
    println!("{}\n", asterix_adm::json::to_string(&db.metrics_snapshot()));

    // Surface 2: Prometheus text exposition.
    println!("=== metrics (Prometheus text) ===\n");
    println!("{}", db.metrics_prometheus());

    // Surface 3: the slow-query log, with the captured plan + span tree.
    let telemetry = db.telemetry();
    for slow in telemetry.slow_queries() {
        println!(
            "=== slow query #{} ({}, {:?}) ===\n{}\n",
            slow.seq,
            slow.class.name(),
            slow.execution_time,
            slow.query.trim()
        );
        println!("captured plan:\n{}", slow.plan);
        println!(
            "profile: {} operators, {} primary lookups, {} survivors",
            slow.profile.operators.len(),
            slow.profile.index_search.primary_lookups,
            slow.profile.index_search.post_verification_survivors
        );
        println!("span tree ({} spans):", slow.spans.len());
        for span in &slow.spans {
            println!(
                "  id={} parent={:?} {} partition={:?} start={}us dur={}us",
                span.id, span.parent, span.name, span.partition, span.start_us, span.duration_us
            );
        }
    }

    // The lifecycle event ring: flush/merge/bulk-load brackets with byte
    // and component counts, ordered by sequence number.
    let events = telemetry.event_log().snapshot();
    println!("\n=== LSM lifecycle events ({} recorded) ===", telemetry.event_log().total_recorded());
    for e in events.iter().rev().take(10) {
        println!(
            "  #{} {} {} bytes={} components={}",
            e.seq,
            e.tree,
            e.kind.name(),
            e.bytes,
            e.components
        );
    }
    Ok(())
}
