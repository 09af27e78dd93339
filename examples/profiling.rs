//! Per-query profiling: run similarity queries with
//! `QueryOptions { profile: true }` and inspect the attached
//! [`QueryProfile`] — the per-operator tuple/frame/time breakdown, the
//! buffer-cache and LSM counters attributed to each query alone, the
//! index-search candidate funnel (inverted-list elements → T-occurrence
//! candidates → primary lookups → post-verification survivors), and the
//! optimizer's rule trace — as an EXPLAIN PROFILE-style text tree and
//! as JSON.
//!
//! Run with: `cargo run --example profiling`

use asterix_adm::IndexKind;
use asterix_core::{Instance, InstanceConfig, QueryOptions};
use asterix_datagen::amazon_reviews;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Instance::new(InstanceConfig::with_partitions(4));
    db.create_dataset("AmazonReview", "id")?;
    // Seed 42: the generator's Zipfian vocabulary includes "caho" and
    // "gubimo", which the queries below probe for.
    db.load("AmazonReview", amazon_reviews(2_000, 42))?;
    db.create_index("AmazonReview", "smix", "summary", IndexKind::Keyword)?;
    db.create_index("AmazonReview", "nix", "reviewerName", IndexKind::NGram(2))?;
    // Flush so the queries below read disk components through the
    // buffer cache — otherwise every probe is an in-memory hit and the
    // cache/LSM sections of the profile stay empty.
    db.flush("AmazonReview")?;

    let profiled = QueryOptions {
        profile: true,
        ..QueryOptions::default()
    };

    // An index-accelerated Jaccard selection: the profile shows the
    // candidate funnel of §4.1 (inverted lists → T-occurrence →
    // primary lookups → verified results).
    let sel = db.query_with(
        "for $t in dataset AmazonReview \
         where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.5 \
         return $t.id",
        &profiled,
    )?;
    let profile = sel.profile.as_ref().expect("profile was requested");
    println!("=== Jaccard selection: {} rows ===\n", sel.rows.len());
    println!("{}", profile.render_text());

    // The same profile as JSON, as the bench harness emits it.
    println!("=== profile JSON ===\n{}\n", profile.to_json_string());

    // An edit-distance selection through the 2-gram index: different
    // query, independent counters.
    let ed = db.query_with(
        "for $t in dataset AmazonReview \
         where edit-distance($t.reviewerName, 'gubimo') <= 1 \
         return $t.id",
        &profiled,
    )?;
    let profile = ed.profile.as_ref().expect("profile was requested");
    println!("=== Edit-distance selection: {} rows ===\n", ed.rows.len());
    println!("{}", profile.render_text());

    Ok(())
}
