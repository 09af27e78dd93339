//! The per-query profiling subsystem: `QueryOptions { profile: true }`
//! must attach a [`QueryProfile`] with per-operator runtime stats,
//! storage counters attributed to *that query alone* (even when queries
//! run concurrently), the index-search candidate funnel, and the
//! optimizer's rule trace — rendered as JSON and as a text tree.

use asterix_adm::IndexKind;
use asterix_core::{Instance, InstanceConfig, QueryOptions, QueryProfile};
use asterix_datagen::amazon_reviews;

fn profiled() -> QueryOptions {
    QueryOptions {
        profile: true,
        ..QueryOptions::default()
    }
}

/// Reviews with both similarity indexes, flushed so queries actually
/// touch disk components through the buffer cache.
fn setup(n: usize) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(n, 42)).unwrap();
    db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
        .unwrap();
    db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
        .unwrap();
    db.flush("ARevs").unwrap();
    db
}

fn jaccard_query() -> String {
    // "caho" is the most common word the generator emits, so this
    // matches one-word summaries exactly at jaccard 0.5.
    "for $t in dataset ARevs \
     where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.5 \
     return $t.id"
        .to_string()
}

#[test]
fn profile_absent_by_default() {
    let db = setup(50);
    let r = db.query(&jaccard_query()).unwrap();
    assert!(r.profile.is_none());
}

#[test]
fn profile_reports_operator_and_storage_stats() {
    let db = setup(200);
    let r = db.query_with(&jaccard_query(), &profiled()).unwrap();
    let p = r.profile.as_ref().expect("profile requested");

    // Per-operator stats: every physical op is present, the sink saw the
    // result rows, and something emitted frames/bytes downstream.
    assert!(!p.operators.is_empty());
    let sink = p.operator("result-sink").expect("sink profiled");
    assert_eq!(sink.output_tuples, r.rows.len() as u64);
    assert!(p.operators.iter().any(|o| o.frames_emitted > 0));
    assert!(p.operators.iter().any(|o| o.bytes_emitted > 0));
    assert!(p
        .operators
        .iter()
        .all(|o| o.output_tuples == 0 || !o.partition_times.is_empty()));

    // Index-search funnel: list scan → candidates → lookups → verified.
    assert!(p.index_search.inverted_elements_read > 0);
    assert!(p.index_search.toccurrence_candidates > 0);
    assert!(p.index_search.primary_lookups >= p.index_search.toccurrence_candidates);
    assert_eq!(
        p.index_search.post_verification_survivors,
        r.rows.len() as u64,
        "verify-select output must equal the final result"
    );
    // Candidates may include false positives, never fewer than results.
    assert!(p.index_search.toccurrence_candidates >= r.rows.len() as u64);

    // The flushed components force cache traffic for this query.
    assert!(p.cache.hits + p.cache.misses > 0);
    assert!(p.lsm.components_searched > 0);
    assert!(p.lsm.total_flushes > 0, "explicit flush must be counted");

    // The optimizer trace shows the index selection fired.
    assert!(p
        .rule_trace
        .iter()
        .any(|(rule, n)| *rule == "introduce-index-for-selection" && *n > 0));
}

#[test]
fn profile_renders_json_and_text() {
    let db = setup(100);
    let r = db.query_with(&jaccard_query(), &profiled()).unwrap();
    let p = r.profile.as_ref().unwrap();

    // JSON: parseable back into an ADM value with the expected fields.
    let json = p.to_json_string();
    let parsed = asterix_adm::json::parse(&json).expect("profile JSON must parse");
    for field in ["operators", "cache", "index_search", "lsm", "rule_trace"] {
        assert!(
            !parsed.field(field).is_unknown(),
            "missing field {field} in {json}"
        );
    }

    // Text: the EXPLAIN PROFILE tree is rooted at the sink and carries
    // the storage sections.
    let text = p.render_text();
    assert!(text.starts_with("QUERY PROFILE"), "{text}");
    assert!(text.contains("result-sink"), "{text}");
    assert!(text.contains("secondary-index-search"), "{text}");
    assert!(text.contains("cache:"), "{text}");
    assert!(text.contains("index search:"), "{text}");
    assert!(text.contains("rules:"), "{text}");
}

#[test]
fn scan_query_has_no_index_counters() {
    let db = setup(60);
    let q = "for $t in dataset ARevs where $t.id < 10 return $t.id";
    let r = db.query_with(q, &profiled()).unwrap();
    let p = r.profile.as_ref().unwrap();
    assert_eq!(p.index_search.toccurrence_candidates, 0);
    assert_eq!(p.index_search.inverted_elements_read, 0);
}

/// The reason the subsystem exists: two queries running at the same time
/// must each see exactly their own storage counters, not a blend (the
/// old global `reset_stats()` pattern could not provide this).
#[test]
fn concurrent_queries_report_independent_cache_stats() {
    let db = setup(200);
    let q1 = jaccard_query();
    let q2 = "for $t in dataset ARevs \
              where edit-distance($t.reviewerName, 'gubimo') <= 1 \
              return $t.id"
        .to_string();

    // Warm the cache so subsequent runs are deterministic (the default
    // cache holds the whole working set: no evictions, pure hits).
    db.query(&q1).unwrap();
    db.query(&q2).unwrap();

    let solo = |q: &str| -> QueryProfile {
        db.query_with(q, &profiled()).unwrap().profile.unwrap()
    };
    let solo1 = solo(&q1);
    let solo2 = solo(&q2);
    assert!(solo1.cache.hits > 0);
    assert!(solo2.cache.hits > 0);
    assert_ne!(
        solo1.cache, solo2.cache,
        "distinct queries should do distinct amounts of cache work"
    );

    let (conc1, conc2) = std::thread::scope(|s| {
        let h1 = s.spawn(|| solo(&q1));
        let h2 = s.spawn(|| solo(&q2));
        (h1.join().unwrap(), h2.join().unwrap())
    });

    assert_eq!(
        conc1.cache, solo1.cache,
        "query 1's cache stats changed under concurrency"
    );
    assert_eq!(
        conc2.cache, solo2.cache,
        "query 2's cache stats changed under concurrency"
    );
    assert_eq!(conc1.index_search, solo1.index_search);
    assert_eq!(conc2.index_search, solo2.index_search);
}
