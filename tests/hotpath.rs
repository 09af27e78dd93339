//! The index-search hot path: postings cache, batched sorted primary
//! lookups, and token memoization must never change query results — only
//! how much work the storage layer does — and their counters must show up
//! in the per-query profile.

use asterix_adm::{record, IndexKind};
use asterix_algebricks::OptimizerConfig;
use asterix_core::{Instance, InstanceConfig, QueryOptions, QueryProfile};
use asterix_datagen::amazon_reviews;

fn profiled() -> QueryOptions {
    QueryOptions {
        profile: true,
        ..QueryOptions::default()
    }
}

/// The full baseline: postings cache still on (it is a storage-layer
/// setting), but per-tuple operators and no compile-time tokenization.
fn profiled_baseline() -> QueryOptions {
    let cfg = OptimizerConfig {
        pre_tokenize: false,
        ..OptimizerConfig::default()
    };
    QueryOptions {
        optimizer: Some(cfg),
        profile: true,
        disable_hotpath: true,
        ..QueryOptions::default()
    }
}

fn scan_only() -> QueryOptions {
    let cfg = OptimizerConfig {
        enable_index_select: false,
        enable_index_join: false,
        ..OptimizerConfig::default()
    };
    QueryOptions {
        optimizer: Some(cfg),
        ..QueryOptions::default()
    }
}

/// Reviews with both similarity indexes, flushed so queries read disk
/// components (the interesting case for the postings cache).
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
    "for $t in dataset ARevs \
     where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.4 \
     return $t.id"
        .to_string()
}

fn ed_query() -> String {
    "for $t in dataset ARevs \
     where edit-distance($t.reviewerName, 'gubimo') <= 1 \
     return $t.id"
        .to_string()
}

fn join_query() -> String {
    "for $o in dataset ARevs \
     for $i in dataset ARevs \
     where $o.id < 30 \
       and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.8 \
       and $o.id < $i.id \
     return {\"o\": $o.id, \"i\": $i.id}"
        .to_string()
}

/// Index plans with the cache and hot path on must agree with plain scan
/// plans — cold cache and warm cache alike.
#[test]
fn index_with_cache_matches_scan() {
    let db = setup(300);
    for q in [jaccard_query(), ed_query(), join_query()] {
        let scanned = db.query_with(&q, &scan_only()).unwrap();
        // Twice: the first run fills the postings cache, the second is
        // served from it.
        for round in 0..2 {
            let indexed = db.query_with(&q, &profiled()).unwrap();
            assert!(
                indexed
                    .profile
                    .as_ref()
                    .unwrap()
                    .rule_trace
                    .iter()
                    .any(|(rule, _)| rule.starts_with("introduce-index")),
                "query must actually take an index plan: {q}"
            );
            let mut a = scanned.rows.clone();
            let mut b = indexed.rows;
            a.sort();
            b.sort();
            assert_eq!(a, b, "round {round}: index plan diverged from scan on {q}");
        }
    }
}

/// The hot path (batched lookups + token memoization + pre-tokenization)
/// must return exactly what the per-tuple baseline returns.
#[test]
fn hotpath_matches_per_tuple_baseline() {
    let db = setup(300);
    for q in [jaccard_query(), ed_query(), join_query()] {
        let base = db.query_with(&q, &profiled_baseline()).unwrap();
        let fast = db.query_with(&q, &profiled()).unwrap();
        let mut a = base.rows;
        let mut b = fast.rows;
        a.sort();
        b.sort();
        assert_eq!(a, b, "hot path changed results of {q}");
        // Both took index plans, so both did primary lookups; the batched
        // path dedups repeated keys inside a frame, so it may issue
        // fewer lookups than the per-tuple path — never more.
        let bp = base.profile.unwrap();
        let fp = fast.profile.unwrap();
        assert!(fp.index_search.primary_lookups > 0);
        assert!(fp.index_search.primary_lookups <= bp.index_search.primary_lookups);
        assert_eq!(
            bp.index_search.toccurrence_candidates,
            fp.index_search.toccurrence_candidates
        );
    }
}

/// A warmed postings cache serves repeat queries without re-reading any
/// inverted-list elements.
#[test]
fn warm_postings_cache_serves_repeat_queries() {
    let db = setup(300);
    let q = jaccard_query();
    let cold = db.query_with(&q, &profiled()).unwrap().profile.unwrap();
    assert!(cold.index_search.postings_cache_misses > 0);
    assert!(cold.index_search.inverted_elements_read > 0);
    let warm = db.query_with(&q, &profiled()).unwrap().profile.unwrap();
    assert!(warm.index_search.postings_cache_hits > 0);
    assert_eq!(warm.index_search.postings_cache_misses, 0);
    assert_eq!(
        warm.index_search.inverted_elements_read, 0,
        "a fully-cached probe must not re-read list elements"
    );
    // Same candidates either way.
    assert_eq!(
        warm.index_search.toccurrence_candidates,
        cold.index_search.toccurrence_candidates
    );
}

/// Mutations invalidate the cache through the whole stack: a query, an
/// insert of a new matching record, and the same query again must see the
/// new record (and a delete must hide it again).
#[test]
fn postings_cache_invalidated_by_dml() {
    let db = setup(200);
    let q = "for $t in dataset ARevs \
             where similarity-jaccard(word-tokens($t.summary), word-tokens('caho gonaha')) >= 0.99 \
             return $t.id";
    let before = db.query_with(q, &profiled()).unwrap().ids();
    db.insert(
        "ARevs",
        record! {"id" => 999_999i64, "summary" => "caho gonaha", "reviewerName" => "zz"},
    )
    .unwrap();
    let after = db.query_with(q, &profiled()).unwrap().ids();
    assert!(
        after.contains(&999_999) && after.len() == before.len() + 1,
        "inserted record missing from warm-cache query: {after:?}"
    );
    db.delete("ARevs", &asterix_adm::Value::Int64(999_999))
        .unwrap();
    assert_eq!(db.query_with(q, &profiled()).unwrap().ids(), before);
}

/// A write invalidates only the tokens it touches: after inserting a
/// record that shares no token with the query, the same query is still
/// served from the cache.
#[test]
fn postings_cache_survives_unrelated_insert() {
    let db = setup(200);
    let q = jaccard_query();
    let before = db.query_with(&q, &profiled()).unwrap();
    db.insert(
        "ARevs",
        record! {"id" => 999_998i64, "summary" => "zzyzx qwvx", "reviewerName" => "qq"},
    )
    .unwrap();
    let after = db.query_with(&q, &profiled()).unwrap();
    assert_eq!(after.ids(), before.ids());
    let p = after.profile.unwrap();
    assert!(p.index_search.postings_cache_hits > 0);
    assert_eq!(p.index_search.postings_cache_misses, 0);
    assert_eq!(p.index_search.inverted_elements_read, 0);
}

/// Concurrent queries share one partition's postings cache safely: after
/// a warm-up, both see pure hits, both get correct (identical) answers,
/// and each profile reports its own counters.
#[test]
fn concurrent_queries_share_postings_cache() {
    let db = setup(300);
    let q = jaccard_query();
    let warm = db.query_with(&q, &profiled()).unwrap();
    let mut expected = warm.rows;
    expected.sort();

    let run = |q: &str| -> (Vec<asterix_adm::Value>, QueryProfile) {
        let r = db.query_with(q, &profiled()).unwrap();
        let mut rows = r.rows;
        rows.sort();
        (rows, r.profile.unwrap())
    };
    let ((rows1, p1), (rows2, p2)) = std::thread::scope(|s| {
        let h1 = s.spawn(|| run(&q));
        let h2 = s.spawn(|| run(&q));
        (h1.join().unwrap(), h2.join().unwrap())
    });
    assert_eq!(rows1, expected);
    assert_eq!(rows2, expected);
    for p in [&p1, &p2] {
        assert!(p.index_search.postings_cache_hits > 0);
        assert_eq!(p.index_search.postings_cache_misses, 0);
        assert_eq!(p.index_search.inverted_elements_read, 0);
    }
    assert_eq!(p1.index_search, p2.index_search);
}

/// The new counters are part of the profile JSON and the EXPLAIN
/// PROFILE text rendering.
#[test]
fn postings_cache_counters_in_profile_output() {
    let db = setup(150);
    let r = db.query_with(&jaccard_query(), &profiled()).unwrap();
    let p = r.profile.as_ref().unwrap();

    let json = p.to_json_string();
    let parsed = asterix_adm::json::parse(&json).expect("profile JSON must parse");
    let ix = parsed.field("index_search");
    assert!(
        !ix.field("postings_cache_hits").is_unknown(),
        "missing postings_cache_hits in {json}"
    );
    assert!(
        !ix.field("postings_cache_misses").is_unknown(),
        "missing postings_cache_misses in {json}"
    );

    let text = p.render_text();
    assert!(text.contains("postings cache:"), "{text}");
}
