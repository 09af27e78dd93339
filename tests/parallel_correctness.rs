//! Parallel-execution invariants: the answer of every similarity query is
//! independent of the partition count and of the physical join strategy
//! (nested-loop vs index-nested-loop vs three-stage vs surrogate), and
//! shared-subplan reuse does not change results. These are the properties
//! that make the paper's Fig 24/25/27 comparisons meaningful. Nor does
//! the worker-pool size: the executor skips the probe side of a
//! nested-loop join behind an empty build side, and answers alike on 1
//! and 8 workers.

use asterix_adm::{IndexKind, Value};
use asterix_algebricks::OptimizerConfig;
use asterix_core::{Instance, InstanceConfig, QueryOptions, SchedulerConfig};
use asterix_datagen::amazon_reviews;

fn build(n: usize, partitions: usize, with_indexes: bool) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(partitions));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(n, 99)).unwrap();
    if with_indexes {
        db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
            .unwrap();
        db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
            .unwrap();
    }
    db
}

fn options(f: impl FnOnce(&mut OptimizerConfig)) -> QueryOptions {
    let mut cfg = OptimizerConfig::default();
    f(&mut cfg);
    QueryOptions {
        optimizer: Some(cfg),
        ..QueryOptions::default()
    }
}

const JACCARD_JOIN: &str = r#"
    for $t1 in dataset ARevs
    for $t2 in dataset ARevs
    where similarity-jaccard(word-tokens($t1.summary),
                             word-tokens($t2.summary)) >= 0.8
      and $t1.id < $t2.id
    return [ $t1.id, $t2.id ]
"#;

fn pairs(rows: &[Value]) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = rows
        .iter()
        .map(|v| {
            let l = v.as_list().unwrap();
            (l[0].as_i64().unwrap(), l[1].as_i64().unwrap())
        })
        .collect();
    out.sort();
    out
}

/// The brute-force reference answer, computed without the engine.
fn reference_pairs(n: usize, delta: f64) -> Vec<(i64, i64)> {
    let rows = amazon_reviews(n, 99);
    let toks: Vec<(i64, Vec<String>)> = rows
        .iter()
        .map(|r| {
            (
                r.field("id").as_i64().unwrap(),
                asterix_simfn::word_tokens(r.field("summary").as_str().unwrap()),
            )
        })
        .collect();
    let mut out = Vec::new();
    for (i, (ida, ta)) in toks.iter().enumerate() {
        for (idb, tb) in toks.iter().skip(i + 1) {
            // Pairs with no tokens at all are excluded: a prefix join
            // requires at least one shared token, and both the paper's
            // three-stage plan and ours inherit that semantics.
            if ta.is_empty() && tb.is_empty() {
                continue;
            }
            if asterix_simfn::jaccard(ta, tb) >= delta {
                let (x, y) = if ida < idb { (*ida, *idb) } else { (*idb, *ida) };
                out.push((x.min(y), x.max(y)));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[test]
fn three_stage_join_matches_reference() {
    let n = 400;
    let db = build(n, 4, false);
    let r = db.query(JACCARD_JOIN).unwrap();
    assert!(r.plan.used_rule("three-stage-similarity-join"));
    assert_eq!(pairs(&r.rows), reference_pairs(n, 0.8));
}

#[test]
fn index_join_matches_reference() {
    let n = 400;
    let db = build(n, 4, true);
    let r = db.query(JACCARD_JOIN).unwrap();
    assert!(r.plan.used_rule("introduce-index-nested-loop-join"));
    assert_eq!(pairs(&r.rows), reference_pairs(n, 0.8));
}

#[test]
fn surrogate_join_matches_reference() {
    let n = 400;
    let db = build(n, 4, true);
    let r = db
        .query_with(JACCARD_JOIN, &options(|c| c.enable_surrogate = true))
        .unwrap();
    assert!(r.plan.used_rule("introduce-index-nested-loop-join"));
    assert_eq!(pairs(&r.rows), reference_pairs(n, 0.8));
}

#[test]
fn nested_loop_join_matches_reference() {
    let n = 200; // quadratic: keep small
    let db = build(n, 4, false);
    let r = db
        .query_with(
            JACCARD_JOIN,
            &options(|c| {
                c.enable_index_join = false;
                c.enable_three_stage = false;
            }),
        )
        .unwrap();
    assert!(r.plan.rewrites.iter().all(|(n, _)| *n != "three-stage-similarity-join"));
    assert_eq!(pairs(&r.rows), reference_pairs(n, 0.8));
}

#[test]
fn answers_stable_across_partition_counts() {
    let n = 300;
    let reference = reference_pairs(n, 0.8);
    for partitions in [1, 2, 4, 8] {
        let db = build(n, partitions, false);
        let r = db.query(JACCARD_JOIN).unwrap();
        assert_eq!(pairs(&r.rows), reference, "partitions={partitions}");
    }
}

#[test]
fn subplan_reuse_does_not_change_answers() {
    let n = 300;
    let db = build(n, 2, false);
    let with = db
        .query_with(JACCARD_JOIN, &options(|c| c.enable_subplan_reuse = true))
        .unwrap();
    let without = db
        .query_with(JACCARD_JOIN, &options(|c| c.enable_subplan_reuse = false))
        .unwrap();
    assert_eq!(pairs(&with.rows), pairs(&without.rows));
    // Reuse shrinks the physical job: fewer dataset scans.
    let scans = |r: &asterix_core::QueryResult| {
        r.plan
            .physical_ops
            .iter()
            .find(|(n, _)| *n == "dataset-scan")
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    assert!(scans(&with) < scans(&without), "{} vs {}", scans(&with), scans(&without));
}

#[test]
fn pk_sorting_toggle_does_not_change_answers() {
    let db = build(300, 4, true);
    let q = r#"
        for $t in dataset ARevs
        where similarity-jaccard(word-tokens($t.summary),
                                 word-tokens('great product value')) >= 0.5
        return $t.id
    "#;
    let sorted = db.query_with(q, &options(|c| c.sort_pks = true)).unwrap();
    let unsorted = db.query_with(q, &options(|c| c.sort_pks = false)).unwrap();
    assert_eq!(sorted.ids(), unsorted.ids());
}

#[test]
fn edit_distance_join_strategies_agree() {
    let n = 250;
    let db = build(n, 4, true);
    let q = r#"
        for $t1 in dataset ARevs
        for $t2 in dataset ARevs
        where edit-distance($t1.reviewerName, $t2.reviewerName) <= 1
          and $t1.id < $t2.id
        return [ $t1.id, $t2.id ]
    "#;
    let indexed = db.query(q).unwrap();
    assert!(indexed.plan.used_rule("introduce-index-nested-loop-join"));
    let nl = db
        .query_with(q, &options(|c| c.enable_index_join = false))
        .unwrap();
    assert_eq!(pairs(&indexed.rows), pairs(&nl.rows));
    assert!(!pairs(&indexed.rows).is_empty(), "datagen must produce near names");
}

// ---- Build before probe ------------------------------------------------
//
// The executor never runs the probe side of a nested-loop join behind an
// empty build side (the Fig 14 and three-stage corner branches). These
// check that the skipped work was dead: answers match brute force, on a
// 1-worker pool and on the default 8-worker one.

const RECORDS: usize = 600;

/// The reference pool: one worker, so a stage's tasks run one at a time.
fn one_worker() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    }
}

fn indexed_instance(sched: SchedulerConfig) -> Instance {
    let mut cfg = InstanceConfig::with_partitions(2);
    cfg.scheduler = sched;
    let db = Instance::new(cfg);
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(RECORDS, 7)).unwrap();
    db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
        .unwrap();
    db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
        .unwrap();
    db.flush("ARevs").unwrap();
    db
}

/// The operators feeding the probe side (input 1) of a nested-loop join:
/// Fig 14's corner branch.
fn probe_side_ops(profile: &asterix_core::QueryProfile) -> Vec<&asterix_core::OpProfile> {
    profile
        .operators
        .iter()
        .filter(|o| o.name == "nested-loop-join")
        .map(|j| {
            profile
                .operators
                .iter()
                .find(|o| o.id == j.inputs[1])
                .expect("probe input")
        })
        .collect()
}

fn profiled() -> QueryOptions {
    QueryOptions {
        profile: true,
        ..QueryOptions::default()
    }
}

/// The brute-force answer of an outer-window join over `records`.
fn brute_force(
    records: &[Value],
    window: std::ops::Range<i64>,
    keep: impl Fn(&Value, &Value) -> bool,
) -> Vec<(i64, i64)> {
    let id = |r: &Value| r.field_path("id").as_i64().unwrap();
    let mut out = Vec::new();
    for o in records.iter().filter(|r| window.contains(&id(r))) {
        for i in records {
            if keep(o, i) {
                out.push((id(o), id(i)));
            }
        }
    }
    out.sort_unstable();
    out
}

fn text<'a>(r: &'a Value, field: &str) -> &'a str {
    r.field_path(field).as_str().unwrap()
}

fn jaccard_join(lo: i64, hi: i64) -> String {
    format!(
        "for $o in dataset ARevs for $i in dataset ARevs \
         where $o.id >= {lo} and $o.id < {hi} \
           and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.5 \
         return [ $o.id, $i.id ]"
    )
}

fn edit_join(lo: i64, hi: i64) -> String {
    format!(
        "for $o in dataset ARevs for $i in dataset ARevs \
         where $o.id >= {lo} and $o.id < {hi} \
           and edit-distance($o.reviewerName, $i.reviewerName) <= 1 \
         return [ $o.id, $i.id ]"
    )
}

/// With no corner rows in the outer window, the index-NL join's corner
/// branch never scans its inner side: its build side is empty.
#[test]
fn index_join_without_corner_rows_never_scans_the_inner_side() {
    let pooled = indexed_instance(SchedulerConfig::default());
    let one = indexed_instance(one_worker());
    let records = amazon_reviews(RECORDS, 7);
    let (lo, hi) = (30, 40);
    assert!(
        records[lo as usize..hi as usize]
            .iter()
            .all(|r| !asterix_simfn::word_tokens(text(r, "summary")).is_empty()),
        "the window must hold no empty token set"
    );
    let q = jaccard_join(lo, hi);
    let r = pooled.query_with(&q, &profiled()).unwrap();
    let profile = r.profile.as_ref().expect("profile requested");
    let probes = probe_side_ops(profile);
    assert_eq!(probes.len(), 1, "one corner branch");
    let inner = probes[0];
    assert_eq!(inner.name, "dataset-scan");
    assert_eq!((inner.input_tuples, inner.output_tuples), (0, 0));
    assert!(inner.partition_times.is_empty(), "the inner scan ran: {inner:?}");
    // The ranged outer scan read only the window.
    let scanned: u64 = profile
        .operators
        .iter()
        .filter(|o| o.name == "dataset-scan")
        .map(|o| o.output_tuples)
        .sum();
    assert_eq!(scanned, (hi - lo) as u64);

    let expected = brute_force(&records, lo..hi, |o, i| {
        asterix_simfn::jaccard(
            &asterix_simfn::word_tokens(text(o, "summary")),
            &asterix_simfn::word_tokens(text(i, "summary")),
        ) >= 0.5
    });
    assert_eq!(pairs(&r.rows), expected);
    assert_eq!(pairs(&one.query(&q).unwrap().rows), expected);
}

/// With corner rows in the outer window (an empty token set for
/// Jaccard, a 1-char name for edit distance with k = 1) the corner
/// branch runs, and 1 and 8 workers agree with brute force.
#[test]
fn index_join_corner_rows_match_across_pool_sizes_and_brute_force() {
    let pooled = indexed_instance(SchedulerConfig::default());
    let one = indexed_instance(one_worker());
    let mut records = amazon_reviews(RECORDS, 7);
    // Two corner rows inside the window, one empty-summary row outside.
    for (id, name, summary) in [(52i64, "a", ""), (55, "b", "!!"), (400, "c", "")] {
        let rec = asterix_adm::record! {
            "id" => id, "reviewerName" => name, "summary" => summary, "score" => 3i64
        };
        records[id as usize] = rec.clone();
        pooled.insert("ARevs", rec.clone()).unwrap();
        one.insert("ARevs", rec).unwrap();
    }
    let (lo, hi) = (50, 60);
    let jaccard = brute_force(&records, lo..hi, |o, i| {
        asterix_simfn::jaccard(
            &asterix_simfn::word_tokens(text(o, "summary")),
            &asterix_simfn::word_tokens(text(i, "summary")),
        ) >= 0.5
    });
    let edit = brute_force(&records, lo..hi, |o, i| {
        asterix_simfn::edit_distance(text(o, "reviewerName"), text(i, "reviewerName")) <= 1
    });
    assert!(jaccard.contains(&(52, 400)) && jaccard.contains(&(55, 52)));
    for (q, expected) in [(jaccard_join(lo, hi), jaccard), (edit_join(lo, hi), edit)] {
        let r = pooled.query_with(&q, &profiled()).unwrap();
        let probes = probe_side_ops(r.profile.as_ref().unwrap());
        assert_eq!(probes.len(), 1, "{q}");
        assert_eq!(probes[0].output_tuples, RECORDS as u64, "{q}: the inner scan must run");
        assert_eq!(pairs(&r.rows), expected, "{q}");
        assert_eq!(pairs(&one.query(&q).unwrap().rows), expected, "{q}");
    }
}

/// The three-stage join's corner branch re-tokenises the inner side for
/// a nested-loop join against the outer empty-token rows. With none, the
/// re-tokenising select never runs. (The outer key window keeps the two
/// corner selects apart; without it Fig 20 reuse makes them one
/// operator, which is then the build side itself.)
#[test]
fn three_stage_join_without_empty_token_sets_skips_its_corner_select() {
    let run = |sched: SchedulerConfig| {
        let mut cfg = InstanceConfig::with_partitions(2);
        cfg.scheduler = sched;
        let db = Instance::new(cfg);
        db.create_dataset("ARevs", "id").unwrap();
        db.load("ARevs", amazon_reviews(120, 11)).unwrap();
        let q = "for $o in dataset ARevs for $i in dataset ARevs \
                 where $o.id >= 10 and $o.id < 40 \
                   and similarity-jaccard(word-tokens($o.summary), word-tokens($i.summary)) >= 0.5 \
                 return [ $o.id, $i.id ]";
        db.query_with(q, &profiled()).unwrap()
    };
    assert!(amazon_reviews(120, 11)
        .iter()
        .all(|r| !asterix_simfn::word_tokens(text(r, "summary")).is_empty()));
    let pooled = run(SchedulerConfig::default());
    assert!(
        pooled.plan.rewrites.iter().any(|(n, _)| *n == "three-stage-similarity-join"),
        "{:?}",
        pooled.plan.rewrites
    );
    let probes = probe_side_ops(pooled.profile.as_ref().unwrap());
    assert_eq!(probes.len(), 1);
    let corner = probes[0];
    assert_eq!(corner.name, "select");
    assert!(corner.partition_times.is_empty(), "the corner select ran: {corner:?}");
    assert_eq!((corner.input_tuples, corner.output_tuples), (0, 0));
    let records = amazon_reviews(120, 11);
    let expected = brute_force(&records, 10..40, |o, i| {
        asterix_simfn::jaccard(
            &asterix_simfn::word_tokens(text(o, "summary")),
            &asterix_simfn::word_tokens(text(i, "summary")),
        ) >= 0.5
    });
    assert!(!expected.is_empty());
    assert_eq!(pairs(&pooled.rows), expected);
    assert_eq!(pairs(&run(one_worker()).rows), expected);
}
