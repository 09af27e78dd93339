//! Plan-level integration tests: the rewrites of §5 produce the plan
//! shapes of Figs 7, 10, 14, 15, 19, 20, and the textual AQL+ template
//! (§5.2) instantiates to an executable plan equivalent to the typed
//! rewrite.

use asterix_adm::IndexKind;
use asterix_algebricks::plan::build;
use asterix_algebricks::{generate_job, OptimizerConfig, VarGen};
use asterix_aql::aqlplus::{instantiate_three_stage_text, ThreeStageTextBindings};
use asterix_core::{Instance, InstanceConfig, QueryOptions};
use asterix_datagen::amazon_reviews;

fn db_with_indexes(n: usize) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(n, 123)).unwrap();
    db.create_index("ARevs", "smix", "summary", IndexKind::Keyword)
        .unwrap();
    db.create_index("ARevs", "nix", "reviewerName", IndexKind::NGram(2))
        .unwrap();
    db
}

#[test]
fn fig7_selection_plan_shape() {
    let db = db_with_indexes(50);
    let info = db
        .explain(
            r#"
        for $t in dataset ARevs
        where similarity-jaccard(word-tokens($t.summary),
                                 word-tokens('great product')) >= 0.5
        return $t.id
    "#,
        )
        .unwrap();
    // Index-based plan: secondary search → local pk sort → primary lookup
    // → verification select.
    let e = &info.explain;
    assert!(e.contains("index-search ARevs.smix"), "{e}");
    assert!(e.contains("order (local)"), "{e}");
    assert!(e.contains("primary-lookup ARevs"), "{e}");
    let search_pos = e.find("index-search").unwrap();
    let lookup_pos = e.find("primary-lookup").unwrap();
    let select_pos = e.find("select").unwrap();
    assert!(select_pos < lookup_pos && lookup_pos < search_pos,
        "verification above lookup above search (printed root-first): {e}");
}

#[test]
fn fig14_edit_distance_join_has_split_and_union() {
    let db = db_with_indexes(50);
    let info = db
        .explain(
            r#"
        for $a in dataset ARevs
        for $b in dataset ARevs
        where edit-distance($a.reviewerName, $b.reviewerName) <= 1
        return [ $a.id, $b.id ]
    "#,
        )
        .unwrap();
    let e = &info.explain;
    assert!(e.contains("union-all"), "{e}");
    assert!(e.contains("edit-distance-can-use-index"), "{e}");
    assert!(e.contains("join[BroadcastLeftNl]"), "{e}");
    // The keyed outer stream is shared between the two paths (replicate).
    assert!(e.contains("(reused)"), "{e}");
}

#[test]
fn fig15_operator_counts_nested_loop_vs_three_stage() {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(20, 1)).unwrap();
    let q = r#"
        for $a in dataset ARevs
        for $b in dataset ARevs
        where similarity-jaccard(word-tokens($a.summary),
                                 word-tokens($b.summary)) >= 0.5
        return [ $a.id, $b.id ]
    "#;
    // Nested-loop plan (three-stage disabled).
    let nl = db
        .query_with(
            q,
            &QueryOptions {
                optimizer: Some(OptimizerConfig {
                    enable_three_stage: false,
                    enable_index_join: false,
                    ..OptimizerConfig::default()
                }),
                ..QueryOptions::default()
            },
        )
        .unwrap();
    let three = db.query(q).unwrap();
    let nl_total = nl.plan.total_logical_ops_after();
    let ts_total = three.plan.total_logical_ops_after();
    // Fig 15: 6 operators for the NL plan vs 77 for the three-stage plan.
    // Our shapes: a handful vs dozens.
    assert!(nl_total <= 8, "nested-loop plan small, got {nl_total}");
    assert!(ts_total >= 25, "three-stage plan large, got {ts_total}");
    assert!(ts_total >= 3 * nl_total);
    // And the answers agree.
    assert_eq!(nl.rows.len(), three.rows.len());
}

#[test]
fn fig19_surrogate_plan_keeps_top_level_hash_join() {
    let db = db_with_indexes(50);
    let q = r#"
        for $a in dataset ARevs
        for $b in dataset ARevs
        where similarity-jaccard(word-tokens($a.summary),
                                 word-tokens($b.summary)) >= 0.8
        return [ $a.id, $b.id ]
    "#;
    let r = db
        .query_with(
            q,
            &QueryOptions {
                optimizer: Some(OptimizerConfig {
                    enable_surrogate: true,
                    ..OptimizerConfig::default()
                }),
                ..QueryOptions::default()
            },
        )
        .unwrap();
    // Surrogate resolution join on top (hash join present beyond the
    // prefix joins).
    assert!(r.plan.used_rule("introduce-index-nested-loop-join"));
    assert!(
        r.plan.physical_ops.iter().any(|(n, c)| *n == "hash-join" && *c >= 1),
        "{:?}",
        r.plan.physical_ops
    );
    assert!(r.plan.explain.contains("@shared-"), "{}", r.plan.explain);
}

#[test]
fn fig20_reuse_merges_identical_scans() {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(30, 9)).unwrap();
    let q = r#"
        for $a in dataset ARevs
        for $b in dataset ARevs
        where similarity-jaccard(word-tokens($a.summary),
                                 word-tokens($b.summary)) >= 0.5
        return [ $a.id, $b.id ]
    "#;
    let r = db.query(q).unwrap();
    // A three-stage self join touches the dataset in stages 1, 2, and 3 —
    // but reuse means a single physical scan (Fig 20).
    let scans = r
        .plan
        .physical_ops
        .iter()
        .find(|(n, _)| *n == "dataset-scan")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    assert_eq!(scans, 1, "{:?}", r.plan.physical_ops);
}

#[test]
fn aqlplus_textual_template_executes_like_typed_rule() {
    // The paper's two-step rewrite (Fig 16): textual AQL+ template →
    // parse → translate → plan. Run it and compare answers with the typed
    // rule's plan on the same instance.
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(200, 31)).unwrap();

    // Typed path (the engine's rule).
    let typed = db
        .query(
            r#"
        for $a in dataset ARevs
        for $b in dataset ARevs
        where similarity-jaccard(word-tokens($a.summary),
                                 word-tokens($b.summary)) >= 0.8
          and $a.id < $b.id
        return [ $a.id, $b.id ]
    "#,
        )
        .unwrap();
    assert!(typed.plan.used_rule("three-stage-similarity-join"));
    let mut typed_pairs: Vec<(i64, i64)> = typed
        .rows
        .iter()
        .map(|v| {
            let l = v.as_list().unwrap();
            (l[0].as_i64().unwrap(), l[1].as_i64().unwrap())
        })
        .collect();
    typed_pairs.sort();

    // Textual path: instantiate the AQL+ template against two fresh scan
    // branches and execute the resulting job directly.
    let vg = VarGen::new();
    let (left, lpk, lrec) = build::scan("ARevs", &vg);
    let (right, rpk, rrec) = build::scan("ARevs", &vg);
    let plan = instantiate_three_stage_text(
        &ThreeStageTextBindings {
            left,
            right,
            left_pk: lpk,
            left_rec: lrec,
            right_pk: rpk,
            right_rec: rrec,
            field: "summary".into(),
            threshold: 0.8,
        },
        &vg,
    )
    .expect("textual instantiation");
    // Normalize (select-into-join etc.) and generate the job.
    let catalog = db.catalog();
    let registry = asterix_simfn::FunctionRegistry::with_builtins();
    let cfg = OptimizerConfig {
        // The template IS the three-stage plan; only normalization needed.
        enable_three_stage: false,
        enable_index_join: false,
        enable_index_select: false,
        ..OptimizerConfig::default()
    };
    let (optimized, _) = asterix_algebricks::optimize(&plan, &catalog, &registry, &cfg, &vg);
    let job = generate_job(&optimized, true).expect("jobgen");
    let pool = db.scheduler().expect("every instance has a scheduler").pool();
    let (rows, _) = asterix_hyracks::run_job(&job, db.cluster(), pool).expect("run");
    let mut text_pairs: Vec<(i64, i64)> = rows
        .iter()
        .map(|t| {
            let rec = &t[0];
            (
                rec.field("left").field("id").as_i64().unwrap(),
                rec.field("right").field("id").as_i64().unwrap(),
            )
        })
        .collect();
    text_pairs.sort();
    text_pairs.dedup();
    assert_eq!(text_pairs, typed_pairs, "textual AQL+ ≡ typed template");
    assert!(!text_pairs.is_empty(), "expect some similar pairs at n=200");
}

#[test]
fn fig12_two_phase_aggregation_in_three_stage_job() {
    // Fig 12's stage 1: "Hash Group (Token) Local" → "Hash repartition" →
    // "Hash Group (Token)". The job generator lowers decomposable
    // group-bys into exactly that local+global pair.
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(50, 3)).unwrap();
    let r = db
        .query(
            r#"
        for $a in dataset ARevs
        for $b in dataset ARevs
        where similarity-jaccard(word-tokens($a.summary),
                                 word-tokens($b.summary)) >= 0.5
          and $a.id < $b.id
        return [ $a.id, $b.id ]
    "#,
        )
        .unwrap();
    assert!(r.plan.used_rule("three-stage-similarity-join"));
    let group_ops = r
        .plan
        .physical_ops
        .iter()
        .find(|(n, _)| *n == "hash-group-by")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    // Token counting lowers to local+global; the collect/dedup group-bys
    // stay single-phase. At least one extra op proves the split happened.
    assert!(group_ops >= 4, "{:?}", r.plan.physical_ops);

    // And the two-phase lowering changes no answers for an aggregation
    // query.
    let counted = db
        .query(
            r#"
        count( for $t in dataset ARevs
               for $tok in word-tokens($t.summary)
               group by $g := $tok with $t
               return $g );
    "#,
        )
        .unwrap();
    // Distinct tokens across all summaries:
    let direct = db
        .query("for $t in dataset ARevs return $t.summary")
        .unwrap();
    let mut tokens: Vec<String> = direct
        .rows
        .iter()
        .filter_map(|v| v.as_str())
        .flat_map(asterix_simfn::word_tokens)
        .collect();
    tokens.sort();
    tokens.dedup();
    assert_eq!(counted.count(), Some(tokens.len() as i64));
}

#[test]
fn sim_operator_follows_set_statements_for_both_measures() {
    let db = db_with_indexes(60);
    let jac = db
        .explain(
            r#"
        set simfunction 'jaccard';
        set simthreshold '0.8';
        for $t in dataset ARevs
        where word-tokens($t.summary) ~= word-tokens('great product')
        return $t.id
    "#,
        )
        .unwrap();
    assert!(jac.explain.contains("Jaccard { delta: 0.8 }"), "{}", jac.explain);
    let ed = db
        .explain(
            r#"
        set simfunction 'edit-distance';
        set simthreshold '1';
        for $t in dataset ARevs
        where $t.reviewerName ~= 'marla'
        return $t.id
    "#,
        )
        .unwrap();
    assert!(
        ed.explain.contains("EditDistance { k: 1 }") || ed.explain.contains("edit-distance"),
        "{}",
        ed.explain
    );
}

/// Sorted `(o, i)` pairs of a join returning `{"o": .., "i": ..}`.
fn join_pairs(rows: &[asterix_adm::Value]) -> Vec<(i64, i64)> {
    let mut pairs: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| {
            let id = |f: &str| r.field_path(f).as_i64().expect("integer id");
            (id("o"), id("i"))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

fn scan_count(plan: &asterix_core::PlanInfo) -> usize {
    plan.physical_ops
        .iter()
        .find(|(n, _)| *n == "dataset-scan")
        .map_or(0, |(_, c)| *c)
}

/// Fig 10/14 with a primary-key window on the outer side: the outer
/// scan reads only the window, and the corner branch's inner scan stays a
/// full scan of its own, so Fig 20 reuse must not merge the two.
#[test]
fn index_join_outer_scan_is_key_ranged_and_inner_scan_stays_full() {
    let n = 60;
    let db = db_with_indexes(n);
    let q = r#"
        for $o in dataset ARevs
        for $i in dataset ARevs
        where $o.id >= 10 and $o.id < 15
          and similarity-jaccard(word-tokens($o.summary),
                                 word-tokens($i.summary)) >= 0.5
        return {"o": $o.id, "i": $i.id}
    "#;
    let r = db.query(q).unwrap();
    let e = &r.plan.explain;
    let fired = |rule: &str| r.plan.rewrites.iter().any(|(n, _)| *n == rule);
    assert!(fired("introduce-index-nested-loop-join"), "{:?}", r.plan.rewrites);
    assert!(fired("introduce-primary-key-range"), "{:?}", r.plan.rewrites);
    assert!(e.contains("data-scan ARevs key [10, 15) -> "), "{e}");
    assert!(e.contains("data-scan ARevs -> "), "{e}");
    assert_eq!(scan_count(&r.plan), 2, "{:?}", r.plan.physical_ops);

    let recs = amazon_reviews(n, 123);
    let summary = |id: i64| {
        asterix_simfn::word_tokens(recs[id as usize].field_path("summary").as_str().unwrap())
    };
    let mut expected = Vec::new();
    for o in 10..15 {
        for i in 0..n as i64 {
            if asterix_simfn::jaccard(&summary(o), &summary(i)) >= 0.5 {
                expected.push((o, i));
            }
        }
    }
    assert_eq!(join_pairs(&r.rows), expected);
}

/// An un-indexed Jaccard join with the same key window still takes the
/// three-stage plan, and answers as the nested-loop plan does.
#[test]
fn three_stage_join_still_fires_beside_a_key_range() {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(40, 5)).unwrap();
    let q = r#"
        for $o in dataset ARevs
        for $i in dataset ARevs
        where $o.id < 12
          and similarity-jaccard(word-tokens($o.summary),
                                 word-tokens($i.summary)) >= 0.5
        return {"o": $o.id, "i": $i.id}
    "#;
    let r = db.query(q).unwrap();
    assert!(
        r.plan.rewrites.iter().any(|(n, _)| *n == "three-stage-similarity-join"),
        "{:?}",
        r.plan.rewrites
    );
    let nl = db
        .query_with(
            q,
            &QueryOptions {
                optimizer: Some(OptimizerConfig {
                    enable_three_stage: false,
                    ..OptimizerConfig::default()
                }),
                ..QueryOptions::default()
            },
        )
        .unwrap();
    assert!(nl.plan.explain.contains("key (*, 12)"), "{}", nl.plan.explain);
    assert_eq!(join_pairs(&r.rows), join_pairs(&nl.rows));
    assert!(!r.rows.is_empty());
}

/// Each conjunct form the key-range rule reads, printed on the scan.
#[test]
fn key_range_conjunct_forms() {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("ARevs", "id").unwrap();
    db.load("ARevs", amazon_reviews(20, 3)).unwrap();
    let cases: [(&str, Option<&str>, usize); 13] = [
        ("$t.id = 7", Some("[7, 7.0]"), 1),
        ("$t.id < 7", Some("(*, 7)"), 7),
        ("$t.id <= 7", Some("(*, 7.0]"), 8),
        ("$t.id > 7", Some("(7.0, *)"), 12),
        ("$t.id >= 7", Some("[7, *)"), 13),
        ("7 > $t.id", Some("(*, 7)"), 7),
        ("7.0 <= $t.id", Some("[7, *)"), 13),
        ("6.5 < $t.id and $t.id < 9.5", Some("(6.5, 9.5)"), 3),
        ("$t.id >= 3 and $t.id >= 5 and $t.id > 4", Some("[5, *)"), 15),
        ("$t.id >= 9 and $t.id < 5", Some("[9, 5)"), 0),
        ("$t.id >= 'abc'", Some("[\"abc\", *)"), 0),
        ("$t.id >= null", None, 0),
        ("$t.id != 7", None, 19),
    ];
    for (cond, range, rows) in cases {
        let q = format!("for $t in dataset ARevs where {cond} return $t.id");
        let r = db.query(&q).unwrap();
        let e = &r.plan.explain;
        match range {
            Some(range) => assert!(e.contains(&format!("data-scan ARevs key {range} ->")), "{cond}: {e}"),
            None => assert!(e.contains("data-scan ARevs ->"), "{cond}: {e}"),
        }
        // The select stays above the scan.
        assert!(e.contains("select"), "{cond}: {e}");
        assert_eq!(r.rows.len(), rows, "{cond}");
    }
}

mod key_range_props {
    use asterix_adm::{record, Value};
    use asterix_core::{Instance, InstanceConfig};
    use proptest::prelude::*;

    /// Keys drawn so that `n`, `n.0` and `n + 0.5` all occur.
    fn key_strategy() -> impl Strategy<Value = Value> {
        (0i64..12, 0u8..3).prop_map(|(n, kind)| match kind {
            0 => Value::Int64(n),
            1 => Value::double(n as f64),
            _ => Value::double(n as f64 + 0.5),
        })
    }

    fn literal(v: &Value) -> String {
        match v {
            Value::Double(d) => format!("{:?}", d.0),
            other => other.to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A key-ranged scan keeps exactly the rows the predicate keeps
        /// under query semantics (numbers compare as `f64`), over keys in
        /// flushed and memory components alike.
        #[test]
        fn ranged_scan_matches_brute_force(
            keys in prop::collection::vec(key_strategy(), 1..30),
            flushed in 0usize..30,
            lo in key_strategy(),
            hi in key_strategy(),
            lo_op in prop::sample::select(vec![">", ">=", "="]),
            hi_op in prop::sample::select(vec!["<", "<="]),
        ) {
            let db = Instance::new(InstanceConfig::tiny(2));
            db.create_dataset("D", "id").unwrap();
            let mut keys = keys;
            keys.sort();
            keys.dedup();
            for (i, k) in keys.iter().enumerate() {
                if i == flushed {
                    db.flush("D").unwrap();
                }
                db.insert("D", record! {"id" => k.clone()}).unwrap();
            }
            let q = format!(
                "for $t in dataset D where $t.id {lo_op} {} and $t.id {hi_op} {} return $t.id",
                literal(&lo),
                literal(&hi)
            );
            let r = db.query(&q).unwrap();
            prop_assert!(r.plan.explain.contains("data-scan D key "), "{}", r.plan.explain);
            let passes = |k: &Value, op: &str, c: &Value| {
                let (k, c) = (k.as_f64().unwrap(), c.as_f64().unwrap());
                match op {
                    ">" => k > c,
                    ">=" => k >= c,
                    "=" => k == c,
                    "<" => k < c,
                    _ => k <= c,
                }
            };
            let mut expected: Vec<String> = keys
                .iter()
                .filter(|k| passes(k, lo_op, &lo) && passes(k, hi_op, &hi))
                .map(|k| format!("{k:?}"))
                .collect();
            expected.sort();
            let mut got: Vec<String> = r.rows.iter().map(|k| format!("{k:?}")).collect();
            got.sort();
            prop_assert_eq!(got, expected, "{}", q);
        }
    }
}
