//! Batched execution must be invisible: for any dataset and any plan, the
//! batch-at-a-time path (`Frame::Batch` + vectorized verify kernels) and
//! the row-at-a-time seed path (`JobOptions::disable_batching`) produce
//! identical result sets. These property tests drive the plan shapes the
//! paper's workload uses — full scans with a verify select,
//! index-accelerated selections, index nested-loop joins, and the
//! three-stage join's unnest / hash-join / hash-group-by / stream-pos
//! operators — over randomized datasets, plus a corpus of malformed plans
//! that must fail with typed operator errors instead of panicking.

use asterix_adm::{DatasetDef, IndexDef, IndexKind, Value};
use asterix_hyracks::{
    run_job_with, AggSpec, ClusterContext, CmpOp, ConnectorKind, ExecError, Expr, JobOptions,
    JobSpec, OpId, PhysicalOp, SearchMeasure, SortKey, Tuple,
};
use asterix_simfn::FunctionRegistry;
use asterix_storage::{BufferCache, Disk, PartitionStore, StorageConfig};
use proptest::prelude::*;
use std::sync::Arc;

const NAMES: &[&str] = &[
    "james", "jamie", "jame", "mario", "maria", "marla", "mary", "marian", "anna", "anne", "bob",
];
const WORDS: &[&str] = &[
    "great", "product", "fantastic", "gift", "movie", "heart", "car", "charger", "best", "good",
    "different", "usual", "expected", "better", "ever", "idea",
];

fn cluster(partitions: usize, rows: &[(i64, String, String)]) -> ClusterContext {
    let ctx = ClusterContext::new(partitions, FunctionRegistry::with_builtins());
    let def = DatasetDef::new("ARevs", "id");
    for (pidx, pset) in ctx.partitions.iter().enumerate() {
        let cache = Arc::new(BufferCache::new(Arc::new(Disk::new()), 64));
        let mut store = PartitionStore::new(def.clone(), pidx, cache, StorageConfig::tiny());
        store
            .create_index(&IndexDef {
                name: "smix".into(),
                field: "summary".into(),
                kind: IndexKind::Keyword,
            })
            .unwrap();
        store
            .create_index(&IndexDef {
                name: "nix".into(),
                field: "name".into(),
                kind: IndexKind::NGram(2),
            })
            .unwrap();
        for (id, name, summary) in rows {
            if def.partition_of(&Value::Int64(*id), partitions) == pidx {
                store.insert(row_record(*id, name, summary)).unwrap();
            }
        }
        pset.write().insert_store(store);
    }
    ctx
}

/// One dataset record. Besides `name` and `summary`, the derived fields
/// vary in type from row to row, as the three-stage join operators must
/// tolerate: `tags` is a list, an unordered list, a string or absent;
/// `score` is an `Int64`, an integral `Double` (equal to, and hashing
/// like, the `Int64`), `Null` or absent; `w` is an `Int64`, a fractional
/// `Double` or `Null`.
fn row_record(id: i64, name: &str, summary: &str) -> Value {
    let mut fields = vec![
        ("id".to_string(), Value::Int64(id)),
        ("name".to_string(), Value::from(name)),
        ("summary".to_string(), Value::from(summary)),
    ];
    let words: Vec<Value> = summary.split(' ').take(3).map(Value::from).collect();
    match id % 4 {
        0 => {}
        1 => fields.push(("tags".into(), Value::OrderedList(words))),
        2 => fields.push(("tags".into(), Value::from(name))),
        _ => fields.push(("tags".into(), Value::unordered_list(words))),
    }
    match id % 5 {
        0 => fields.push(("score".into(), Value::Null)),
        4 => {}
        _ if id % 2 == 0 => fields.push(("score".into(), Value::Int64(id % 3))),
        _ => fields.push(("score".into(), Value::double((id % 3) as f64))),
    }
    let w = match id % 7 {
        0 => Value::Null,
        _ if id % 2 == 0 => Value::Int64(id),
        _ => Value::double(id as f64 * 0.5),
    };
    fields.push(("w".into(), w));
    Value::record(fields)
}

/// Run `job` twice — batched and row-at-a-time — and require identical
/// result multisets (order within a partition gather is not guaranteed
/// for every plan, so compare sorted).
fn assert_parity(job: &JobSpec, ctx: &ClusterContext) {
    let batched = run_job_with(
        job,
        ctx,
        &JobOptions {
            disable_batching: false,
            ..JobOptions::default()
        },
    )
    .expect("batched run failed");
    let row = run_job_with(
        job,
        ctx,
        &JobOptions {
            disable_batching: true,
            ..JobOptions::default()
        },
    )
    .expect("row run failed");
    let key = |t: &Tuple| format!("{t:?}");
    let mut b: Vec<String> = batched.0.iter().map(key).collect();
    let mut r: Vec<String> = row.0.iter().map(key).collect();
    b.sort();
    r.sort();
    assert_eq!(b, r, "batched and row results diverged");
    // The row run must not have produced any batch frames; the batched
    // run of scan-rooted plans must have produced at least one.
    let row_batch_frames: u64 = row
        .1
        .per_op
        .values()
        .map(|s| s.batch_frames_emitted)
        .sum();
    assert_eq!(row_batch_frames, 0, "disable_batching still sent batches");
}

fn rows_strategy(max_rows: usize) -> impl Strategy<Value = Vec<(i64, String, String)>> {
    let row = (
        prop::sample::select(NAMES.to_vec()).prop_map(str::to_string),
        prop::collection::vec(prop::sample::select(WORDS.to_vec()).prop_map(str::to_string), 1..6)
            .prop_map(|ws| ws.join(" ")),
    );
    prop::collection::vec(row, 1..=max_rows).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (name, summary))| (i as i64 + 1, name, summary))
            .collect()
    })
}

fn scan_select_job(predicate: Expr) -> JobSpec {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let select = job.add(PhysicalOp::Select { predicate });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, select);
    job.connect(select, sink, 0, ConnectorKind::ToOne);
    job
}

fn index_select_job(query: &str, measure: SearchMeasure, verify: Expr) -> JobSpec {
    let mut job = JobSpec::new();
    let (_, assign) =
        asterix_hyracks::job::constant_source(&mut job, vec![Value::from(query)]);
    let index = match measure {
        SearchMeasure::EditDistance { .. } => "nix",
        _ => "smix",
    };
    let search = job.add(PhysicalOp::SecondaryIndexSearch {
        dataset: "ARevs".into(),
        index: index.into(),
        key_col: 0,
        measure,
        pre_tokens: None,
    });
    let lookup = job.add(PhysicalOp::PrimaryIndexLookup {
        dataset: "ARevs".into(),
        pk_col: 1,
    });
    let sel = job.add(PhysicalOp::Select { predicate: verify });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(assign, search, 0, ConnectorKind::Broadcast);
    job.pipe(search, lookup);
    job.pipe(lookup, sel);
    job.connect(sel, sink, 0, ConnectorKind::ToOne);
    job
}

/// Index nested-loop self-join: scan ++ assign key ++ index search ++
/// primary lookup ++ verify. Output column layout:
/// `[outer pk, outer rec, key, candidate pk, inner rec]`.
fn index_join_job(field: &str, measure: SearchMeasure, verify: Expr) -> JobSpec {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let assign = job.add(PhysicalOp::Assign {
        exprs: vec![Expr::col(1).field(field)],
    });
    let index = match measure {
        SearchMeasure::EditDistance { .. } => "nix",
        _ => "smix",
    };
    let search = job.add(PhysicalOp::SecondaryIndexSearch {
        dataset: "ARevs".into(),
        index: index.into(),
        key_col: 2,
        measure,
        pre_tokens: None,
    });
    let lookup = job.add(PhysicalOp::PrimaryIndexLookup {
        dataset: "ARevs".into(),
        pk_col: 3,
    });
    let sel = job.add(PhysicalOp::Select { predicate: verify });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, assign);
    job.connect(assign, search, 0, ConnectorKind::Broadcast);
    job.pipe(search, lookup);
    job.pipe(lookup, sel);
    job.connect(sel, sink, 0, ConnectorKind::ToOne);
    job
}

fn jaccard_verify(a: Expr, b: Expr, delta: f64) -> Expr {
    Expr::cmp(
        CmpOp::Ge,
        Expr::call(
            "similarity-jaccard",
            vec![
                Expr::call("word-tokens", vec![a]),
                Expr::call("word-tokens", vec![b]),
            ],
        ),
        Expr::lit(delta),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scan_select_batched_equals_row(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        delta in prop::sample::select(vec![0.3f64, 0.5, 0.8]),
        k in 0i64..=3,
        pick in 0usize..4,
    ) {
        let ctx = cluster(partitions, &rows);
        let predicate = match pick {
            0 => jaccard_verify(
                Expr::col(1).field("summary"),
                Expr::lit("great product gift"),
                delta,
            ),
            1 => Expr::cmp(
                CmpOp::Le,
                Expr::call(
                    "edit-distance",
                    vec![Expr::col(1).field("name"), Expr::lit("maria")],
                ),
                Expr::lit(k),
            ),
            2 => Expr::call(
                "edit-distance-check",
                vec![Expr::col(1).field("name"), Expr::lit("james"), Expr::lit(k)],
            ),
            // A shape the kernel does not compile (unknown field → NULL
            // semantics in the interpreter) to pin the fallback path.
            _ => jaccard_verify(
                Expr::col(1).field("nosuch"),
                Expr::lit("great product"),
                delta,
            ),
        };
        assert_parity(&scan_select_job(predicate), &ctx);
    }

    #[test]
    fn index_select_batched_equals_row(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        use_ed in any::<bool>(),
        delta in prop::sample::select(vec![0.3f64, 0.5, 0.8]),
        k in 0i64..=2,
    ) {
        let ctx = cluster(partitions, &rows);
        let job = if use_ed {
            index_select_job(
                "marla",
                SearchMeasure::EditDistance { k: k as u32 },
                Expr::call(
                    "edit-distance-check",
                    vec![Expr::col(0), Expr::col(2).field("name"), Expr::lit(k)],
                ),
            )
        } else {
            index_select_job(
                "great product fantastic gift",
                SearchMeasure::Jaccard { delta },
                jaccard_verify(Expr::col(0), Expr::col(2).field("summary"), delta),
            )
        };
        assert_parity(&job, &ctx);
    }

    #[test]
    fn index_join_batched_equals_row(
        rows in rows_strategy(10),
        partitions in 1usize..=2,
        use_ed in any::<bool>(),
        delta in prop::sample::select(vec![0.5f64, 0.8]),
        k in 0i64..=2,
    ) {
        let ctx = cluster(partitions, &rows);
        let job = if use_ed {
            index_join_job(
                "name",
                SearchMeasure::EditDistance { k: k as u32 },
                Expr::call(
                    "edit-distance-check",
                    vec![Expr::col(2), Expr::col(4).field("name"), Expr::lit(k)],
                ),
            )
        } else {
            index_join_job(
                "summary",
                SearchMeasure::Jaccard { delta },
                jaccard_verify(Expr::col(2), Expr::col(4).field("summary"), delta),
            )
        };
        assert_parity(&job, &ctx);
    }
}

/// `scan → assign(exprs)`: `[pk, rec, exprs...]`.
fn scan_assign(job: &mut JobSpec, exprs: Vec<Expr>) -> OpId {
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let assign = job.add(PhysicalOp::Assign { exprs });
    job.pipe(scan, assign);
    assign
}

/// `scan → unnest(expr) → sink`, optionally through a hash connector on
/// the unnested item.
fn unnest_job(expr: Expr, with_pos: bool, rehash: bool) -> JobSpec {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let unnest = job.add(PhysicalOp::Unnest { expr, with_pos });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, unnest);
    if rehash {
        let project = job.add(PhysicalOp::Project {
            cols: if with_pos { vec![2, 3, 0] } else { vec![2, 0] },
        });
        job.connect(unnest, project, 0, ConnectorKind::Hash(vec![2]));
        job.connect(project, sink, 0, ConnectorKind::ToOne);
    } else {
        job.connect(unnest, sink, 0, ConnectorKind::ToOne);
    }
    job
}

/// Self hash join on record fields: each side is `[pk, rec, keys...]`,
/// hash-partitioned on its key columns.
fn hash_join_job(fields: &[&str]) -> JobSpec {
    let mut job = JobSpec::new();
    let exprs: Vec<Expr> = fields.iter().map(|f| Expr::col(1).field(*f)).collect();
    let keys: Vec<usize> = (2..2 + fields.len()).collect();
    let left = scan_assign(&mut job, exprs.clone());
    let right = scan_assign(&mut job, exprs);
    let join = job.add(PhysicalOp::HashJoin {
        left_keys: keys.clone(),
        right_keys: keys.clone(),
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(left, join, 0, ConnectorKind::Hash(keys.clone()));
    job.connect(right, join, 1, ConnectorKind::Hash(keys));
    job.connect(join, sink, 0, ConnectorKind::ToOne);
    job
}

/// `scan → assign [score, w, name, tags] → hash(keys) → group-by → sink`.
fn group_by_job(keys: Vec<usize>, aggs: Vec<AggSpec>) -> JobSpec {
    let mut job = JobSpec::new();
    let assign = scan_assign(
        &mut job,
        ["score", "w", "name", "tags"]
            .iter()
            .map(|f| Expr::col(1).field(*f))
            .collect(),
    );
    let group = job.add(PhysicalOp::HashGroupBy {
        keys: keys.clone(),
        aggs,
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(assign, group, 0, ConnectorKind::Hash(keys));
    job.connect(group, sink, 0, ConnectorKind::ToOne);
    job
}

/// Fig 12 stage 1, the token ranking: scan → unnest `word-tokens` →
/// hash(token) → group-by count → `ToOne` sort by (count, token) →
/// stream-pos (the rank). Returns the stream-pos operator.
fn token_rank(job: &mut JobSpec) -> OpId {
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let unnest = job.add(PhysicalOp::Unnest {
        expr: Expr::call("word-tokens", vec![Expr::col(1).field("summary")]),
        with_pos: false,
    });
    let group = job.add(PhysicalOp::HashGroupBy {
        keys: vec![2],
        aggs: vec![AggSpec::Count],
    });
    let sort = job.add(PhysicalOp::Sort {
        keys: vec![SortKey::asc(1), SortKey::asc(0)],
    });
    let rank = job.add(PhysicalOp::StreamPos);
    job.pipe(scan, unnest);
    job.connect(unnest, group, 0, ConnectorKind::Hash(vec![2]));
    job.connect(group, sort, 0, ConnectorKind::ToOne);
    job.pipe(sort, rank);
    rank
}

fn token_rank_job() -> JobSpec {
    let mut job = JobSpec::new();
    let rank = token_rank(&mut job);
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(rank, sink, 0, ConnectorKind::ToOne);
    job
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn unnest_batched_equals_row(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        with_pos in any::<bool>(),
        rehash in any::<bool>(),
        pick in 0usize..3,
    ) {
        let ctx = cluster(partitions, &rows);
        let expr = match pick {
            0 => Expr::call("word-tokens", vec![Expr::col(1).field("summary")]),
            // A list, an unordered list, a string or missing by row.
            1 => Expr::col(1).field("tags"),
            // Never a list.
            _ => Expr::col(1).field("name"),
        };
        assert_parity(&unnest_job(expr, with_pos, rehash), &ctx);
    }

    #[test]
    fn hash_join_batched_equals_row(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        pick in 0usize..4,
    ) {
        let ctx = cluster(partitions, &rows);
        let fields: &[&str] = match pick {
            // Duplicate keys on both sides; Int64(2) meets Double(2.0).
            0 => &["score"],
            1 => &["name"],
            // Two-column keys.
            2 => &["score", "name"],
            // Strings against lists, strings and missing values.
            _ => &["tags"],
        };
        assert_parity(&hash_join_job(fields), &ctx);
    }

    #[test]
    fn hash_group_by_batched_equals_row(
        rows in rows_strategy(16),
        partitions in 1usize..=3,
        key in prop::sample::select(vec![vec![2usize], vec![4], vec![2, 4], vec![]]),
    ) {
        let ctx = cluster(partitions, &rows);
        // Columns: 2 score, 3 w, 4 name, 5 tags. `First` reads a key column
        // (or nothing varying) so arrival order cannot change its answer.
        let aggs = vec![
            AggSpec::Count,
            AggSpec::Sum(3),
            AggSpec::Sum(2),
            AggSpec::Min(3),
            AggSpec::Max(3),
            AggSpec::Min(2),
            AggSpec::Max(5),
            AggSpec::First(key.first().copied().unwrap_or(0)),
            AggSpec::CollectSortedSet(4),
            AggSpec::CollectSortedSet(5),
        ];
        assert_parity(&group_by_job(key, aggs), &ctx);
    }

    #[test]
    fn stream_pos_after_sort_batched_equals_row(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        desc in any::<bool>(),
    ) {
        let ctx = cluster(partitions, &rows);
        let mut job = JobSpec::new();
        let scan = job.add(PhysicalOp::DatasetScan {
            dataset: "ARevs".into(),
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![if desc { SortKey::desc(0) } else { SortKey::asc(0) }],
        });
        let rank = job.add(PhysicalOp::StreamPos);
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, rank);
        job.connect(rank, sink, 0, ConnectorKind::ToOne);
        assert_parity(&job, &ctx);
    }

    #[test]
    fn token_rank_stage_batched_equals_row(
        rows in rows_strategy(16),
        partitions in 1usize..=3,
    ) {
        let ctx = cluster(partitions, &rows);
        assert_parity(&token_rank_job(), &ctx);
    }
}

/// In a batched run the three-stage join operators emit batch frames only:
/// none of them converts its output back to rows.
#[test]
fn three_stage_operators_emit_batches() {
    let rows: Vec<(i64, String, String)> = (1..=40)
        .map(|i| {
            (
                i,
                NAMES[i as usize % NAMES.len()].to_string(),
                format!("{} {}", WORDS[i as usize % WORDS.len()], WORDS[i as usize % 5]),
            )
        })
        .collect();
    let ctx = cluster(2, &rows);
    // The ranks feed a self hash join on the token, as stage 2 joins
    // ranked tokens.
    let mut job = JobSpec::new();
    let rank = token_rank(&mut job);
    let join = job.add(PhysicalOp::HashJoin {
        left_keys: vec![0],
        right_keys: vec![0],
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(rank, join, 0, ConnectorKind::Hash(vec![0]));
    job.connect(rank, join, 1, ConnectorKind::Hash(vec![0]));
    job.connect(join, sink, 0, ConnectorKind::ToOne);
    let (_, stats) = run_job_with(&job, &ctx, &JobOptions::default()).expect("batched run");
    for s in stats.per_op.values() {
        if matches!(s.name, "unnest" | "hash-group-by" | "stream-pos" | "hash-join") {
            assert!(s.output_tuples > 0, "{} emitted nothing", s.name);
            assert_eq!(
                s.frames_emitted, s.batch_frames_emitted,
                "{} emitted row frames",
                s.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed-plan corpus: every shape that used to panic (index/unwrap in
// frame handling) must now surface a typed operator error.
// ---------------------------------------------------------------------------

fn tiny_ctx() -> ClusterContext {
    cluster(
        2,
        &[
            (1, "james".into(), "great product".into()),
            (2, "maria".into(), "best car charger".into()),
        ],
    )
}

fn expect_operator_error(job: &JobSpec, want_op: &str) {
    for disable_batching in [false, true] {
        let err = run_job_with(
            job,
            &tiny_ctx(),
            &JobOptions {
                disable_batching,
                ..JobOptions::default()
            },
        )
        .expect_err("malformed plan must fail");
        match err {
            ExecError::Operator { ref op, .. } => {
                assert!(op.contains(want_op), "wrong operator blamed: {err}")
            }
            other => panic!("expected typed operator error, got {other:?}"),
        }
    }
}

#[test]
fn hash_connector_key_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let sort = job.add(PhysicalOp::Sort {
        keys: vec![SortKey::asc(0)],
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(scan, sort, 0, ConnectorKind::Hash(vec![7]));
    job.connect(sort, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "hash-connector");
}

#[test]
fn project_column_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let project = job.add(PhysicalOp::Project { cols: vec![0, 9] });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, project);
    job.connect(project, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "project");
}

#[test]
fn sort_key_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let sort = job.add(PhysicalOp::Sort {
        keys: vec![SortKey::asc(5)],
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, sort);
    job.connect(sort, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "sort");
}

#[test]
fn group_by_key_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let group = job.add(PhysicalOp::HashGroupBy {
        keys: vec![6],
        aggs: vec![],
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, group);
    job.connect(group, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "hash-group-by");
}

#[test]
fn lookup_pk_column_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let lookup = job.add(PhysicalOp::PrimaryIndexLookup {
        dataset: "ARevs".into(),
        pk_col: 4,
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, lookup);
    job.connect(lookup, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "primary-index-lookup");
}

#[test]
fn search_key_column_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let search = job.add(PhysicalOp::SecondaryIndexSearch {
        dataset: "ARevs".into(),
        index: "smix".into(),
        key_col: 8,
        measure: SearchMeasure::Jaccard { delta: 0.5 },
        pre_tokens: None,
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, search);
    job.connect(search, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "secondary-index-search");
}

#[test]
fn group_by_agg_column_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let group = job.add(PhysicalOp::HashGroupBy {
        keys: vec![0],
        aggs: vec![AggSpec::Count, AggSpec::Sum(9)],
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, group);
    job.connect(group, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "hash-group-by");
}

#[test]
fn hash_join_probe_key_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let left = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let right = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let join = job.add(PhysicalOp::HashJoin {
        left_keys: vec![0],
        right_keys: vec![5],
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(left, join, 0, ConnectorKind::ToOne);
    job.connect(right, join, 1, ConnectorKind::ToOne);
    job.connect(join, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "hash-join");
}

#[test]
fn unnest_expression_column_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
    });
    let unnest = job.add(PhysicalOp::Unnest {
        expr: Expr::call("word-tokens", vec![Expr::col(6)]),
        with_pos: true,
    });
    let sink = job.add(PhysicalOp::ResultSink);
    job.pipe(scan, unnest);
    job.connect(unnest, sink, 0, ConnectorKind::ToOne);
    expect_operator_error(&job, "unnest");
}
