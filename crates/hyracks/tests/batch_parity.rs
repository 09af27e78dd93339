//! Batch execution must equal a row-at-a-time reference: for any dataset
//! and any plan, the batch operators (with their vectorized verify
//! kernels, ranked T-occurrence and sorted multi-gets) return the rows the
//! test computes itself from the input rows, with the interpreter
//! (`Expr::eval`) and plain loops. These property tests drive the plan
//! shapes the paper's workload uses — full scans with a verify select,
//! index-accelerated selections, index nested-loop joins, and the
//! three-stage join's unnest / hash-join / hash-group-by / stream-pos
//! operators — over randomized datasets, plus a corpus of malformed plans
//! that must fail with typed operator errors instead of panicking.

use asterix_adm::{DatasetDef, IndexDef, IndexKind, Value};
use asterix_hyracks::expr::sql_compare;
use asterix_hyracks::{
    run_job_with, AggSpec, ClusterContext, CmpOp, ConnectorKind, ExecError, Expr, FaultMode,
    JobOptions, JobSpec, OpId, PhysicalOp, SearchMeasure, SortKey, Tuple, WorkerPool,
};
use asterix_simfn::{edit_distance_t_bound, jaccard_t_bound, FunctionRegistry};
use asterix_storage::{index_tokens, BufferCache, Disk, PartitionStore, StorageConfig};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;
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

/// The dataset as one partition's scan produces it: `[pk, rec]` in pk
/// order.
fn dataset_rows(rows: &[(i64, String, String)]) -> Vec<Tuple> {
    rows.iter()
        .map(|(id, name, summary)| vec![Value::Int64(*id), row_record(*id, name, summary)])
        .collect()
}

/// The rows `pred` accepts by the interpreter; `Err` when it errors on any.
fn reference_filter(rows: &[Tuple], pred: &Expr) -> Result<Vec<Tuple>, String> {
    let reg = FunctionRegistry::with_builtins();
    let mut out = Vec::new();
    for r in rows {
        if pred.eval(r, &reg)?.is_true() {
            out.push(r.clone());
        }
    }
    Ok(out)
}

/// `build ++ probe` pairs `pred` accepts, in probe order and build order
/// within a probe row — the nested-loop join's contract.
fn reference_nl_join(build: &[Tuple], probe: &[Tuple], pred: &Expr) -> Result<Vec<Tuple>, String> {
    let pairs: Vec<Tuple> = probe
        .iter()
        .flat_map(|p| build.iter().map(move |b| b.iter().chain(p).cloned().collect()))
        .collect();
    reference_filter(&pairs, pred)
}

/// Each row with `exprs` evaluated on it appended, as an assign emits it.
fn reference_assign(rows: &[Tuple], exprs: &[Expr]) -> Result<Vec<Tuple>, String> {
    let reg = FunctionRegistry::with_builtins();
    rows.iter()
        .map(|r| {
            let mut out = r.clone();
            for e in exprs {
                out.push(e.eval(r, &reg)?);
            }
            Ok(out)
        })
        .collect()
}

/// True when the index search can serve `key`: its T-occurrence bound is
/// at least one. Keys below that are Fig 14's corner case, which the
/// search answers with no candidates (plans route them to a scan).
fn index_serves(key: &Value, measure: &SearchMeasure) -> bool {
    match measure {
        SearchMeasure::Jaccard { delta } => {
            jaccard_t_bound(index_tokens(IndexKind::Keyword, key).len(), *delta) > 0
        }
        SearchMeasure::EditDistance { k } => {
            key.as_str().is_some()
                && edit_distance_t_bound(index_tokens(IndexKind::NGram(2), key).len(), *k, 2) > 0
        }
        _ => true,
    }
}

/// Default job options on a fresh 2-worker pool: every job here runs on
/// the executor the engine ships.
fn on_pool() -> JobOptions {
    JobOptions {
        pool: Some(WorkerPool::new(2)),
        ..JobOptions::default()
    }
}

/// Run `job` and require the reference answer: the same rows in the same
/// order when `ordered`, the same multiset otherwise. A reference error
/// must be a job error.
fn assert_reference(
    job: &JobSpec,
    ctx: &ClusterContext,
    expected: &Result<Vec<Tuple>, String>,
    ordered: bool,
) {
    let got = run_job_with(job, ctx, &on_pool()).map(|(rows, _)| rows);
    match (expected, got) {
        (Ok(want), Ok(rows)) if ordered => assert_eq!(&rows, want),
        (Ok(want), Ok(rows)) => {
            let key = |t: &Tuple| format!("{t:?}");
            let mut want: Vec<String> = want.iter().map(key).collect();
            let mut rows: Vec<String> = rows.iter().map(key).collect();
            want.sort();
            rows.sort();
            assert_eq!(rows, want);
        }
        (Err(_), Err(_)) => {}
        (want, got) => panic!("expected {want:?}, got {got:?}"),
    }
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
        range: Default::default(),
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
        range: Default::default(),
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
        let expected = reference_filter(&dataset_rows(&rows), &predicate);
        assert_reference(&scan_select_job(predicate), &ctx, &expected, partitions == 1);
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
        let (query, measure, verify) = if use_ed {
            (
                "marla",
                SearchMeasure::EditDistance { k: k as u32 },
                Expr::call(
                    "edit-distance-check",
                    vec![Expr::col(0), Expr::col(2).field("name"), Expr::lit(k)],
                ),
            )
        } else {
            (
                "great product fantastic gift",
                SearchMeasure::Jaccard { delta },
                jaccard_verify(Expr::col(0), Expr::col(2).field("summary"), delta),
            )
        };
        // `[query, pk, rec]` for every record, as the lookup emits them.
        let key = Value::from(query);
        let candidates: Vec<Tuple> = if index_serves(&key, &measure) {
            dataset_rows(&rows)
                .into_iter()
                .map(|r| std::iter::once(key.clone()).chain(r).collect())
                .collect()
        } else {
            Vec::new()
        };
        let expected = reference_filter(&candidates, &verify);
        assert_reference(&index_select_job(query, measure, verify.clone()), &ctx, &expected, false);
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
        let (field, measure, verify) = if use_ed {
            (
                "name",
                SearchMeasure::EditDistance { k: k as u32 },
                Expr::call(
                    "edit-distance-check",
                    vec![Expr::col(2), Expr::col(4).field("name"), Expr::lit(k)],
                ),
            )
        } else {
            (
                "summary",
                SearchMeasure::Jaccard { delta },
                jaccard_verify(Expr::col(2), Expr::col(4).field("summary"), delta),
            )
        };
        // Nested loops over `[pk, rec, key]` outer rows the index serves.
        let data = dataset_rows(&rows);
        let outer: Vec<Tuple> = reference_assign(&data, &[Expr::col(1).field(field)])
            .unwrap()
            .into_iter()
            .filter(|r| index_serves(&r[2], &measure))
            .collect();
        let expected = reference_nl_join(&outer, &data, &verify);
        assert_reference(&index_join_job(field, measure, verify.clone()), &ctx, &expected, false);
    }
}

/// `scan → assign(exprs)`: `[pk, rec, exprs...]`.
fn scan_assign(job: &mut JobSpec, exprs: Vec<Expr>) -> OpId {
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
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
        range: Default::default(),
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

/// The group-by's input as `group_by_job` assigns it:
/// `[pk, rec, score, w, name, tags]`.
fn group_by_input(rows: &[(i64, String, String)]) -> Vec<Tuple> {
    let exprs: Vec<Expr> = ["score", "w", "name", "tags"]
        .iter()
        .map(|f| Expr::col(1).field(*f))
        .collect();
    reference_assign(&dataset_rows(rows), &exprs).unwrap()
}

/// Group `rows` on `keys` (`Value` equality) with a fold in a `BTreeMap`:
/// one `keys ++ aggregates` row per group.
fn reference_group_by(rows: &[Tuple], keys: &[usize], aggs: &[AggSpec]) -> Vec<Tuple> {
    let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
    for r in rows {
        groups
            .entry(keys.iter().map(|&k| r[k].clone()).collect())
            .or_default()
            .push(r);
    }
    let known = |members: &[&Tuple], c: usize| -> Vec<Value> {
        members
            .iter()
            .map(|r| r[c].clone())
            .filter(|v| !v.is_unknown())
            .collect()
    };
    groups
        .into_iter()
        .map(|(mut out, members)| {
            for agg in aggs {
                out.push(match *agg {
                    AggSpec::Count => Value::Int64(members.len() as i64),
                    AggSpec::Sum(c) => {
                        let nums: Vec<&Value> = members
                            .iter()
                            .map(|r| &r[c])
                            .filter(|v| v.as_f64().is_some())
                            .collect();
                        let sum: f64 = nums.iter().filter_map(|v| v.as_f64()).sum();
                        if nums.iter().all(|v| matches!(v, Value::Int64(_))) {
                            Value::Int64(sum as i64)
                        } else {
                            Value::double(sum)
                        }
                    }
                    AggSpec::Min(c) => known(&members, c).into_iter().min().unwrap_or(Value::Null),
                    AggSpec::Max(c) => known(&members, c).into_iter().max().unwrap_or(Value::Null),
                    AggSpec::First(c) => members[0][c].clone(),
                    AggSpec::CollectSortedSet(c) => {
                        let mut items: Vec<Value> = members.iter().map(|r| r[c].clone()).collect();
                        items.sort();
                        items.dedup();
                        Value::OrderedList(items)
                    }
                });
            }
            out
        })
        .collect()
}

/// Fig 12 stage 1, the token ranking: scan → unnest `word-tokens` →
/// hash(token) → group-by count → `ToOne` sort by (count, token) →
/// stream-pos (the rank). Returns the stream-pos operator.
fn token_rank(job: &mut JobSpec) -> OpId {
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
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
        // A flat-map: one row per list item, none for a non-list.
        let reg = FunctionRegistry::with_builtins();
        let mut expected = Vec::new();
        for r in dataset_rows(&rows) {
            let items = match expr.eval(&r, &reg).unwrap() {
                Value::OrderedList(l) | Value::UnorderedList(l) => l,
                _ => continue,
            };
            for (i, item) in items.into_iter().enumerate() {
                let mut out = r.clone();
                out.push(item);
                if with_pos {
                    out.push(Value::Int64(i as i64));
                }
                if rehash {
                    let cols: &[usize] = if with_pos { &[2, 3, 0] } else { &[2, 0] };
                    out = cols.iter().map(|&c| out[c].clone()).collect();
                }
                expected.push(out);
            }
        }
        assert_reference(&unnest_job(expr, with_pos, rehash), &ctx, &Ok(expected), false);
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
        // Nested loops on keys equal under SQL comparison.
        let exprs: Vec<Expr> = fields.iter().map(|f| Expr::col(1).field(*f)).collect();
        let side = reference_assign(&dataset_rows(&rows), &exprs).unwrap();
        let keys = 2..2 + fields.len();
        let mut expected = Vec::new();
        for r in &side {
            for l in &side {
                let equal = |k: usize| sql_compare(&l[k], &r[k]) == Some(Ordering::Equal);
                if keys.clone().all(equal) {
                    expected.push(l.iter().chain(r).cloned().collect());
                }
            }
        }
        assert_reference(&hash_join_job(fields), &ctx, &Ok(expected), false);
    }

    #[test]
    fn hash_group_by_batched_equals_row(
        rows in rows_strategy(16),
        partitions in 1usize..=3,
        key in prop::sample::select(vec![vec![2usize], vec![4], vec![2, 4], vec![]]),
    ) {
        let ctx = cluster(partitions, &rows);
        // Columns: 2 score, 3 w, 4 name, 5 tags.
        let mut aggs = vec![
            AggSpec::Count,
            AggSpec::Sum(3),
            AggSpec::Sum(2),
            AggSpec::Min(3),
            AggSpec::Max(3),
            AggSpec::Min(2),
            AggSpec::Max(5),
            AggSpec::CollectSortedSet(4),
            AggSpec::CollectSortedSet(5),
        ];
        // `First` answers with the first row to arrive, and rows from
        // several partitions arrive in no fixed order: it reads a key
        // column, equal across its group, or is left out.
        aggs.extend(key.first().map(|&k| AggSpec::First(k)));
        let expected = reference_group_by(&group_by_input(&rows), &key, &aggs);
        assert_reference(&group_by_job(key, aggs), &ctx, &Ok(expected), false);
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
            range: Default::default(),
        });
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![if desc { SortKey::desc(0) } else { SortKey::asc(0) }],
        });
        let rank = job.add(PhysicalOp::StreamPos);
        let sink = job.add(PhysicalOp::ResultSink);
        job.connect(scan, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, rank);
        job.connect(rank, sink, 0, ConnectorKind::ToOne);
        // The sorted rows, enumerated.
        let mut sorted = dataset_rows(&rows);
        if desc {
            sorted.reverse();
        }
        let expected = sorted
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.push(Value::Int64(i as i64));
                r
            })
            .collect();
        assert_reference(&job, &ctx, &Ok(expected), true);
    }

    #[test]
    fn token_rank_stage_batched_equals_row(
        rows in rows_strategy(16),
        partitions in 1usize..=3,
    ) {
        let ctx = cluster(partitions, &rows);
        // Token counts, sorted by (count, token), enumerated.
        let tokens = Expr::call("word-tokens", vec![Expr::col(1).field("summary")]);
        let reg = FunctionRegistry::with_builtins();
        let mut counts: BTreeMap<Value, i64> = BTreeMap::new();
        for r in dataset_rows(&rows) {
            if let Value::OrderedList(l) = tokens.eval(&r, &reg).unwrap() {
                for t in l {
                    *counts.entry(t).or_default() += 1;
                }
            }
        }
        let mut ranked: Vec<(i64, Value)> = counts.into_iter().map(|(t, n)| (n, t)).collect();
        ranked.sort();
        let expected = ranked
            .into_iter()
            .enumerate()
            .map(|(i, (n, t))| vec![t, Value::Int64(n), Value::Int64(i as i64)])
            .collect();
        assert_reference(&token_rank_job(), &ctx, &Ok(expected), true);
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
    let err = run_job_with(job, &tiny_ctx(), &on_pool())
        .expect_err("malformed plan must fail");
    match err {
        ExecError::Operator { ref op, .. } => {
            assert!(op.contains(want_op), "wrong operator blamed: {err}")
        }
        other => panic!("expected typed operator error, got {other:?}"),
    }
}

#[test]
fn hash_connector_key_out_of_bounds_is_typed() {
    let mut job = JobSpec::new();
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
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
        range: Default::default(),
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
        range: Default::default(),
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
        range: Default::default(),
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
        range: Default::default(),
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
        range: Default::default(),
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
        range: Default::default(),
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
        range: Default::default(),
    });
    let right = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
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
        range: Default::default(),
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

/// `scan → select(filter)`.
fn scan_select(job: &mut JobSpec, filter: Expr) -> OpId {
    let scan = job.add(PhysicalOp::DatasetScan {
        dataset: "ARevs".into(),
        range: Default::default(),
    });
    let select = job.add(PhysicalOp::Select { predicate: filter });
    job.pipe(scan, select);
    select
}

/// The Fig 14 corner-case join shape: the build side (input 0, the rows
/// `build_filter` keeps) broadcast against a partition-local scan of the
/// probe rows `probe_filter` keeps.
fn nl_join_job(build_filter: Expr, probe_filter: Expr, predicate: Expr) -> JobSpec {
    let mut job = JobSpec::new();
    let build = scan_select(&mut job, build_filter);
    let probe = scan_select(&mut job, probe_filter);
    let join = job.add(PhysicalOp::NestedLoopJoin { predicate });
    let sink = job.add(PhysicalOp::ResultSink);
    job.connect(build, join, 0, ConnectorKind::Broadcast);
    job.connect(probe, join, 1, ConnectorKind::OneToOne);
    job.connect(join, sink, 0, ConnectorKind::ToOne);
    job
}

/// Join predicates over `[build pk, build rec, probe pk, probe rec]`:
/// Jaccard and edit-distance kernels, a kernel conjunct beside a residual
/// one, and predicates no kernel compiles.
fn nl_predicate(pick: usize, k: i64) -> Expr {
    let jaccard = jaccard_verify(
        Expr::col(1).field("summary"),
        Expr::col(3).field("summary"),
        0.5,
    );
    let residual = Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::col(2));
    match pick {
        0 => jaccard,
        1 => Expr::cmp(
            CmpOp::Le,
            Expr::call(
                "edit-distance",
                vec![Expr::col(1).field("name"), Expr::col(3).field("name")],
            ),
            Expr::lit(k),
        ),
        2 => Expr::And(vec![jaccard, residual]),
        3 => Expr::call(
            "edit-distance-check",
            vec![
                Expr::col(1).field("name"),
                Expr::col(3).field("name"),
                Expr::lit(k),
            ],
        ),
        _ => Expr::And(vec![
            residual,
            Expr::cmp(CmpOp::Eq, Expr::col(1).field("score"), Expr::col(3).field("score")),
        ]),
    }
}

fn pk_at_most(cut: i64) -> Expr {
    Expr::cmp(CmpOp::Le, Expr::col(0), Expr::lit(cut))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn nested_loop_join_matches_reference(
        rows in rows_strategy(10),
        partitions in 1usize..=3,
        pick in 0usize..5,
        k in 0i64..=2,
        // 0 leaves the build side empty.
        build_cut in 0i64..=6,
    ) {
        let ctx = cluster(partitions, &rows);
        let data = dataset_rows(&rows);
        let predicate = nl_predicate(pick, k);
        let build = reference_filter(&data, &pk_at_most(build_cut)).unwrap();
        let expected = reference_nl_join(&build, &data, &predicate);
        let job = nl_join_job(pk_at_most(build_cut), Expr::lit(true), predicate);
        // One partition pins the order: probe order, build order within.
        assert_reference(&job, &ctx, &expected, partitions == 1);
    }

    #[test]
    fn uncompiled_select_matches_reference(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        pick in 0usize..5,
    ) {
        let ctx = cluster(partitions, &rows);
        let predicate = match pick {
            // Int64, Double, Null or a missing field by row.
            0 => Expr::cmp(CmpOp::Ge, Expr::col(1).field("score"), Expr::lit(1i64)),
            // Always a missing field: NULL, never true.
            1 => Expr::cmp(CmpOp::Eq, Expr::col(1).field("nosuch"), Expr::lit("x")),
            2 => Expr::Or(vec![
                Expr::cmp(CmpOp::Gt, Expr::col(1).field("w"), Expr::lit(10i64)),
                Expr::cmp(CmpOp::Eq, Expr::col(1).field("tags"), Expr::col(1).field("name")),
            ]),
            // Errors on every row whose score is a number.
            3 => Expr::cmp(
                CmpOp::Le,
                Expr::call(
                    "edit-distance",
                    vec![Expr::col(1).field("name"), Expr::col(1).field("score")],
                ),
                Expr::lit(1i64),
            ),
            _ => Expr::Not(Box::new(Expr::cmp(
                CmpOp::Eq,
                Expr::col(1).field("name"),
                Expr::lit("maria"),
            ))),
        };
        let expected = reference_filter(&dataset_rows(&rows), &predicate);
        assert_reference(&scan_select_job(predicate), &ctx, &expected, partitions == 1);
    }

    #[test]
    fn limit_materialize_fault_inject_over_narrowed_slices(
        rows in rows_strategy(16),
        n in 0usize..=10,
        skip in 1i64..=16,
        after in 0u64..=6,
        materialize in any::<bool>(),
    ) {
        // One partition: the scan's slice narrowed by the select is what
        // reaches each operator, in pk order.
        let ctx = cluster(1, &rows);
        let narrow = Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::lit(skip));
        let kept = reference_filter(&dataset_rows(&rows), &narrow).unwrap();

        let mut job = JobSpec::new();
        let mut head = scan_select(&mut job, narrow.clone());
        if materialize {
            let mat = job.add(PhysicalOp::Materialize);
            job.pipe(head, mat);
            head = mat;
        }
        let limit = job.add(PhysicalOp::Limit { n });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(head, limit);
        job.pipe(limit, sink);
        let expected = Ok(kept.iter().take(n).cloned().collect());
        assert_reference(&job, &ctx, &expected, true);

        // A fault-inject on another partition forwards everything.
        let fault_job = |fail_partition: usize| {
            let mut job = JobSpec::new();
            let select = scan_select(&mut job, narrow.clone());
            let fault = job.add(PhysicalOp::FaultInject {
                partition: fail_partition,
                after_tuples: after,
                mode: FaultMode::Error,
            });
            let sink = job.add(PhysicalOp::ResultSink);
            job.pipe(select, fault);
            job.pipe(fault, sink);
            job
        };
        assert_reference(&fault_job(1), &ctx, &Ok(kept.clone()), true);

        // On its own partition it fails, having forwarded at most
        // `after_tuples` rows: the sink sees a prefix of the input (an
        // empty one when the failure stops the job before the sink's
        // stage starts).
        let delivered = Arc::new(std::sync::Mutex::new(Vec::<Tuple>::new()));
        let sink_rows = Arc::clone(&delivered);
        let err = run_job_with(
            &fault_job(0),
            &ctx,
            &JobOptions {
                result_sink: Some(asterix_hyracks::ResultSink::new(move |rows| {
                    sink_rows.lock().unwrap().extend(rows);
                    Ok(())
                })),
                ..on_pool()
            },
        );
        prop_assert!(err.is_err(), "fault-inject did not fail");
        let delivered = delivered.lock().unwrap();
        prop_assert!(delivered.len() as u64 <= after);
        prop_assert_eq!(&delivered[..], &kept[..delivered.len()]);
    }

    #[test]
    fn sort_of_mixed_widths_matches_reference(
        rows in rows_strategy(12),
        partitions in 1usize..=3,
        cut in 0i64..=12,
        desc in any::<bool>(),
    ) {
        // Rows up to `cut` arrive as `[pk, rec]`, the rest as
        // `[pk, rec, name]`: the sort sees frames of two widths.
        let ctx = cluster(partitions, &rows);
        let mut job = JobSpec::new();
        let narrow = scan_select(&mut job, pk_at_most(cut));
        let wide = scan_select(
            &mut job,
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(cut)),
        );
        let assign = job.add(PhysicalOp::Assign {
            exprs: vec![Expr::col(1).field("name")],
        });
        let union = job.add(PhysicalOp::Union);
        let sort = job.add(PhysicalOp::Sort {
            keys: vec![if desc { SortKey::desc(0) } else { SortKey::asc(0) }],
        });
        let sink = job.add(PhysicalOp::ResultSink);
        job.pipe(wide, assign);
        job.connect(narrow, union, 0, ConnectorKind::OneToOne);
        job.connect(assign, union, 1, ConnectorKind::OneToOne);
        job.connect(union, sort, 0, ConnectorKind::ToOne);
        job.pipe(sort, sink);
        let mut expected: Vec<Tuple> = dataset_rows(&rows)
            .into_iter()
            .map(|mut r| {
                if r[0] > Value::Int64(cut) {
                    let name = r[1].field_path("name").clone();
                    r.push(name);
                }
                r
            })
            .collect();
        if desc {
            expected.reverse();
        }
        assert_reference(&job, &ctx, &Ok(expected), true);
    }

    #[test]
    fn index_search_on_string_keys_matches_reference(
        rows in rows_strategy(10),
        partitions in 1usize..=2,
        delta in prop::sample::select(vec![0.5f64, 0.8]),
    ) {
        // The probe key column is the outer summary, an arena string
        // column; every true Jaccard pair must come back exactly once.
        let ctx = cluster(partitions, &rows);
        let data = dataset_rows(&rows);
        let verify = jaccard_verify(Expr::col(2), Expr::col(4).field("summary"), delta);
        let outer: Vec<Tuple> = data
            .iter()
            .map(|r| vec![r[0].clone(), r[1].clone(), r[1].field_path("summary").clone()])
            .collect();
        // Pairs laid out as the index plan emits them: outer ++ inner.
        let expected = reference_nl_join(&outer, &data, &verify);
        let job = index_join_job("summary", SearchMeasure::Jaccard { delta }, verify);
        assert_reference(&job, &ctx, &expected, false);
    }
}

/// A build side larger than one frame: the scan ships it in several
/// frames, and the join's output order still follows the probe rows, then
/// the build rows.
#[test]
fn nested_loop_join_build_spanning_frames_matches_reference() {
    let rows: Vec<(i64, String, String)> = (1..=300)
        .map(|i| {
            (
                i,
                NAMES[i as usize % NAMES.len()].to_string(),
                format!(
                    "{} {} {}",
                    WORDS[i as usize % WORDS.len()],
                    WORDS[i as usize % 7],
                    WORDS[i as usize % 3]
                ),
            )
        })
        .collect();
    let ctx = cluster(1, &rows);
    let data = dataset_rows(&rows);
    let probe = reference_filter(&data, &pk_at_most(3)).unwrap();
    for pick in 0..5 {
        let predicate = nl_predicate(pick, 1);
        let expected = reference_nl_join(&data, &probe, &predicate);
        assert!(expected.as_ref().is_ok_and(|r| !r.is_empty()), "pick {pick}");
        let job = nl_join_job(Expr::lit(true), pk_at_most(3), predicate);
        assert_reference(&job, &ctx, &expected, true);
    }
}
