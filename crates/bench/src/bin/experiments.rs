//! Regenerate every table and figure of the paper's evaluation (§6) at
//! laptop scale, plus the DESIGN.md ablations.
//!
//! Usage:
//!   cargo run --release -p asterix-bench --bin experiments [-- <which>...]
//!
//! `<which>` ∈ {config, datasets, table5, table6, fig15, fig22a, fig22b,
//! fig24a, fig24b, fig25a, fig25b, fig27a, fig27bc, ablations, all}
//! (default: all). Scale via env
//! `ASTERIX_SCALE` (default 1.0 ≈ 20k Amazon records) and
//! `ASTERIX_PARTITIONS` (default 4).
//!
//! The output is printed tables only. Measured numbers of record come
//! from the `e2e` benchmark (`BENCHMARK.json`); durability and HTTP
//! streaming are checked by `tests/durability.rs` and `tests/server.rs`.
//!
//! Absolute times are not comparable with the paper's 8-node cluster; the
//! *shapes* (who wins, how ratios move with thresholds and sizes) are the
//! reproduction targets — see EXPERIMENTS.md.

use asterix_adm::IndexKind;
use asterix_algebricks::OptimizerConfig;
use asterix_bench::{avg_time, fmt_duration, print_table, WorkloadConfig, Workloads};
use asterix_core::{Instance, InstanceConfig, QueryOptions};
use asterix_datagen::{amazon_reviews, profile_field};
use std::time::Instant;

fn options(f: impl FnOnce(&mut OptimizerConfig)) -> QueryOptions {
    let mut cfg = OptimizerConfig::default();
    f(&mut cfg);
    QueryOptions {
        optimizer: Some(cfg),
        ..QueryOptions::default()
    }
}

fn no_index() -> QueryOptions {
    options(|c| {
        c.enable_index_select = false;
        c.enable_index_join = false;
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let run = |name: &str| which.contains(&"all") || which.contains(&name);

    let cfg = WorkloadConfig::default();
    println!(
        "experiment configuration: partitions={} amazon={} reddit={} twitter={}",
        cfg.partitions, cfg.amazon_records, cfg.reddit_records, cfg.twitter_records
    );

    if run("config") {
        table2(&cfg);
    }
    if run("datasets") {
        tables_3_and_4(&cfg);
    }
    if run("table5") {
        table5(&cfg);
    }
    if run("table6") || run("fig22a") || run("fig22b") || run("fig24a") || run("fig24b") {
        let w = Workloads::amazon_only(cfg.clone());
        w.build_indexes();
        w.db
            .create_index("AmazonReview", "summary_bt", "summary", IndexKind::BTree)
            .unwrap();
        w.db
            .create_index("AmazonReview", "name_bt", "reviewerName", IndexKind::BTree)
            .unwrap();
        if run("table6") {
            table6(&w);
        }
        if run("fig22a") {
            fig22a(&w);
        }
        if run("fig22b") {
            fig22b(&w);
        }
        if run("fig24a") {
            fig24a(&w);
        }
        if run("fig24b") {
            fig24b(&w);
        }
    }
    if run("fig15") {
        fig15(&cfg);
    }
    if run("fig25a") {
        fig25a(&cfg);
    }
    if run("fig25b") {
        fig25b(&cfg);
    }
    if run("fig27a") {
        fig27a(&cfg);
    }
    if run("fig27bc") {
        fig27bc(&cfg);
    }
    if run("ablations") {
        ablation_pk_sort(&cfg);
        ablation_reuse(&cfg);
        ablation_surrogate(&cfg);
        ablation_token_order(&cfg);
    }
}

/// Table 2: configuration parameters.
fn table2(cfg: &WorkloadConfig) {
    let inst = InstanceConfig::with_partitions(cfg.partitions);
    let rows: Vec<Vec<String>> = inst
        .table2()
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    print_table("Table 2: instance parameters", &["Parameter", "Value"], &rows);
}

/// Tables 3 + 4: dataset properties and field characteristics.
fn tables_3_and_4(cfg: &WorkloadConfig) {
    let w = Workloads::load(cfg.clone());
    let mut t3 = Vec::new();
    let mut t4 = Vec::new();
    for ds in &w.datasets {
        t3.push(vec![
            ds.name.to_string(),
            ds.records.to_string(),
            format!("ed: {}, jaccard: {}", ds.ed_field, ds.jac_field),
        ]);
        for field in [ds.ed_field, ds.jac_field] {
            let r = w
                .db
                .query(&format!("for $t in dataset {} return $t.{}", ds.name, field))
                .unwrap();
            let texts: Vec<&str> = r.rows.iter().filter_map(|v| v.as_str()).collect();
            let p = profile_field(texts.iter().copied());
            t4.push(vec![
                format!("{}.{}", ds.name, field),
                format!("{:.1}", p.avg_chars),
                p.max_chars.to_string(),
                format!("{:.1}", p.avg_words),
                p.max_words.to_string(),
            ]);
        }
    }
    print_table(
        "Table 3: dataset properties (synthetic substitutes)",
        &["Dataset", "Records", "Fields used"],
        &t3,
    );
    print_table(
        "Table 4: field characteristics",
        &["Field", "Avg chars", "Max chars", "Avg words", "Max words"],
        &t4,
    );
}

/// Table 5: index sizes and build times (Amazon reviews).
fn table5(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    let mut rows = Vec::new();
    let primary = w.db.index_sizes("AmazonReview").unwrap();
    let primary_size = primary
        .iter()
        .find(|(n, _)| n == "<primary>")
        .map(|(_, b)| *b)
        .unwrap_or(0);
    rows.push(vec![
        "dataset itself".into(),
        "B+ tree".into(),
        format!("{:.2} MB", primary_size as f64 / 1e6),
        "-".into(),
    ]);
    let specs = [
        ("reviewerName", "name_bt", IndexKind::BTree),
        ("reviewerName", "name_2gram", IndexKind::NGram(2)),
        ("summary", "summary_bt", IndexKind::BTree),
        ("summary", "summary_kw", IndexKind::Keyword),
    ];
    for (field, name, kind) in specs {
        let stats = w.db.create_index("AmazonReview", name, field, kind).unwrap();
        rows.push(vec![
            format!("{field} ({name})"),
            kind.name(),
            format!("{:.2} MB", stats.size_bytes as f64 / 1e6),
            fmt_duration(stats.build_time),
        ]);
    }
    print_table(
        "Table 5: index size and build time (AmazonReview)",
        &["Field", "Index type", "Size", "Build time"],
        &rows,
    );
}

fn jaccard_sel_query(value: &str, delta: f64) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 where similarity-jaccard(word-tokens($o.summary),
                                          word-tokens('{value}')) >= {delta}
                 return {{"oid": $o.id, "v": $o.summary}} );"#
    )
}

fn ed_sel_query(value: &str, k: u32) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 where edit-distance($o.reviewerName, '{value}') <= {k}
                 return {{"oid": $o.id, "v": $o.reviewerName}} );"#
    )
}

/// Table 6: candidate set vs final result size for indexed Jaccard
/// selections.
fn table6(w: &Workloads) {
    let probes = w.search_values("AmazonReview", "summary", 8, 3, 3, 61);
    let mut rows = Vec::new();
    for delta in [0.2, 0.5, 0.8] {
        let mut results = 0u64;
        let mut candidates = 0u64;
        for p in &probes {
            let r = w.db.query(&jaccard_sel_query(p, delta)).unwrap();
            results += r.count().unwrap_or(0) as u64;
            candidates += r.index_candidates();
        }
        let ratio = if candidates == 0 {
            0.0
        } else {
            results as f64 / candidates as f64 * 100.0
        };
        rows.push(vec![
            format!("{delta}"),
            results.to_string(),
            candidates.to_string(),
            format!("{ratio:.1}%"),
        ]);
    }
    print_table(
        "Table 6: candidates vs results, indexed Jaccard selection",
        &["Jaccard threshold", "Results (B)", "Candidates (C)", "Ratio (B/C)"],
        &rows,
    );
}

/// Fig 22(a): Jaccard selection times.
fn fig22a(w: &Workloads) {
    let probes = w.search_values("AmazonReview", "summary", 8, 3, 3, 62);
    let mut rows = Vec::new();
    let exact: Vec<String> = probes
        .iter()
        .map(|p| {
            format!(
                r#"count( for $o in dataset AmazonReview where $o.summary = '{p}'
                     return {{"oid": $o.id}} );"#
            )
        })
        .collect();
    let with = avg_time(&w.db, &exact, &QueryOptions::default()).unwrap();
    let without = avg_time(&w.db, &exact, &no_index()).unwrap();
    rows.push(vec![
        "exact match".into(),
        fmt_duration(without),
        fmt_duration(with),
    ]);
    for delta in [0.2, 0.5, 0.8] {
        let queries: Vec<String> = probes.iter().map(|p| jaccard_sel_query(p, delta)).collect();
        let with = avg_time(&w.db, &queries, &QueryOptions::default()).unwrap();
        let without = avg_time(&w.db, &queries, &no_index()).unwrap();
        rows.push(vec![
            format!("jaccard {delta}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 22(a): selection times, Jaccard (avg over probes)",
        &["Threshold", "Without index", "With index"],
        &rows,
    );
}

/// Fig 22(b): edit-distance selection times.
fn fig22b(w: &Workloads) {
    let probes = w.search_values("AmazonReview", "reviewerName", 8, 1, 3, 63);
    let mut rows = Vec::new();
    let exact: Vec<String> = probes
        .iter()
        .map(|p| {
            format!(
                r#"count( for $o in dataset AmazonReview where $o.reviewerName = '{p}'
                     return {{"oid": $o.id}} );"#
            )
        })
        .collect();
    let with = avg_time(&w.db, &exact, &QueryOptions::default()).unwrap();
    let without = avg_time(&w.db, &exact, &no_index()).unwrap();
    rows.push(vec![
        "exact match".into(),
        fmt_duration(without),
        fmt_duration(with),
    ]);
    for k in [1u32, 2, 3] {
        let queries: Vec<String> = probes.iter().map(|p| ed_sel_query(p, k)).collect();
        let with = avg_time(&w.db, &queries, &QueryOptions::default()).unwrap();
        let without = avg_time(&w.db, &queries, &no_index()).unwrap();
        rows.push(vec![
            format!("edit distance {k}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 22(b): selection times, edit distance (avg over probes)",
        &["Threshold", "Without index", "With index"],
        &rows,
    );
}

fn jaccard_join_query(outer_limit: usize, delta: f64) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 for $i in dataset AmazonReview
                 where $o.id < {outer_limit}
                   and similarity-jaccard(word-tokens($o.summary),
                                          word-tokens($i.summary)) >= {delta}
                   and $o.id < $i.id
                 return {{"oid": $o.id}} );"#
    )
}

fn ed_join_query(outer_limit: usize, k: u32) -> String {
    format!(
        r#"count( for $o in dataset AmazonReview
                 for $i in dataset AmazonReview
                 where $o.id < {outer_limit}
                   and edit-distance($o.reviewerName, $i.reviewerName) <= {k}
                   and $o.id < $i.id
                 return {{"oid": $o.id}} );"#
    )
}

/// Fig 24(a): Jaccard join times (outer limited to 10 records, §6.4.1).
fn fig24a(w: &Workloads) {
    let mut rows = Vec::new();
    let exact = r#"count( for $o in dataset AmazonReview
                 for $i in dataset AmazonReview
                 where $o.id < 10 and $o.summary = $i.summary and $o.id < $i.id
                 return {"oid": $o.id} );"#
        .to_string();
    let t = avg_time(&w.db, &[exact], &QueryOptions::default()).unwrap();
    rows.push(vec!["exact match".into(), fmt_duration(t), "-".into()]);
    for delta in [0.2, 0.5, 0.8] {
        let q = jaccard_join_query(10, delta);
        let with = avg_time(&w.db, std::slice::from_ref(&q), &QueryOptions::default()).unwrap();
        let without = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_index_join = false),
        )
        .unwrap();
        rows.push(vec![
            format!("jaccard {delta}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 24(a): join times, Jaccard (outer = 10 records)",
        &["Threshold", "Without index (3-stage)", "With index"],
        &rows,
    );
}

/// Fig 24(b): edit-distance join times.
fn fig24b(w: &Workloads) {
    let mut rows = Vec::new();
    for k in [1u32, 2, 3] {
        let q = ed_join_query(10, k);
        let with = avg_time(&w.db, std::slice::from_ref(&q), &QueryOptions::default()).unwrap();
        let without = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_index_join = false),
        )
        .unwrap();
        rows.push(vec![
            format!("edit distance {k}"),
            fmt_duration(without),
            fmt_duration(with),
        ]);
    }
    print_table(
        "Fig 24(b): join times, edit distance (outer = 10 records)",
        &["Threshold", "Without index (NL)", "With index"],
        &rows,
    );
}

/// Fig 15: operator counts, nested-loop vs three-stage plan.
fn fig15(cfg: &WorkloadConfig) {
    let db = Instance::new(InstanceConfig::with_partitions(cfg.partitions));
    db.create_dataset("AmazonReview", "id").unwrap();
    db.load("AmazonReview", amazon_reviews(100, cfg.seed)).unwrap();
    let q = r#"
        for $o in dataset AmazonReview
        for $i in dataset AmazonReview
        where similarity-jaccard(word-tokens($o.summary),
                                 word-tokens($i.summary)) >= 0.5
        return {"oid": $o.id, "iid": $i.id}
    "#;
    let nl = db
        .explain_with_options(
            q,
            &options(|c| {
                c.enable_three_stage = false;
                c.enable_index_join = false;
            }),
        )
        .unwrap();
    let ts = db.explain(q).unwrap();
    let collect = |ops: &[(&'static str, usize)]| -> String {
        ops.iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = vec![
        vec![
            "nested-loop plan".into(),
            nl.total_logical_ops_after().to_string(),
            collect(&nl.logical_ops_after),
        ],
        vec![
            "three-stage plan".into(),
            ts.total_logical_ops_after().to_string(),
            collect(&ts.logical_ops_after),
        ],
        vec![
            "paper (Fig 15)".into(),
            "6 vs 77".into(),
            "NL: join:1 select:1 assign:3 ... / 3-stage: join:15 assign:12 select:8 ...".into(),
        ],
    ];
    print_table(
        "Fig 15: logical operator counts for the same query",
        &["Plan", "Total ops", "Breakdown"],
        &rows,
    );
}

/// Fig 25(a): join time vs outer-branch cardinality (crossover).
fn fig25a(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    w.build_indexes();
    let mut rows = Vec::new();
    for outer in [200usize, 400, 600, 800, 1000, 1200, 1400] {
        let q = jaccard_join_query(outer, 0.8);
        let index = avg_time(&w.db, std::slice::from_ref(&q), &QueryOptions::default()).unwrap();
        let three = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_index_join = false),
        )
        .unwrap();
        // The quadratic nested-loop join is only run for small outers.
        let nl = if outer <= 400 {
            let t = avg_time(
                &w.db,
                std::slice::from_ref(&q),
                &options(|c| {
                    c.enable_index_join = false;
                    c.enable_three_stage = false;
                }),
            )
            .unwrap();
            fmt_duration(t)
        } else {
            "(skipped)".into()
        };
        rows.push(vec![
            outer.to_string(),
            nl,
            fmt_duration(three),
            fmt_duration(index),
        ]);
    }
    print_table(
        "Fig 25(a): Jaccard-0.8 self-join time vs outer cardinality",
        &["Outer records", "Nested-loop", "Three-stage", "Index-NL"],
        &rows,
    );
}

/// Fig 25(b): multi-way queries with two similarity conditions, varying
/// the condition order, on all three datasets.
fn fig25b(cfg: &WorkloadConfig) {
    let w = Workloads::load(cfg.clone());
    w.build_indexes();
    let mut rows = Vec::new();
    for ds in &w.datasets {
        let jac = format!(
            "similarity-jaccard(word-tokens($o.{jf}), word-tokens($i.{jf})) >= 0.8",
            jf = ds.jac_field
        );
        let ed = format!("edit-distance($o.{ef}, $i.{ef}) <= 1", ef = ds.ed_field);
        let query = |first: &str, second: &str| {
            format!(
                r#"count( for $o in dataset {name}
                     for $i in dataset {name}
                     where $o.id < 10 and {first} and {second} and $o.id < $i.id
                     return {{"oid": $o.id, "iid": $i.id}} );"#,
                name = ds.name
            )
        };
        let jac_first = avg_time(&w.db, &[query(&jac, &ed)], &QueryOptions::default()).unwrap();
        let ed_first = avg_time(&w.db, &[query(&ed, &jac)], &QueryOptions::default()).unwrap();
        let both_noindex = avg_time(&w.db, &[query(&jac, &ed)], &no_index()).unwrap();
        rows.push(vec![
            ds.name.to_string(),
            fmt_duration(jac_first),
            fmt_duration(ed_first),
            fmt_duration(both_noindex),
        ]);
    }
    print_table(
        "Fig 25(b): multi-way joins (two similarity conditions)",
        &["Dataset", "Jac-I, ED-NI", "ED-I, Jac-NI", "Jac-NI, ED-NI"],
        &rows,
    );
}

fn scaled_amazon_instance(partitions: usize, records: usize, seed: u64) -> Workloads {
    let cfg = WorkloadConfig {
        partitions,
        amazon_records: records,
        reddit_records: 0,
        twitter_records: 0,
        seed,
    };
    let w = Workloads::amazon_only(cfg);
    w.build_indexes();
    w
}

fn fig27_queries(w: &Workloads) -> [(&'static str, String, QueryOptions); 4] {
    let probe = w
        .search_values("AmazonReview", "summary", 1, 3, 3, 64)
        .pop()
        .unwrap_or_else(|| "great product value".into());
    [
        (
            "Jac-Sel-0.8-Index",
            jaccard_sel_query(&probe, 0.8),
            QueryOptions::default(),
        ),
        (
            "Jac-Sel-0.8-NoIndex",
            jaccard_sel_query(&probe, 0.8),
            no_index(),
        ),
        (
            "Jac-Join-0.8-Index",
            jaccard_join_query(200, 0.8),
            QueryOptions::default(),
        ),
        (
            "Jac-Join-0.8-NoIndex",
            jaccard_join_query(200, 0.8),
            options(|c| c.enable_index_join = false),
        ),
    ]
}

/// Fig 27(a): scale-out — data grows with the partition count. The
/// per-partition critical-path work (max tuples through the busiest
/// partition, summed over operators) is the hardware-independent metric:
/// on a single-core host the wall times of the simulated partitions
/// serialize, but the work column shows what an 8-node cluster would see.
fn fig27a(cfg: &WorkloadConfig) {
    let base = cfg.amazon_records;
    let mut rows = Vec::new();
    for p in [1usize, 2, 4, 8] {
        let records = (base * p / 8).max(100);
        let w = scaled_amazon_instance(p, records, cfg.seed);
        let mut row = vec![format!("{p} ({records} recs)")];
        for (_, q, opts) in fig27_queries(&w) {
            let r = w.db.query_with(&q, &opts).unwrap();
            row.push(format!(
                "{} / {}t",
                fmt_duration(r.execution_time),
                r.stats.critical_path_tuples()
            ));
        }
        rows.push(row);
    }
    print_table(
        "Fig 27(a): scale-out (wall / per-partition work; flat work is ideal)",
        &[
            "Partitions",
            "Jac-Sel-Index",
            "Jac-Sel-NoIndex",
            "Jac-Join-Index",
            "Jac-Join-NoIndex(3stage)",
        ],
        &rows,
    );
}

/// Fig 27(b,c): speed-up — fixed data, growing partitions. Speed-up is
/// reported on the per-partition critical-path work (see fig27a): on an
/// ideal cluster wall time tracks that work, and on a single-core host
/// only the work column is meaningful.
fn fig27bc(cfg: &WorkloadConfig) {
    let mut rows = Vec::new();
    let mut base_work: Option<Vec<u64>> = None;
    for p in [1usize, 2, 4, 8] {
        let w = scaled_amazon_instance(p, cfg.amazon_records, cfg.seed);
        let mut work = Vec::new();
        let mut wall = Vec::new();
        for (_, q, opts) in fig27_queries(&w) {
            let r = w.db.query_with(&q, &opts).unwrap();
            work.push(r.stats.critical_path_tuples().max(1));
            wall.push(r.execution_time);
        }
        let mut row = vec![p.to_string()];
        match &base_work {
            None => {
                for (t, wk) in wall.iter().zip(&work) {
                    row.push(format!("1.00x ({}, {wk}t)", fmt_duration(*t)));
                }
                base_work = Some(work);
            }
            Some(base) => {
                for ((b, wk), t) in base.iter().zip(&work).zip(&wall) {
                    row.push(format!(
                        "{:.2}x ({}, {wk}t)",
                        *b as f64 / *wk as f64,
                        fmt_duration(*t)
                    ));
                }
            }
        }
        rows.push(row);
    }
    print_table(
        "Fig 27(b,c): speed-up on per-partition work (fixed data; linear is ideal)",
        &[
            "Partitions",
            "Jac-Sel-Index",
            "Jac-Sel-NoIndex",
            "Jac-Join-Index",
            "Jac-Join-NoIndex(3stage)",
        ],
        &rows,
    );
}

/// Ablation: sorting primary keys before the primary-index lookup
/// (§4.1.1) — measured through buffer-cache hit ratios.
fn ablation_pk_sort(cfg: &WorkloadConfig) {
    // A dedicated instance with a *small* buffer cache (and a small page
    // size so the primary index spans many pages): without cache
    // pressure, every lookup hits and the sort cannot matter.
    let mut inst_cfg = InstanceConfig::with_partitions(cfg.partitions);
    inst_cfg.storage.page_size = 4 * 1024;
    inst_cfg.storage.buffer_cache_pages = 8;
    let db = Instance::new(inst_cfg);
    db.create_dataset("AmazonReview", "id").unwrap();
    db.load("AmazonReview", amazon_reviews(cfg.amazon_records, cfg.seed))
        .unwrap();
    db.create_index("AmazonReview", "summary_kw", "summary", IndexKind::Keyword)
        .unwrap();
    db.flush("AmazonReview").unwrap();
    let w = Workloads {
        db,
        datasets: vec![],
    };
    let probes = w.search_values("AmazonReview", "summary", 6, 3, 3, 65);
    let queries: Vec<String> = probes.iter().map(|p| jaccard_sel_query(p, 0.2)).collect();
    let mut rows = Vec::new();
    for sort in [true, false] {
        w.db.reset_cache_stats();
        let t = avg_time(&w.db, &queries, &options(|c| c.sort_pks = sort)).unwrap();
        let stats = w.db.cache_stats();
        rows.push(vec![
            if sort { "sorted pks" } else { "unsorted pks" }.into(),
            fmt_duration(t),
            format!("{:.1}%", stats.hit_ratio() * 100.0),
        ]);
    }
    print_table(
        "Ablation: pk sorting before primary lookup (§4.1.1)",
        &["Variant", "Avg time", "Cache hit ratio"],
        &rows,
    );
}

/// Ablation: materialize/reuse of shared subplans (Fig 20).
fn ablation_reuse(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    let q = jaccard_join_query(2_000, 0.8);
    let mut rows = Vec::new();
    for reuse in [true, false] {
        let r = w
            .db
            .query_with(
                &q,
                &options(|c| {
                    c.enable_index_join = false;
                    c.enable_subplan_reuse = reuse;
                }),
            )
            .unwrap();
        let scans = r
            .plan
            .physical_ops
            .iter()
            .find(|(n, _)| *n == "dataset-scan")
            .map(|(_, c)| *c)
            .unwrap_or(0);
        rows.push(vec![
            if reuse {
                "reuse shared subplans"
            } else {
                "recompute"
            }
            .into(),
            fmt_duration(r.execution_time),
            scans.to_string(),
        ]);
    }
    print_table(
        "Ablation: shared-subplan reuse in the three-stage self join (Fig 20)",
        &["Variant", "Time", "Physical scans"],
        &rows,
    );
}

/// Ablation: surrogate index-nested-loop join (Fig 19).
fn ablation_surrogate(cfg: &WorkloadConfig) {
    let w = Workloads::amazon_only(cfg.clone());
    w.build_indexes();
    let q = jaccard_join_query(1_000, 0.8);
    let mut rows = Vec::new();
    for surrogate in [false, true] {
        let t = avg_time(
            &w.db,
            std::slice::from_ref(&q),
            &options(|c| c.enable_surrogate = surrogate),
        )
        .unwrap();
        rows.push(vec![
            if surrogate {
                "surrogate join"
            } else {
                "full-record broadcast"
            }
            .into(),
            fmt_duration(t),
        ]);
    }
    print_table(
        "Ablation: surrogate index-nested-loop join (Fig 19)",
        &["Variant", "Time"],
        &rows,
    );
}

/// Ablation: global token order — increasing frequency vs arbitrary
/// (§4.2.2's claim that frequency order generates fewer candidate pairs).
fn ablation_token_order(cfg: &WorkloadConfig) {
    use asterix_simfn::prefix::TokenOrder;
    use asterix_simfn::tokenize::word_tokens_distinct;
    use std::collections::HashMap;
    let records = amazon_reviews(cfg.amazon_records.min(5_000), cfg.seed);
    let token_sets: Vec<Vec<String>> = records
        .iter()
        .filter_map(|r| r.field("summary").as_str().map(word_tokens_distinct))
        .collect();
    let mut counts: HashMap<String, usize> = HashMap::new();
    for ts in &token_sets {
        for t in ts {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
    }
    let freq_order = TokenOrder::from_counts(counts.clone());
    let arbitrary = TokenOrder::arbitrary(counts.keys().cloned());
    let delta = 0.8;
    let candidate_pairs = |order: &TokenOrder<String>| -> u64 {
        // Sum over prefix tokens of C(n, 2): the pairs a prefix join
        // would generate.
        let mut by_token: HashMap<u32, u64> = HashMap::new();
        for ts in &token_sets {
            for tok in order.prefix(ts, delta) {
                *by_token.entry(tok).or_insert(0) += 1;
            }
        }
        by_token.values().map(|n| n * n.saturating_sub(1) / 2).sum()
    };
    let started = Instant::now();
    let freq_pairs = candidate_pairs(&freq_order);
    let freq_time = started.elapsed();
    let started = Instant::now();
    let arb_pairs = candidate_pairs(&arbitrary);
    let arb_time = started.elapsed();
    print_table(
        "Ablation: global token order (candidate pairs at δ=0.8)",
        &["Order", "Candidate pairs", "Prefix-extraction time"],
        &[
            vec![
                "increasing frequency (paper)".into(),
                freq_pairs.to_string(),
                fmt_duration(freq_time),
            ],
            vec![
                "arbitrary".into(),
                arb_pairs.to_string(),
                fmt_duration(arb_time),
            ],
        ],
    );
}
