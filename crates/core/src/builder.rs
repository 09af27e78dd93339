//! A programmatic query builder — the typed alternative to AQL text for
//! embedding the engine as a library (the paper's API surface is the
//! query language; a Rust library also wants a fluent builder).
//!
//! ```
//! use asterix_core::{Instance, InstanceConfig};
//! use asterix_core::builder::QueryBuilder;
//! use asterix_adm::record;
//!
//! let db = Instance::new(InstanceConfig::tiny(2));
//! db.create_dataset("Reviews", "id").unwrap();
//! db.insert("Reviews", record! {"id" => 1i64, "summary" => "great product"}).unwrap();
//! db.insert("Reviews", record! {"id" => 2i64, "summary" => "awful"}).unwrap();
//!
//! let result = QueryBuilder::scan("Reviews")
//!     .filter(|r| QueryBuilder::jaccard_sim(
//!         r.field("summary").word_tokens(),
//!         QueryBuilder::text_tokens("great product value"),
//!         0.5,
//!     ))
//!     .select(|r| r.field("id"))
//!     .run(&db)
//!     .unwrap();
//! assert_eq!(result.ids(), vec![1]);
//! ```

use crate::error::CoreError;
use crate::instance::Instance;
use crate::result::{PlanInfo, QueryOptions, QueryResult};
use asterix_adm::Value;
use asterix_algebricks::plan::{build, LogicalNode, LogicalOp, OrderKey, PlanRef};
use asterix_algebricks::{generate_job, optimize, VarGen, VarId};
use asterix_hyracks::{run_job_with, CmpOp, Expr, JobOptions};
use std::sync::Arc;

/// A reference to the current row while building expressions.
#[derive(Clone, Copy, Debug)]
pub struct RowRef {
    rec_var: VarId,
    pk_var: VarId,
}

impl RowRef {
    /// The record's primary key column.
    pub fn key(&self) -> ExprBuilder {
        ExprBuilder(Expr::Column(self.pk_var))
    }

    /// A (possibly dotted) field of the record.
    pub fn field(&self, path: &str) -> ExprBuilder {
        ExprBuilder(Expr::Column(self.rec_var).field(path))
    }

    /// The whole record.
    pub fn record(&self) -> ExprBuilder {
        ExprBuilder(Expr::Column(self.rec_var))
    }
}

/// A fluent expression wrapper.
#[derive(Clone, Debug)]
pub struct ExprBuilder(pub Expr);

impl ExprBuilder {
    /// `word-tokens(self)`.
    pub fn word_tokens(self) -> ExprBuilder {
        ExprBuilder(Expr::call("word-tokens", vec![self.0]))
    }

    /// `gram-tokens(self, n)`.
    pub fn gram_tokens(self, n: usize) -> ExprBuilder {
        ExprBuilder(Expr::call(
            "gram-tokens",
            vec![self.0, Expr::lit(n as i64)],
        ))
    }

    /// `self = other`.
    pub fn eq(self, other: ExprBuilder) -> ExprBuilder {
        ExprBuilder(Expr::eq(self.0, other.0))
    }

    /// `self < other`.
    pub fn lt(self, other: ExprBuilder) -> ExprBuilder {
        ExprBuilder(Expr::cmp(CmpOp::Lt, self.0, other.0))
    }

    /// `self and other`.
    pub fn and(self, other: ExprBuilder) -> ExprBuilder {
        ExprBuilder(Expr::And(vec![self.0, other.0]))
    }

    /// A literal value expression.
    pub fn lit(v: impl Into<Value>) -> ExprBuilder {
        ExprBuilder(Expr::Const(v.into()))
    }
}

enum Step {
    Filter(Box<dyn Fn(RowRef) -> ExprBuilder>),
    OrderBy(Box<dyn Fn(RowRef) -> ExprBuilder>, bool),
    Limit(usize),
}

/// A single-dataset pipeline builder (scans → filters → order → limit →
/// projection), plus a self-join entry point. Joins across builders use
/// [`QueryBuilder::join`].
pub struct QueryBuilder {
    dataset: String,
    steps: Vec<Step>,
}

impl QueryBuilder {
    /// Start from a full dataset scan.
    pub fn scan(dataset: &str) -> Self {
        QueryBuilder {
            dataset: dataset.to_string(),
            steps: Vec::new(),
        }
    }

    /// Keep rows where the predicate holds. Similarity predicates built
    /// with [`QueryBuilder::jaccard_sim`] / [`QueryBuilder::edit_distance_within`]
    /// are recognized by the optimizer exactly like their AQL forms.
    pub fn filter(mut self, f: impl Fn(RowRef) -> ExprBuilder + 'static) -> Self {
        self.steps.push(Step::Filter(Box::new(f)));
        self
    }

    /// Sort rows by the given key expression.
    pub fn order_by(mut self, f: impl Fn(RowRef) -> ExprBuilder + 'static, desc: bool) -> Self {
        self.steps.push(Step::OrderBy(Box::new(f), desc));
        self
    }

    /// Keep only the first `n` rows (after any ordering).
    pub fn limit(mut self, n: usize) -> Self {
        self.steps.push(Step::Limit(n));
        self
    }

    /// `similarity-jaccard(a, b) >= delta`.
    pub fn jaccard_sim(a: ExprBuilder, b: ExprBuilder, delta: f64) -> ExprBuilder {
        ExprBuilder(Expr::cmp(
            CmpOp::Ge,
            Expr::call("similarity-jaccard", vec![a.0, b.0]),
            Expr::lit(delta),
        ))
    }

    /// `edit-distance(a, b) <= k`.
    pub fn edit_distance_within(a: ExprBuilder, b: ExprBuilder, k: u32) -> ExprBuilder {
        ExprBuilder(Expr::cmp(
            CmpOp::Le,
            Expr::call("edit-distance", vec![a.0, b.0]),
            Expr::lit(k as i64),
        ))
    }

    /// Tokenized text constant (convenience for probe values).
    pub fn text_tokens(text: &str) -> ExprBuilder {
        ExprBuilder(Expr::call("word-tokens", vec![Expr::lit(text)]))
    }

    /// Build the logical plan for this pipeline with a final projection.
    fn plan(
        &self,
        vargen: &VarGen,
        project: impl Fn(RowRef) -> ExprBuilder,
    ) -> (PlanRef, RowRef) {
        let (scan, pk, rec) = build::scan(&self.dataset, vargen);
        let row = RowRef {
            rec_var: rec,
            pk_var: pk,
        };
        let mut plan = scan;
        for step in &self.steps {
            plan = match step {
                Step::Filter(f) => build::select(plan, f(row).0),
                Step::OrderBy(f, desc) => {
                    let e = f(row).0;
                    let (node, v) = match e {
                        Expr::Column(v) => (plan, v),
                        other => build::assign1(plan, vargen, other),
                    };
                    LogicalNode::new(
                        LogicalOp::OrderBy {
                            keys: vec![OrderKey { var: v, desc: *desc }],
                            global: true,
                        },
                        vec![node],
                    )
                }
                Step::Limit(n) => LogicalNode::new(LogicalOp::Limit { n: *n }, vec![plan]),
            };
        }
        let (with_result, rv) = build::assign1(plan, vargen, project(row).0);
        (build::project(with_result, vec![rv]), row)
    }

    /// Execute with a projection of each row.
    pub fn select(
        self,
        project: impl Fn(RowRef) -> ExprBuilder + 'static,
    ) -> PreparedQuery {
        PreparedQuery {
            build: Box::new(move |vargen| {
                let (plan, _) = self.plan(vargen, &project);
                build::write(plan)
            }),
        }
    }

    /// Self/cross join: combine two pipelines with a join predicate and a
    /// pair projection.
    pub fn join(
        self,
        right: QueryBuilder,
        on: impl Fn(RowRef, RowRef) -> ExprBuilder + 'static,
        project: impl Fn(RowRef, RowRef) -> ExprBuilder + 'static,
    ) -> PreparedQuery {
        PreparedQuery {
            build: Box::new(move |vargen| {
                let (lscan, lpk, lrec) = build::scan(&self.dataset, vargen);
                let lrow = RowRef {
                    rec_var: lrec,
                    pk_var: lpk,
                };
                let mut left = lscan;
                for step in &self.steps {
                    if let Step::Filter(f) = step {
                        left = build::select(left, f(lrow).0);
                    }
                }
                let (rscan, rpk, rrec) = build::scan(&right.dataset, vargen);
                let rrow = RowRef {
                    rec_var: rrec,
                    pk_var: rpk,
                };
                let mut r = rscan;
                for step in &right.steps {
                    if let Step::Filter(f) = step {
                        r = build::select(r, f(rrow).0);
                    }
                }
                let joined = build::join(left, r, on(lrow, rrow).0, Default::default());
                let (with_result, rv) =
                    build::assign1(joined, vargen, project(lrow, rrow).0);
                build::write(build::project(with_result, vec![rv]))
            }),
        }
    }
}

/// A built query, ready to run against an instance.
pub struct PreparedQuery {
    build: Box<dyn Fn(&VarGen) -> PlanRef>,
}

impl PreparedQuery {
    /// Run against `db` with default [`QueryOptions`].
    pub fn run(&self, db: &Instance) -> Result<QueryResult, CoreError> {
        self.run_with(db, &QueryOptions::default())
    }

    /// Run against `db`. Builder queries skip AQL parsing *and* admission
    /// control (they are the low-level bench/test API) but still execute
    /// on the shared worker pool under a per-query memory budget when the
    /// instance has a scheduler.
    pub fn run_with(
        &self,
        db: &Instance,
        options: &QueryOptions,
    ) -> Result<QueryResult, CoreError> {
        let vargen = VarGen::new();
        let root = (self.build)(&vargen);
        let compile_started = std::time::Instant::now();
        let opt_config = options
            .optimizer
            .clone()
            .unwrap_or_else(|| db.config().optimizer.clone());
        let catalog = db.catalog();
        let (optimized, rewrites) = optimize(
            &root,
            &catalog,
            &db.cluster().registry,
            &opt_config,
            &vargen,
        );
        let job = generate_job(&optimized, opt_config.enable_subplan_reuse)
            .map_err(CoreError::Translate)?;
        let plan = PlanInfo {
            logical_ops_before: asterix_algebricks::plan::operator_counts(&root),
            logical_ops_after: asterix_algebricks::plan::operator_counts(&optimized),
            rewrites,
            explain: asterix_algebricks::plan::explain(&optimized),
            physical_ops: job.operator_counts(),
        };
        let compile_time = compile_started.elapsed();
        let exec_started = std::time::Instant::now();
        let counters = options
            .profile
            .then(asterix_storage::QueryCounters::handle);
        // Builder queries bypass AQL compilation *and* admission control
        // (this is the low-level bench/test API), but still run on the
        // shared pool under a memory budget.
        let job_options = JobOptions {
            timeout: options.timeout,
            counters: counters.clone(),
            trace: None,
            pool: Some(db.scheduler.pool().clone()),
            cancel: None,
            memory_budget: Some(db.scheduler.memory_budget()),
            progress: None,
            result_sink: None,
        };
        let (tuples, stats) =
            run_job_with(&job, db.cluster(), &job_options).map_err(CoreError::from)?;
        let execution_time = exec_started.elapsed();
        let profile = counters.map(|c| {
            // Builder queries bypass the running-query registry, so they
            // carry the sentinel id 0 (real ids start at 1).
            crate::QueryProfile::build(
                0,
                &job,
                &stats,
                c.snapshot(),
                db.lsm_totals(),
                plan.rewrites.clone(),
                compile_time,
                execution_time,
            )
        });
        Ok(QueryResult {
            query_id: 0,
            rows: tuples
                .into_iter()
                .map(|mut t| t.pop().unwrap_or(Value::Missing))
                .collect(),
            streamed_rows: 0,
            stats,
            plan,
            compile_time,
            execution_time,
            profile,
            spans: Vec::new(),
        })
    }
}

/// Sharing note: `Arc`-shared subplans inside a prepared query keep their
/// materialize/reuse behaviour, exactly as in AQL-compiled plans.
#[allow(dead_code)]
fn _sharing_doc(_: Arc<LogicalNode>) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InstanceConfig;
    use asterix_adm::{record, IndexKind};

    fn db() -> Instance {
        let db = Instance::new(InstanceConfig::tiny(2));
        db.create_dataset("Reviews", "id").unwrap();
        for (id, name, summary) in [
            (1i64, "james", "great product value"),
            (2, "maria", "awful experience"),
            (3, "mario", "great product fantastic"),
        ] {
            db.insert(
                "Reviews",
                record! {"id" => id, "name" => name, "summary" => summary},
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn builder_selection() {
        let db = db();
        let r = QueryBuilder::scan("Reviews")
            .filter(|row| {
                QueryBuilder::jaccard_sim(
                    row.field("summary").word_tokens(),
                    QueryBuilder::text_tokens("great product"),
                    0.5,
                )
            })
            .select(|row| row.field("id"))
            .run(&db)
            .unwrap();
        assert_eq!(r.ids(), vec![1, 3]);
    }

    #[test]
    fn builder_uses_index_when_available() {
        let db = db();
        db.create_index("Reviews", "kw", "summary", IndexKind::Keyword)
            .unwrap();
        let q = QueryBuilder::scan("Reviews")
            .filter(|row| {
                QueryBuilder::jaccard_sim(
                    row.field("summary").word_tokens(),
                    QueryBuilder::text_tokens("great product value"),
                    0.8,
                )
            })
            .select(|row| row.field("id"));
        let r = q.run(&db).unwrap();
        assert!(r.plan.used_rule("introduce-index-for-selection"), "{:?}", r.plan.rewrites);
        assert_eq!(r.ids(), vec![1]);
    }

    #[test]
    fn builder_order_and_limit() {
        let db = db();
        let r = QueryBuilder::scan("Reviews")
            .order_by(|row| row.field("id"), true)
            .limit(2)
            .select(|row| row.field("id"))
            .run(&db)
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], Value::Int64(3));
    }

    #[test]
    fn builder_similarity_join() {
        let db = db();
        let r = QueryBuilder::scan("Reviews")
            .join(
                QueryBuilder::scan("Reviews"),
                |a, b| {
                    QueryBuilder::jaccard_sim(
                        a.field("summary").word_tokens(),
                        b.field("summary").word_tokens(),
                        0.5,
                    )
                    .and(a.key().lt(b.key()))
                },
                |a, b| ExprBuilder(Expr::ListCtor(vec![a.key().0, b.key().0])),
            )
            .run(&db)
            .unwrap();
        assert!(
            r.plan.used_rule("three-stage-similarity-join"),
            "{:?}",
            r.plan.rewrites
        );
        assert_eq!(r.rows.len(), 1); // (1, 3)
    }

    #[test]
    fn builder_edit_distance_filter() {
        let db = db();
        let r = QueryBuilder::scan("Reviews")
            .filter(|row| {
                QueryBuilder::edit_distance_within(
                    row.field("name"),
                    ExprBuilder::lit("marla"),
                    1,
                )
            })
            .select(|row| row.field("name"))
            .run(&db)
            .unwrap();
        assert_eq!(r.rows, vec![Value::from("maria")]);
    }
}
