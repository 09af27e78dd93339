//! The logical plan algebra.
//!
//! A plan is a DAG of immutable [`LogicalNode`]s behind `Arc`s. Rewrites
//! are functional: a rule returns a new node (sharing unchanged children).
//! Every column is identified by a [`VarId`]; each node stores its output
//! schema (the variables it produces, in column order). Logical
//! expressions reuse the runtime [`Expr`] type with `Expr::Column(i)`
//! meaning *variable* `i` — the job generator remaps variables to physical
//! column positions at the end.

use asterix_hyracks::{AggSpec, Expr, PreTokenized, SearchMeasure, SortKey};
use asterix_storage::KeyRange;
use std::fmt::Write as _;
use std::sync::Arc;

/// A logical variable.
pub type VarId = usize;

/// Shared reference to a plan node.
pub type PlanRef = Arc<LogicalNode>;

/// Fresh-variable generator threaded through translation and optimization.
#[derive(Debug, Default)]
pub struct VarGen(std::sync::atomic::AtomicUsize);

impl VarGen {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn starting_at(n: usize) -> Self {
        VarGen(std::sync::atomic::AtomicUsize::new(n))
    }

    pub fn fresh(&self) -> VarId {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

/// Sort direction for a logical order-by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderKey {
    pub var: VarId,
    pub desc: bool,
}

/// Join distribution hints (set by rewrites; the job generator obeys).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinHint {
    /// Pick by condition shape: equi → hash repartition, else broadcast NL.
    #[default]
    Auto,
    /// Broadcast the *left* input to all partitions and build a hash table
    /// from it (`/*+ bcast */` in Fig 11 line 19).
    BroadcastLeftHash,
    /// Broadcast the left input and run a nested-loop join.
    BroadcastLeftNl,
}

/// Aggregate function in a logical group-by.
#[derive(Clone, Debug, PartialEq)]
pub enum AggFn {
    Count,
    Sum(VarId),
    Min(VarId),
    Max(VarId),
    First(VarId),
    CollectSortedSet(VarId),
}

/// The logical operators.
#[derive(Clone, Debug)]
pub enum LogicalOp {
    /// Scan a dataset partition-parallel: produces `[pk_var, rec_var]`
    /// for the records whose primary key lies in `range` (a superset of
    /// what the selects above keep; [`KeyRange::FULL`] reads every
    /// record).
    DataSourceScan {
        dataset: String,
        pk_var: VarId,
        rec_var: VarId,
        range: KeyRange,
    },
    /// Produce a single empty tuple (constant plans start here).
    EmptyTupleSource,
    Select {
        condition: Expr,
    },
    /// Append `vars[i] := exprs[i]` (exprs see the input schema).
    Assign {
        vars: Vec<VarId>,
        exprs: Vec<Expr>,
    },
    /// Keep only `vars`.
    Project {
        vars: Vec<VarId>,
    },
    /// Inner join of two inputs; condition sees both schemas.
    Join {
        condition: Expr,
        hint: JoinHint,
    },
    /// Group by; each group var is `(output var, input var)` so a
    /// group-by can rename its keys (needed when record-id pairs join back
    /// to the original scans in stage 3 of the three-stage join). `aggs`
    /// are `(output var, function)`.
    GroupBy {
        group_vars: Vec<(VarId, VarId)>,
        aggs: Vec<(VarId, AggFn)>,
    },
    /// Order the stream. `global` gathers to one partition first (final
    /// result ordering); local sorts stay partition-parallel (pk sorting
    /// before primary lookups).
    OrderBy {
        keys: Vec<OrderKey>,
        global: bool,
    },
    /// Unnest a list-valued expression: appends `var` (and `pos_var`).
    Unnest {
        var: VarId,
        expr: Expr,
        pos_var: Option<VarId>,
    },
    /// Append a 0-based global stream position (used after a global sort
    /// to assign token ranks in stage 1 of the three-stage join).
    StreamPos {
        var: VarId,
    },
    Limit {
        n: usize,
    },
    /// Concatenate two inputs with identical schemas, renaming to `vars`.
    ///
    /// `disjoint` is a rewrite-supplied guarantee that the two branches
    /// emit disjoint row sets (they partition the rows of one logical
    /// stream by a predicate, as in the Fig 14 corner-case split), so a
    /// row key shared by both branches still identifies rows of the
    /// union. Plain unions must set it `false`.
    UnionAll {
        vars: Vec<VarId>,
        disjoint: bool,
    },
    /// Secondary-index search (introduced by index rewrites): appends the
    /// candidate primary key as `pk_var`.
    IndexSearch {
        dataset: String,
        index: String,
        key_var: VarId,
        measure: SearchMeasure,
        pk_var: VarId,
        /// Tokens of the search key computed once at optimize time, when
        /// the key is a query constant (selection plans). `None` for
        /// runtime-varying keys (index-nested-loop join probes).
        pre_tokens: Option<PreTokenized>,
    },
    /// Primary-index lookup of `pk_var`: appends the record as `rec_var`.
    PrimaryLookup {
        dataset: String,
        pk_var: VarId,
        rec_var: VarId,
    },
    /// Root: ship results to the coordinator.
    Write,
}

/// A logical plan node: an operator, its inputs, and its output schema.
#[derive(Clone, Debug)]
pub struct LogicalNode {
    pub op: LogicalOp,
    pub inputs: Vec<PlanRef>,
    /// Output variables in column order.
    pub schema: Vec<VarId>,
}

impl LogicalNode {
    /// Construct a node, computing its schema from the operator and input
    /// schemas.
    pub fn new(op: LogicalOp, inputs: Vec<PlanRef>) -> PlanRef {
        let schema = Self::compute_schema(&op, &inputs);
        Arc::new(LogicalNode { op, inputs, schema })
    }

    fn compute_schema(op: &LogicalOp, inputs: &[PlanRef]) -> Vec<VarId> {
        match op {
            LogicalOp::DataSourceScan { pk_var, rec_var, .. } => vec![*pk_var, *rec_var],
            LogicalOp::EmptyTupleSource => vec![],
            LogicalOp::Select { .. }
            | LogicalOp::OrderBy { .. }
            | LogicalOp::Limit { .. }
            | LogicalOp::Write => inputs[0].schema.clone(),
            LogicalOp::Assign { vars, .. } => {
                let mut s = inputs[0].schema.clone();
                s.extend(vars);
                s
            }
            LogicalOp::Project { vars } => vars.clone(),
            LogicalOp::Join { .. } => {
                let mut s = inputs[0].schema.clone();
                s.extend(&inputs[1].schema);
                s
            }
            LogicalOp::GroupBy { group_vars, aggs } => {
                let mut s: Vec<VarId> = group_vars.iter().map(|(out, _)| *out).collect();
                s.extend(aggs.iter().map(|(v, _)| *v));
                s
            }
            LogicalOp::Unnest { var, pos_var, .. } => {
                let mut s = inputs[0].schema.clone();
                s.push(*var);
                if let Some(p) = pos_var {
                    s.push(*p);
                }
                s
            }
            LogicalOp::StreamPos { var } => {
                let mut s = inputs[0].schema.clone();
                s.push(*var);
                s
            }
            LogicalOp::UnionAll { vars, .. } => vars.clone(),
            LogicalOp::IndexSearch { pk_var, .. } => {
                let mut s = inputs[0].schema.clone();
                s.push(*pk_var);
                s
            }
            LogicalOp::PrimaryLookup { pk_var: _, rec_var, .. } => {
                let mut s = inputs[0].schema.clone();
                s.push(*rec_var);
                s
            }
        }
    }

    /// Operator display name (used by explain and Fig 15 counting).
    pub fn name(&self) -> &'static str {
        match &self.op {
            LogicalOp::DataSourceScan { .. } => "data-scan",
            LogicalOp::EmptyTupleSource => "empty-tuple-source",
            LogicalOp::Select { .. } => "select",
            LogicalOp::Assign { .. } => "assign",
            LogicalOp::Project { .. } => "project",
            LogicalOp::Join { .. } => "join",
            LogicalOp::GroupBy { .. } => "group",
            LogicalOp::OrderBy { .. } => "order",
            LogicalOp::Unnest { .. } => "unnest",
            LogicalOp::StreamPos { .. } => "stream-pos",
            LogicalOp::Limit { .. } => "limit",
            LogicalOp::UnionAll { .. } => "union-all",
            LogicalOp::IndexSearch { .. } => "index-search",
            LogicalOp::PrimaryLookup { .. } => "primary-lookup",
            LogicalOp::Write => "write",
        }
    }
}

/// Walk the DAG (each shared node visited once) and count operators by
/// name — the logical-plan side of Fig 15.
pub fn operator_counts(root: &PlanRef) -> Vec<(&'static str, usize)> {
    use std::collections::HashMap;
    let mut seen: Vec<*const LogicalNode> = Vec::new();
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    fn walk(
        node: &PlanRef,
        seen: &mut Vec<*const LogicalNode>,
        counts: &mut std::collections::HashMap<&'static str, usize>,
    ) {
        let ptr = Arc::as_ptr(node);
        if seen.contains(&ptr) {
            return;
        }
        seen.push(ptr);
        *counts.entry(node.name()).or_insert(0) += 1;
        for i in &node.inputs {
            walk(i, seen, counts);
        }
    }
    walk(root, &mut seen, &mut counts);
    let mut out: Vec<(&'static str, usize)> = counts.into_iter().collect();
    out.sort();
    out
}

/// Total operator count (shared nodes counted once).
pub fn total_operators(root: &PlanRef) -> usize {
    operator_counts(root).iter().map(|(_, n)| n).sum()
}

/// Pretty-print a plan (indented tree; shared subtrees printed once and
/// referenced by id afterwards — mirroring AsterixDB's replicate output).
pub fn explain(root: &PlanRef) -> String {
    let mut out = String::new();
    let mut shared: Vec<*const LogicalNode> = Vec::new();
    fn describe(node: &LogicalNode) -> String {
        match &node.op {
            LogicalOp::DataSourceScan { dataset, pk_var, rec_var, range } => {
                if range.is_full() {
                    format!("data-scan {dataset} -> ${pk_var}, ${rec_var}")
                } else {
                    format!("data-scan {dataset} key {range} -> ${pk_var}, ${rec_var}")
                }
            }
            LogicalOp::EmptyTupleSource => "empty-tuple-source".into(),
            LogicalOp::Select { condition } => format!("select {condition:?}"),
            LogicalOp::Assign { vars, exprs } => format!(
                "assign {}",
                vars.iter()
                    .zip(exprs)
                    .map(|(v, e)| format!("${v} := {e:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalOp::Project { vars } => format!(
                "project {}",
                vars.iter().map(|v| format!("${v}")).collect::<Vec<_>>().join(", ")
            ),
            LogicalOp::Join { condition, hint } => format!("join[{hint:?}] {condition:?}"),
            LogicalOp::GroupBy { group_vars, aggs } => format!(
                "group by {:?} aggs {:?}",
                group_vars,
                aggs.iter().map(|(v, f)| format!("${v}:{f:?}")).collect::<Vec<_>>()
            ),
            LogicalOp::OrderBy { keys, global } => format!(
                "order{} by {:?}",
                if *global { " (global)" } else { " (local)" },
                keys.iter().map(|k| (k.var, k.desc)).collect::<Vec<_>>()
            ),
            LogicalOp::Unnest { var, expr, pos_var } => {
                format!("unnest ${var}{} <- {expr:?}", pos_var.map(|p| format!(" at ${p}")).unwrap_or_default())
            }
            LogicalOp::StreamPos { var } => format!("stream-pos ${var}"),
            LogicalOp::Limit { n } => format!("limit {n}"),
            LogicalOp::UnionAll { .. } => "union-all".into(),
            LogicalOp::IndexSearch { dataset, index, key_var, measure, pk_var, pre_tokens } => format!(
                "index-search {dataset}.{index} key ${key_var} [{measure:?}]{} -> ${pk_var}",
                if pre_tokens.is_some() { " (pre-tokenized)" } else { "" }
            ),
            LogicalOp::PrimaryLookup { dataset, pk_var, rec_var } => {
                format!("primary-lookup {dataset} pk ${pk_var} -> ${rec_var}")
            }
            LogicalOp::Write => "write".into(),
        }
    }
    fn walk(
        node: &PlanRef,
        depth: usize,
        out: &mut String,
        shared: &mut Vec<*const LogicalNode>,
    ) {
        let ptr = Arc::as_ptr(node);
        let indent = "  ".repeat(depth);
        if Arc::strong_count(node) > 1 {
            if let Some(id) = shared.iter().position(|p| *p == ptr) {
                let _ = writeln!(out, "{indent}@shared-{id} (reused)");
                return;
            }
            shared.push(ptr);
            let _ = writeln!(
                out,
                "{indent}@shared-{} := {}",
                shared.len() - 1,
                describe(node)
            );
        } else {
            let _ = writeln!(out, "{indent}{}", describe(node));
        }
        for i in &node.inputs {
            walk(i, depth + 1, out, shared);
        }
    }
    walk(root, 0, &mut out, &mut shared);
    out
}

/// Convenience builders used by the translator and rewrites.
pub mod build {
    use super::*;

    pub fn scan(dataset: &str, vg: &VarGen) -> (PlanRef, VarId, VarId) {
        let pk = vg.fresh();
        let rec = vg.fresh();
        (
            LogicalNode::new(
                LogicalOp::DataSourceScan {
                    dataset: dataset.to_string(),
                    pk_var: pk,
                    rec_var: rec,
                    range: KeyRange::FULL,
                },
                vec![],
            ),
            pk,
            rec,
        )
    }

    pub fn select(input: PlanRef, condition: Expr) -> PlanRef {
        LogicalNode::new(LogicalOp::Select { condition }, vec![input])
    }

    pub fn assign(input: PlanRef, vars: Vec<VarId>, exprs: Vec<Expr>) -> PlanRef {
        LogicalNode::new(LogicalOp::Assign { vars, exprs }, vec![input])
    }

    pub fn assign1(input: PlanRef, vg: &VarGen, expr: Expr) -> (PlanRef, VarId) {
        let v = vg.fresh();
        (assign(input, vec![v], vec![expr]), v)
    }

    pub fn project(input: PlanRef, vars: Vec<VarId>) -> PlanRef {
        LogicalNode::new(LogicalOp::Project { vars }, vec![input])
    }

    pub fn join(left: PlanRef, right: PlanRef, condition: Expr, hint: JoinHint) -> PlanRef {
        LogicalNode::new(LogicalOp::Join { condition, hint }, vec![left, right])
    }

    pub fn write(input: PlanRef) -> PlanRef {
        LogicalNode::new(LogicalOp::Write, vec![input])
    }

    /// Variable reference expression.
    pub fn v(var: VarId) -> Expr {
        Expr::Column(var)
    }
}

/// Sort keys translated from logical order keys against a schema.
pub fn order_to_sortkeys(keys: &[OrderKey], schema: &[VarId]) -> Option<Vec<SortKey>> {
    keys.iter()
        .map(|k| {
            schema.iter().position(|v| *v == k.var).map(|col| SortKey {
                col,
                desc: k.desc,
            })
        })
        .collect()
}

/// Lower a logical aggregate to the physical one against a schema.
pub fn agg_to_physical(agg: &AggFn, schema: &[VarId]) -> Option<AggSpec> {
    let pos = |v: &VarId| schema.iter().position(|s| s == v);
    Some(match agg {
        AggFn::Count => AggSpec::Count,
        AggFn::Sum(v) => AggSpec::Sum(pos(v)?),
        AggFn::Min(v) => AggSpec::Min(pos(v)?),
        AggFn::Max(v) => AggSpec::Max(pos(v)?),
        AggFn::First(v) => AggSpec::First(pos(v)?),
        AggFn::CollectSortedSet(v) => AggSpec::CollectSortedSet(pos(v)?),
    })
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use asterix_hyracks::CmpOp;

    #[test]
    fn schemas_compose() {
        let vg = VarGen::new();
        let (s, pk, rec) = scan("d", &vg);
        assert_eq!(s.schema, vec![pk, rec]);
        let (a, summary) = assign1(s.clone(), &vg, v(rec).field("summary"));
        assert_eq!(a.schema, vec![pk, rec, summary]);
        let p = project(a, vec![summary, pk]);
        assert_eq!(p.schema, vec![summary, pk]);
    }

    #[test]
    fn join_schema_concats() {
        let vg = VarGen::new();
        let (l, lpk, _) = scan("a", &vg);
        let (r, rpk, _) = scan("b", &vg);
        let j = join(
            l,
            r,
            Expr::cmp(CmpOp::Eq, v(lpk), v(rpk)),
            JoinHint::Auto,
        );
        assert_eq!(j.schema.len(), 4);
    }

    #[test]
    fn operator_counts_shared_once() {
        let vg = VarGen::new();
        let (s, pk, _) = scan("d", &vg);
        let j = join(
            s.clone(),
            s.clone(),
            Expr::cmp(CmpOp::Eq, v(pk), v(pk)),
            JoinHint::Auto,
        );
        let w = write(j);
        let counts = operator_counts(&w);
        assert!(counts.contains(&("data-scan", 1)), "{counts:?}");
        assert_eq!(total_operators(&w), 3);
    }

    #[test]
    fn explain_marks_shared() {
        let vg = VarGen::new();
        let (s, _, _) = scan("d", &vg);
        let j = join(s.clone(), s.clone(), Expr::lit(true), JoinHint::Auto);
        let text = explain(&write(j));
        assert!(text.contains("@shared-0 :="), "{text}");
        assert!(text.contains("(reused)"), "{text}");
    }

    #[test]
    fn order_keys_resolve() {
        let keys = [OrderKey { var: 7, desc: true }];
        let sk = order_to_sortkeys(&keys, &[5, 7]).unwrap();
        assert_eq!(sk[0].col, 1);
        assert!(sk[0].desc);
        assert!(order_to_sortkeys(&keys, &[1, 2]).is_none());
    }
}
