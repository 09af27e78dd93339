//! The rewrite rules of §5.
//!
//! Rules are applied bottom-up by the [`crate::optimizer`] driver; a rule
//! inspects one node (with its already-rewritten inputs) and either
//! returns a replacement subplan or `None`.

pub mod common;
pub mod join_index;
pub mod key_range;
pub mod select_index;
pub mod three_stage;

use crate::catalog::Catalog;
use crate::optimizer::OptimizerConfig;
use crate::plan::{LogicalNode, LogicalOp, PlanRef, VarGen, VarId};
use asterix_simfn::FunctionRegistry;
use std::sync::Arc;

/// Everything a rule may consult.
pub struct OptContext<'a> {
    pub catalog: &'a dyn Catalog,
    pub registry: &'a FunctionRegistry,
    pub config: &'a OptimizerConfig,
    pub vargen: &'a VarGen,
}

/// A rewrite rule.
pub trait RewriteRule {
    fn name(&self) -> &'static str;
    /// Return a replacement for `node` if the rule matches.
    fn apply(&self, node: &PlanRef, ctx: &OptContext<'_>) -> Option<PlanRef>;
}

/// Variables that uniquely identify a row of this subplan's output,
/// derived inductively:
///
/// * a scan's rows are keyed by its primary key,
/// * a join's rows by the union of its inputs' keys,
/// * a group-by's rows by its (renamed) group variables,
/// * filters/sorts/assigns/lookups preserve keys; an unnest or plain
///   union duplicates rows and loses them; a *disjoint* union (corner
///   split) keeps keys shared by both branches; a projection keeps a key
///   only if it retains all of its variables.
///
/// Used by the three-stage join (to join record-id pairs back to full
/// records in stage 3) and by the surrogate index-nested-loop join
/// (§5.4.1). Returns the first key still visible in the output schema.
pub fn subtree_row_keys(node: &PlanRef) -> Option<Vec<VarId>> {
    const MAX_ALTS: usize = 16;
    type Alts = Vec<Vec<VarId>>;

    fn norm(mut k: Vec<VarId>) -> Vec<VarId> {
        k.sort_unstable();
        k.dedup();
        k
    }

    /// Equi-join var pairs in a condition's top-level conjuncts.
    fn equi_pairs(e: &asterix_hyracks::Expr) -> Vec<(VarId, VarId)> {
        use asterix_hyracks::{CmpOp, Expr};
        crate::analysis::split_conjuncts(e)
            .into_iter()
            .filter_map(|c| match c {
                Expr::Cmp(CmpOp::Eq, a, b) => match (*a, *b) {
                    (Expr::Column(x), Expr::Column(y)) => Some((x, y)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    fn keys(node: &PlanRef, memo: &mut Vec<(*const LogicalNode, Alts)>) -> Alts {
        let ptr = Arc::as_ptr(node);
        if let Some((_, k)) = memo.iter().find(|(p, _)| *p == ptr) {
            return k.clone();
        }
        let result: Alts = match &node.op {
            LogicalOp::DataSourceScan { pk_var, .. } => vec![vec![*pk_var]],
            LogicalOp::GroupBy { group_vars, .. } => {
                vec![norm(group_vars.iter().map(|(out, _)| *out).collect())]
            }
            LogicalOp::Join { condition, .. } => {
                let l = keys(&node.inputs[0], memo);
                let r = keys(&node.inputs[1], memo);
                let pairs = equi_pairs(condition);
                let mut alts: Alts = Vec::new();
                for lk in &l {
                    for rk in &r {
                        let mut base = lk.clone();
                        base.extend(rk);
                        let base = norm(base);
                        // The base union is a key; equi-pairs allow
                        // substituting one side of an equality for the
                        // other (functional dependency).
                        let mut frontier = vec![base];
                        for (a, b) in &pairs {
                            let mut next = Vec::new();
                            for k in &frontier {
                                next.push(k.clone());
                                if k.contains(a) {
                                    let swapped: Vec<VarId> = k
                                        .iter()
                                        .map(|v| if v == a { *b } else { *v })
                                        .collect();
                                    next.push(norm(swapped));
                                }
                                if k.contains(b) {
                                    let swapped: Vec<VarId> = k
                                        .iter()
                                        .map(|v| if v == b { *a } else { *v })
                                        .collect();
                                    next.push(norm(swapped));
                                }
                            }
                            next.sort();
                            next.dedup();
                            next.truncate(MAX_ALTS);
                            frontier = next;
                        }
                        alts.extend(frontier);
                    }
                }
                alts.sort();
                alts.dedup();
                alts.truncate(MAX_ALTS);
                alts
            }
            LogicalOp::Select { .. }
            | LogicalOp::Assign { .. }
            | LogicalOp::OrderBy { .. }
            | LogicalOp::Limit { .. }
            | LogicalOp::StreamPos { .. }
            | LogicalOp::PrimaryLookup { .. }
            | LogicalOp::Write => keys(&node.inputs[0], memo),
            LogicalOp::Project { vars } => keys(&node.inputs[0], memo)
                .into_iter()
                .filter(|k| k.iter().all(|v| vars.contains(v)))
                .collect(),
            // A disjoint union (the Fig 14 / three-stage corner splits
            // partition one stream by a predicate) keeps any key that
            // identifies rows in *both* branches: rename each branch's
            // keys positionally into the union's output variables and
            // intersect.
            LogicalOp::UnionAll { vars, disjoint } => {
                if !*disjoint {
                    Vec::new()
                } else {
                    fn renamed(
                        input: &PlanRef,
                        vars: &[VarId],
                        memo: &mut Vec<(*const LogicalNode, Alts)>,
                    ) -> Alts {
                        let schema = &input.schema;
                        keys(input, memo)
                            .into_iter()
                            .filter_map(|k| {
                                k.iter()
                                    .map(|v| {
                                        schema
                                            .iter()
                                            .position(|s| s == v)
                                            .map(|i| vars[i])
                                    })
                                    .collect::<Option<Vec<VarId>>>()
                                    .map(norm)
                            })
                            .collect()
                    }
                    let l = renamed(&node.inputs[0], vars, memo);
                    let r = renamed(&node.inputs[1], vars, memo);
                    l.into_iter().filter(|k| r.contains(k)).collect()
                }
            }
            // Row-multiplying or row-merging operators lose key identity.
            LogicalOp::Unnest { .. }
            | LogicalOp::IndexSearch { .. }
            | LogicalOp::EmptyTupleSource => Vec::new(),
        };
        memo.push((ptr, result.clone()));
        result
    }

    let mut memo = Vec::new();
    keys(node, &mut memo)
        .into_iter()
        .find(|k| !k.is_empty() && k.iter().all(|v| node.schema.contains(v)))
}

/// True if the expression only references variables from `schema`.
pub fn bound_by(e: &asterix_hyracks::Expr, schema: &[VarId]) -> bool {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    cols.iter().all(|c| schema.contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build;
    use asterix_hyracks::{CmpOp, Expr};

    #[test]
    fn row_keys_of_scan_and_join() {
        let vg = VarGen::new();
        let (l, lpk, _) = build::scan("a", &vg);
        assert_eq!(subtree_row_keys(&l), Some(vec![lpk]));
        let (r, rpk, _) = build::scan("b", &vg);
        let j = build::join(
            l,
            r,
            Expr::cmp(CmpOp::Eq, build::v(lpk), build::v(rpk)),
            Default::default(),
        );
        // The equi condition lets either pk alone identify a joined row.
        let k = subtree_row_keys(&j).unwrap();
        assert!(k == vec![lpk] || k == vec![rpk] || k == vec![lpk, rpk], "{k:?}");
    }

    #[test]
    fn row_keys_lost_by_projection() {
        let vg = VarGen::new();
        let (s, _pk, rec) = build::scan("a", &vg);
        let p = build::project(s, vec![rec]);
        assert_eq!(subtree_row_keys(&p), None);
    }

    #[test]
    fn row_keys_from_group_by_are_group_vars() {
        let vg = VarGen::new();
        let (s, pk, rec) = build::scan("a", &vg);
        let out = 99;
        let g = LogicalNode::new(
            LogicalOp::GroupBy {
                group_vars: vec![(out, rec)],
                aggs: vec![],
            },
            vec![s],
        );
        assert_eq!(subtree_row_keys(&g), Some(vec![out]));
        let _ = pk;
    }

    #[test]
    fn bound_by_checks_schema() {
        let e = Expr::eq(Expr::col(1), Expr::col(3));
        assert!(bound_by(&e, &[1, 2, 3]));
        assert!(!bound_by(&e, &[1, 2]));
    }
}
