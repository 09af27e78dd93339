//! The index-based *selection* rewrite (Fig 7, §5.1.1).
//!
//! Pattern: `SELECT(cond) ← DATA-SCAN(ds)` where `cond` contains a
//! similarity (or exact-match) conjunct with one constant argument and one
//! argument reading an indexed field of the scanned record.
//!
//! Replacement:
//!
//! ```text
//! PROJECT [pk, rec]
//!   SELECT cond                        (false-positive verification)
//!     PRIMARY-LOOKUP ds -> rec
//!       ORDER (local) by pk            (page-cache locality, §4.1.1)
//!         INDEX-SEARCH ds.idx key $K   (broadcast of the constant key)
//!           ASSIGN $K := constant
//!             EMPTY-TUPLE-SOURCE
//! ```
//!
//! Edit-distance corner cases (`T ≤ 0` for the constant key) are detected
//! *at compile time* and the rule declines, leaving the scan plan — §5.1.1:
//! "When detecting a corner case, it simply stops rewriting the plan."

use crate::analysis::{
    const_fold, edit_distance_index_usable, indexed_field_of, is_constant, jaccard_index_usable,
    probe_expr_of, recognize_similarity, split_conjuncts,
};
use crate::catalog::find_applicable_index;
use crate::plan::{build, LogicalNode, LogicalOp, PlanRef};
use crate::rules::{OptContext, RewriteRule};
use asterix_adm::{IndexKind, Value};
use asterix_hyracks::{CmpOp, Expr, PreTokenized, SearchMeasure};

pub struct IndexSelectionRule;

impl RewriteRule for IndexSelectionRule {
    fn name(&self) -> &'static str {
        "introduce-index-for-selection"
    }

    fn apply(&self, node: &PlanRef, ctx: &OptContext<'_>) -> Option<PlanRef> {
        if !ctx.config.enable_index_select {
            return None;
        }
        let LogicalOp::Select { condition } = &node.op else {
            return None;
        };
        let scan = &node.inputs[0];
        let LogicalOp::DataSourceScan {
            dataset,
            pk_var,
            rec_var,
            ..
        } = &scan.op
        else {
            return None;
        };
        let ds = ctx.catalog.dataset(dataset)?;

        for conjunct in split_conjuncts(condition) {
            // Similarity conjunct with a constant side?
            let candidate = recognize_similarity(&conjunct)
                .and_then(|p| {
                    let (const_arg, var_arg) = match (
                        is_constant(&p.args[0]),
                        is_constant(&p.args[1]),
                    ) {
                        (true, false) => (&p.args[0], &p.args[1]),
                        (false, true) => (&p.args[1], &p.args[0]),
                        _ => return None,
                    };
                    Some((p.measure.clone(), const_arg.clone(), var_arg.clone()))
                })
                .or_else(|| exact_match_conjunct(&conjunct))
                .or_else(|| contains_conjunct(&conjunct));
            let Some((measure, const_arg, var_arg)) = candidate else {
                continue;
            };
            // The variable side must read a field of the scanned record.
            let Some((var, field)) = indexed_field_of(&var_arg) else {
                continue;
            };
            if var != *rec_var {
                continue;
            }
            let index = match find_applicable_index(ds, &field, &measure) {
                Some(i) => i,
                None => continue,
            };
            // The probe key is the folded constant.
            let Some(probe) = const_fold(&probe_expr_of(&const_arg), ctx.registry) else {
                continue;
            };
            // Compile-time corner-case check for edit distance.
            if let SearchMeasure::EditDistance { k } = &measure {
                let IndexKind::NGram(n) = index.kind else {
                    continue;
                };
                if !edit_distance_index_usable(&probe, *k, n) {
                    // Corner case: stop rewriting; keep the scan plan.
                    return None;
                }
            }
            // Compile-time corner-case check for Jaccard: δ <= 0 or an
            // empty probe token set (J(∅, ∅) = 1 still matches
            // empty-token records the index cannot surface).
            if let SearchMeasure::Jaccard { delta } = &measure {
                if !jaccard_index_usable(&probe, *delta, index.kind) {
                    return None;
                }
            }
            // contains() needs a pattern of at least n characters; shorter
            // patterns produce grams the index does not store.
            if matches!(measure, SearchMeasure::Contains) {
                let IndexKind::NGram(n) = index.kind else {
                    continue;
                };
                if probe.as_str().is_none_or(|s| s.chars().count() < n) {
                    return None;
                }
            }
            // The probe is a query constant: tokenize it once here so the
            // runtime never re-tokenizes it (every partition's search
            // operator shares the same token list).
            let pre_tokens = if ctx.config.pre_tokenize {
                Some(PreTokenized {
                    key: probe.clone(),
                    tokens: asterix_storage::index_tokens(index.kind, &probe).into(),
                })
            } else {
                None
            };
            // Build the index plan.
            let ets = LogicalNode::new(LogicalOp::EmptyTupleSource, vec![]);
            let (keyed, key_var) = build::assign1(ets, ctx.vargen, Expr::Const(probe));
            let searched = LogicalNode::new(
                LogicalOp::IndexSearch {
                    dataset: dataset.clone(),
                    index: index.name.clone(),
                    key_var,
                    measure,
                    pk_var: *pk_var,
                    pre_tokens,
                },
                vec![keyed],
            );
            let sorted = if ctx.config.sort_pks {
                LogicalNode::new(
                    LogicalOp::OrderBy {
                        keys: vec![crate::plan::OrderKey {
                            var: *pk_var,
                            desc: false,
                        }],
                        global: false,
                    },
                    vec![searched],
                )
            } else {
                searched
            };
            let looked_up = LogicalNode::new(
                LogicalOp::PrimaryLookup {
                    dataset: dataset.clone(),
                    pk_var: *pk_var,
                    rec_var: *rec_var,
                },
                vec![sorted],
            );
            let verified = build::select(looked_up, condition.clone());
            return Some(build::project(verified, vec![*pk_var, *rec_var]));
        }
        None
    }
}

/// `contains(field, constant)` → n-gram index search requiring every
/// pattern gram (Fig 13's second n-gram function).
fn contains_conjunct(conjunct: &Expr) -> Option<(SearchMeasure, Expr, Expr)> {
    let Expr::Call(name, args) = conjunct else {
        return None;
    };
    if name != "contains" || args.len() != 2 {
        return None;
    }
    // contains(haystack_field, needle_const)
    if is_constant(&args[1]) && !is_constant(&args[0]) {
        Some((SearchMeasure::Contains, args[1].clone(), args[0].clone()))
    } else {
        None
    }
}

/// `field = constant` (either side) → exact B+-tree search.
fn exact_match_conjunct(conjunct: &Expr) -> Option<(SearchMeasure, Expr, Expr)> {
    let Expr::Cmp(CmpOp::Eq, l, r) = conjunct else {
        return None;
    };
    let (c, v) = match (is_constant(l), is_constant(r)) {
        (true, false) => (l, r),
        (false, true) => (r, l),
        _ => return None,
    };
    // Exclude unknown constants (null = x never matches an index entry).
    if matches!(c.as_ref(), Expr::Const(Value::Null | Value::Missing)) {
        return None;
    }
    Some((SearchMeasure::Exact, (**c).clone(), (**v).clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SimpleCatalog;
    use crate::optimizer::OptimizerConfig;
    use crate::plan::{explain, VarGen};
    use asterix_adm::{DatasetDef, IndexDef};
    use asterix_simfn::FunctionRegistry;

    fn catalog() -> SimpleCatalog {
        let mut ds = DatasetDef::new("ARevs", "id");
        ds.add_index(IndexDef {
            name: "nix".into(),
            field: "reviewerName".into(),
            kind: IndexKind::NGram(2),
        })
        .unwrap();
        ds.add_index(IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        let mut c = SimpleCatalog::new();
        c.add(ds);
        c
    }

    fn try_rule(cond: impl Fn(usize) -> Expr) -> (Option<PlanRef>, VarGen) {
        let vg = VarGen::starting_at(100);
        let cat = catalog();
        let reg = FunctionRegistry::with_builtins();
        let cfg = OptimizerConfig::default();
        let (scan, _pk, rec) = build::scan("ARevs", &vg);
        let sel = build::select(scan, cond(rec));
        let ctx = OptContext {
            catalog: &cat,
            registry: &reg,
            config: &cfg,
            vargen: &vg,
        };
        (IndexSelectionRule.apply(&sel, &ctx), vg)
    }

    fn ed_cond(rec: usize, query: &str, k: i64) -> Expr {
        Expr::cmp(
            CmpOp::Le,
            Expr::call(
                "edit-distance",
                vec![Expr::Column(rec).field("reviewerName"), Expr::lit(query)],
            ),
            Expr::lit(k),
        )
    }

    #[test]
    fn edit_distance_selection_rewritten() {
        let (out, _) = try_rule(|rec| ed_cond(rec, "marla", 1));
        let plan = out.expect("must rewrite");
        let text = explain(&plan);
        assert!(text.contains("index-search ARevs.nix"), "{text}");
        assert!(text.contains("primary-lookup"), "{text}");
        assert!(text.contains("order (local)"), "{text}");
    }

    #[test]
    fn corner_case_not_rewritten() {
        // "marla" with k=2 → T = 4 - 4 = 0: must keep the scan plan.
        let (out, _) = try_rule(|rec| ed_cond(rec, "marla", 2));
        assert!(out.is_none());
    }

    #[test]
    fn jaccard_selection_rewritten() {
        let (out, _) = try_rule(|rec| {
            Expr::cmp(
                CmpOp::Ge,
                Expr::call(
                    "similarity-jaccard",
                    vec![
                        Expr::call("word-tokens", vec![Expr::Column(rec).field("summary")]),
                        Expr::call("word-tokens", vec![Expr::lit("great product")]),
                    ],
                ),
                Expr::lit(0.5f64),
            )
        });
        let plan = out.expect("must rewrite");
        assert!(explain(&plan).contains("index-search ARevs.smix"));
    }

    #[test]
    fn no_index_no_rewrite() {
        // Similarity on a field without a compatible index.
        let (out, _) = try_rule(|rec| {
            Expr::cmp(
                CmpOp::Ge,
                Expr::call(
                    "similarity-jaccard",
                    vec![
                        Expr::call("word-tokens", vec![Expr::Column(rec).field("other")]),
                        Expr::call("word-tokens", vec![Expr::lit("x")]),
                    ],
                ),
                Expr::lit(0.5f64),
            )
        });
        assert!(out.is_none());
    }

    #[test]
    fn both_sides_variable_no_rewrite() {
        let (out, _) = try_rule(|rec| {
            Expr::cmp(
                CmpOp::Le,
                Expr::call(
                    "edit-distance",
                    vec![
                        Expr::Column(rec).field("reviewerName"),
                        Expr::Column(rec).field("summary"),
                    ],
                ),
                Expr::lit(1i64),
            )
        });
        assert!(out.is_none());
    }

    #[test]
    fn contains_selection_uses_ngram_index() {
        let (out, _) = try_rule(|rec| {
            Expr::call(
                "contains",
                vec![Expr::Column(rec).field("reviewerName"), Expr::lit("arl")],
            )
        });
        let plan = out.expect("must rewrite");
        let text = explain(&plan);
        assert!(text.contains("index-search ARevs.nix"), "{text}");
        assert!(text.contains("Contains"), "{text}");
    }

    #[test]
    fn contains_short_pattern_not_rewritten() {
        // A 1-char pattern cannot use a 2-gram index.
        let (out, _) = try_rule(|rec| {
            Expr::call(
                "contains",
                vec![Expr::Column(rec).field("reviewerName"), Expr::lit("a")],
            )
        });
        assert!(out.is_none());
    }

    #[test]
    fn extra_conjuncts_preserved_in_verification() {
        let (out, _) = try_rule(|rec| {
            Expr::And(vec![
                ed_cond(rec, "marla", 1),
                Expr::cmp(CmpOp::Gt, Expr::Column(rec).field("score"), Expr::lit(3i64)),
            ])
        });
        let plan = out.expect("must rewrite");
        let text = explain(&plan);
        assert!(text.contains("score"), "verification select must keep residual: {text}");
    }
}
