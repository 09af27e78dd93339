//! The index-nested-loop *join* rewrite (Figs 10, 14, 19; §5.1.2, §5.4.1).
//!
//! Pattern: `JOIN(cond)` whose **inner** (right) input is a dataset scan
//! and whose condition contains a similarity conjunct with two
//! non-constant arguments, the inner one reading an indexed field of the
//! scanned record.
//!
//! Basic replacement (Fig 10): the outer subtree feeds (broadcast) into a
//! secondary-index search on the inner dataset, then a local pk sort, the
//! primary-index lookup, and a verification SELECT of the original join
//! condition.
//!
//! Similarity corner cases are runtime events here — the search keys come
//! from outer records (§5.1.2) — so the plan splits the outer stream with
//! a `*-can-use-index(key, ...)` predicate: usable rows go through the
//! index, corner rows take a broadcast nested-loop join against the same
//! scan, and a UNION combines both (Fig 14). Edit distance corners on
//! `T ≤ 0` keys; Jaccard corners on empty-token keys (`J(∅, ∅) = 1`, so
//! they can still match empty-token inner records that appear on no
//! inverted list). Only exact-match and contains joins are corner-free.
//!
//! The surrogate variant (Fig 19, §5.4.1) broadcasts only the search key
//! plus a compact surrogate (the outer subtree's scan primary keys),
//! resolves candidates through the index path, and re-joins survivors to
//! the full outer stream with a parallel hash join on the surrogates.

use crate::analysis::{is_constant, probe_expr_of, recognize_similarity, split_conjuncts};
use crate::catalog::find_applicable_index;
use crate::plan::{build, JoinHint, LogicalNode, LogicalOp, OrderKey, PlanRef, VarId};
use crate::rules::{bound_by, subtree_row_keys, OptContext, RewriteRule};
use asterix_adm::IndexKind;
use asterix_hyracks::{Expr, SearchMeasure};

pub struct IndexJoinRule;

struct Match {
    measure: SearchMeasure,
    outer_arg: Expr,
    dataset: String,
    index_name: String,
    index_kind: IndexKind,
    inner_pk: VarId,
    inner_rec: VarId,
}

impl RewriteRule for IndexJoinRule {
    fn name(&self) -> &'static str {
        "introduce-index-nested-loop-join"
    }

    fn apply(&self, node: &PlanRef, ctx: &OptContext<'_>) -> Option<PlanRef> {
        if !ctx.config.enable_index_join {
            return None;
        }
        let LogicalOp::Join { condition, hint } = &node.op else {
            return None;
        };
        if *hint == JoinHint::BroadcastLeftNl {
            return None; // explicitly hinted NL join (e.g. our corner path)
        }
        let outer = node.inputs[0].clone();
        let inner = node.inputs[1].clone();
        let LogicalOp::DataSourceScan {
            dataset,
            pk_var: inner_pk,
            rec_var: inner_rec,
            ..
        } = &inner.op
        else {
            return None;
        };
        let ds = ctx.catalog.dataset(dataset)?;

        let mut matched: Option<Match> = None;
        for conjunct in split_conjuncts(condition) {
            let Some(p) = recognize_similarity(&conjunct) else {
                continue;
            };
            if is_constant(&p.args[0]) || is_constant(&p.args[1]) {
                continue; // selection-shaped; not a join predicate
            }
            // δ <= 0 matches every pair; no index path can produce that.
            if matches!(p.measure, SearchMeasure::Jaccard { delta } if delta <= 0.0) {
                continue;
            }
            // Which side reads the inner record's indexed field?
            for (inner_arg, outer_arg) in [(&p.args[0], &p.args[1]), (&p.args[1], &p.args[0])] {
                let Some((var, field)) = crate::analysis::indexed_field_of(inner_arg) else {
                    continue;
                };
                if var != *inner_rec || !bound_by(outer_arg, &outer.schema) {
                    continue;
                }
                let Some(index) = find_applicable_index(ds, &field, &p.measure) else {
                    continue;
                };
                matched = Some(Match {
                    measure: p.measure.clone(),
                    outer_arg: outer_arg.clone(),
                    dataset: dataset.clone(),
                    index_name: index.name.clone(),
                    index_kind: index.kind,
                    inner_pk: *inner_pk,
                    inner_rec: *inner_rec,
                });
                break;
            }
            if matched.is_some() {
                break;
            }
        }
        let m = matched?;

        if ctx.config.enable_surrogate {
            if let Some(plan) = build_surrogate_join(node, &outer, &inner, &m, condition, ctx) {
                return Some(plan);
            }
        }
        Some(build_basic_join(node, &outer, &inner, &m, condition, ctx))
    }
}

/// The index path shared by all variants: probe-key assign is already
/// done; takes the keyed stream and returns the verified+projected stream.
fn index_path(
    keyed: PlanRef,
    key_var: VarId,
    m: &Match,
    verify: &Expr,
    out_schema: &[VarId],
    ctx: &OptContext<'_>,
) -> PlanRef {
    let searched = LogicalNode::new(
        LogicalOp::IndexSearch {
            dataset: m.dataset.clone(),
            index: m.index_name.clone(),
            key_var,
            measure: m.measure.clone(),
            pk_var: m.inner_pk,
            // Join probes vary per outer tuple; tokenization is memoized
            // at runtime instead (the operator's probe-token LRU).
            pre_tokens: None,
        },
        vec![keyed],
    );
    let sorted = if ctx.config.sort_pks {
        LogicalNode::new(
            LogicalOp::OrderBy {
                keys: vec![OrderKey {
                    var: m.inner_pk,
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
            dataset: m.dataset.clone(),
            pk_var: m.inner_pk,
            rec_var: m.inner_rec,
        },
        vec![sorted],
    );
    let verified = build::select(looked_up, verify.clone());
    build::project(verified, out_schema.to_vec())
}

/// The runtime corner-split predicate for a measure, or `None` when the
/// measure has no runtime corner cases (§5.1.1): `true` rows can use the
/// index, `false` rows must take the nested-loop path (Fig 14).
fn corner_usable_expr(m: &Match, key_var: VarId) -> Option<Expr> {
    match &m.measure {
        SearchMeasure::Exact | SearchMeasure::Contains => None,
        SearchMeasure::Jaccard { .. } => {
            // Empty-token keys corner out: J(∅, ∅) = 1 can still match
            // inner records that appear on no inverted list.
            let n = match m.index_kind {
                IndexKind::NGram(n) => n as i64,
                _ => 0,
            };
            Some(Expr::call(
                "jaccard-can-use-index",
                vec![build::v(key_var), Expr::lit(n)],
            ))
        }
        SearchMeasure::EditDistance { k } => {
            let IndexKind::NGram(n) = m.index_kind else {
                unreachable!("compatibility table guarantees an ngram index");
            };
            Some(Expr::call(
                "edit-distance-can-use-index",
                vec![build::v(key_var), Expr::lit(*k as i64), Expr::lit(n as i64)],
            ))
        }
    }
}

/// Fig 10 / Fig 14.
fn build_basic_join(
    node: &PlanRef,
    outer: &PlanRef,
    inner: &PlanRef,
    m: &Match,
    condition: &Expr,
    ctx: &OptContext<'_>,
) -> PlanRef {
    let probe = probe_expr_of(&m.outer_arg);
    let (keyed, key_var) = build::assign1(outer.clone(), ctx.vargen, probe);
    let out_schema: Vec<VarId> = node.schema.clone();

    match corner_usable_expr(m, key_var) {
        None => index_path(keyed, key_var, m, condition, &out_schema, ctx),
        Some(usable) => {
            // Runtime split (Fig 14): replicate the keyed outer stream.
            let non_corner = build::select(keyed.clone(), usable.clone());
            let index_branch = index_path(non_corner, key_var, m, condition, &out_schema, ctx);
            let corner = build::select(keyed, Expr::Not(Box::new(usable)));
            let nl = build::join(
                corner,
                inner.clone(),
                condition.clone(),
                JoinHint::BroadcastLeftNl,
            );
            let nl_projected = build::project(nl, out_schema.clone());
            // Disjoint: the branches split the outer stream by `usable`.
            LogicalNode::new(
                LogicalOp::UnionAll {
                    vars: out_schema,
                    disjoint: true,
                },
                vec![index_branch, nl_projected],
            )
        }
    }
}

/// Fig 19: broadcast only (surrogates, key); hash-join survivors back.
fn build_surrogate_join(
    node: &PlanRef,
    outer: &PlanRef,
    inner: &PlanRef,
    m: &Match,
    condition: &Expr,
    ctx: &OptContext<'_>,
) -> Option<PlanRef> {
    // Surrogates: the outer subtree's row-identifying scan pks.
    let surrogates = subtree_row_keys(outer)?;
    let probe = probe_expr_of(&m.outer_arg);
    let (keyed, key_var) = build::assign1(outer.clone(), ctx.vargen, probe.clone());
    // The verification condition must be evaluable from (key, inner rec)
    // alone once the outer record is projected away: substitute the probe
    // expression by the key variable; a conjunct that still references
    // outer variables afterwards is re-checked at the top join instead.
    let mut verify_conjuncts = Vec::new();
    let mut residual_conjuncts = Vec::new();
    for c in split_conjuncts(condition) {
        let substituted = substitute(&c, &probe, &build::v(key_var));
        let mut refs = Vec::new();
        substituted.referenced_columns(&mut refs);
        let still_outer = refs.iter().any(|v| outer.schema.contains(v));
        if !still_outer {
            verify_conjuncts.push(substituted);
        } else {
            residual_conjuncts.push(c);
        }
    }
    if verify_conjuncts.is_empty() {
        return None; // nothing could be verified inside; surrogate useless
    }
    // Fresh surrogate names on the inner path, so the top hash join has
    // distinct variables on its two sides.
    let fresh_surrogates: Vec<VarId> =
        surrogates.iter().map(|_| ctx.vargen.fresh()).collect();
    let renamed = build::assign(
        keyed.clone(),
        fresh_surrogates.clone(),
        surrogates.iter().map(|v| build::v(*v)).collect(),
    );
    let mut slim_cols = fresh_surrogates.clone();
    slim_cols.push(key_var);
    let slim = build::project(renamed, slim_cols);

    // Verification references the key var (already substituted above).
    let verify = crate::analysis::and_of(verify_conjuncts);
    let mut inner_out = fresh_surrogates.clone();
    inner_out.push(m.inner_pk);
    inner_out.push(m.inner_rec);

    let right = match corner_usable_expr(m, key_var) {
        None => index_path(slim, key_var, m, &verify, &inner_out, ctx),
        Some(usable) => {
            let non_corner = build::select(slim.clone(), usable.clone());
            let index_branch = index_path(non_corner, key_var, m, &verify, &inner_out, ctx);
            let corner = build::select(slim, Expr::Not(Box::new(usable)));
            let nl = build::join(corner, inner.clone(), verify.clone(), JoinHint::BroadcastLeftNl);
            let nl_projected = build::project(nl, inner_out.clone());
            // Disjoint: the branches split the outer stream by `usable`.
            LogicalNode::new(
                LogicalOp::UnionAll {
                    vars: inner_out.clone(),
                    disjoint: true,
                },
                vec![index_branch, nl_projected],
            )
        }
    };

    // Top-level parallel hash join on the surrogates (left = original
    // outer subtree, shared).
    let eqs: Vec<Expr> = surrogates
        .iter()
        .zip(&fresh_surrogates)
        .map(|(a, b)| Expr::eq(build::v(*a), build::v(*b)))
        .collect();
    let top = build::join(
        outer.clone(),
        right,
        crate::analysis::and_of(eqs),
        JoinHint::Auto,
    );
    let resolved = if residual_conjuncts.is_empty() {
        top
    } else {
        build::select(top, crate::analysis::and_of(residual_conjuncts))
    };
    Some(build::project(resolved, node.schema.clone()))
}

/// Structural substitution of `from` by `to` within an expression.
fn substitute(e: &Expr, from: &Expr, to: &Expr) -> Expr {
    if e == from {
        return to.clone();
    }
    match e {
        Expr::Field(inner, name) => Expr::Field(Box::new(substitute(inner, from, to)), name.clone()),
        Expr::Call(n, args) => Expr::Call(
            n.clone(),
            args.iter().map(|a| substitute(a, from, to)).collect(),
        ),
        Expr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(substitute(a, from, to)),
            Box::new(substitute(b, from, to)),
        ),
        Expr::And(parts) => Expr::And(parts.iter().map(|p| substitute(p, from, to)).collect()),
        Expr::Or(parts) => Expr::Or(parts.iter().map(|p| substitute(p, from, to)).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(substitute(inner, from, to))),
        Expr::RecordCtor(fs) => Expr::RecordCtor(
            fs.iter()
                .map(|(k, v)| (k.clone(), substitute(v, from, to)))
                .collect(),
        ),
        Expr::ListCtor(items) => {
            Expr::ListCtor(items.iter().map(|i| substitute(i, from, to)).collect())
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SimpleCatalog;
    use crate::optimizer::OptimizerConfig;
    use crate::plan::{explain, VarGen};
    use asterix_adm::{DatasetDef, IndexDef};
    use asterix_hyracks::CmpOp;
    use asterix_simfn::FunctionRegistry;

    fn catalog() -> SimpleCatalog {
        let mut ds = DatasetDef::new("ARevs", "id");
        ds.add_index(IndexDef {
            name: "smix".into(),
            field: "summary".into(),
            kind: IndexKind::Keyword,
        })
        .unwrap();
        ds.add_index(IndexDef {
            name: "nix".into(),
            field: "reviewerName".into(),
            kind: IndexKind::NGram(2),
        })
        .unwrap();
        let mut c = SimpleCatalog::new();
        c.add(ds);
        c
    }

    fn setup(cfg: OptimizerConfig, jaccard: bool) -> Option<PlanRef> {
        let vg = VarGen::starting_at(100);
        let cat = catalog();
        let reg = FunctionRegistry::with_builtins();
        let (outer, _opk, orec) = build::scan("ARevs", &vg);
        let (inner, _ipk, irec) = build::scan("ARevs", &vg);
        let cond = if jaccard {
            Expr::cmp(
                CmpOp::Ge,
                Expr::call(
                    "similarity-jaccard",
                    vec![
                        Expr::call("word-tokens", vec![Expr::Column(orec).field("summary")]),
                        Expr::call("word-tokens", vec![Expr::Column(irec).field("summary")]),
                    ],
                ),
                Expr::lit(0.8f64),
            )
        } else {
            Expr::cmp(
                CmpOp::Le,
                Expr::call(
                    "edit-distance",
                    vec![
                        Expr::Column(orec).field("reviewerName"),
                        Expr::Column(irec).field("reviewerName"),
                    ],
                ),
                Expr::lit(1i64),
            )
        };
        let join = build::join(outer, inner, cond, JoinHint::Auto);
        let ctx = OptContext {
            catalog: &cat,
            registry: &reg,
            config: &cfg,
            vargen: &vg,
        };
        IndexJoinRule.apply(&join, &ctx)
    }

    #[test]
    fn jaccard_join_has_empty_token_corner_union() {
        let plan = setup(OptimizerConfig::default(), true).expect("rewrite");
        let text = explain(&plan);
        assert!(text.contains("index-search ARevs.smix"), "{text}");
        // Empty-token outer keys must take the NL path (J(∅, ∅) = 1 still
        // matches inner records that appear on no inverted list).
        assert!(text.contains("union-all"), "{text}");
        assert!(text.contains("jaccard-can-use-index"), "{text}");
        assert!(text.contains("join[BroadcastLeftNl]"), "{text}");
    }

    #[test]
    fn edit_distance_join_has_corner_union() {
        let plan = setup(OptimizerConfig::default(), false).expect("rewrite");
        let text = explain(&plan);
        assert!(text.contains("index-search ARevs.nix"), "{text}");
        assert!(text.contains("union-all"), "{text}");
        assert!(text.contains("edit-distance-can-use-index"), "{text}");
        // The corner path joins against the shared inner scan.
        assert!(text.contains("join[BroadcastLeftNl]"), "{text}");
    }

    #[test]
    fn disabled_rule_no_rewrite() {
        let cfg = OptimizerConfig {
            enable_index_join: false,
            ..OptimizerConfig::default()
        };
        assert!(setup(cfg, true).is_none());
    }

    #[test]
    fn surrogate_variant_joins_back() {
        let cfg = OptimizerConfig {
            enable_surrogate: true,
            ..OptimizerConfig::default()
        };
        let plan = setup(cfg, true).expect("rewrite");
        let text = explain(&plan);
        // The outer subtree appears twice (shared) and a top-level hash
        // join resolves the surrogates.
        assert!(text.contains("@shared-"), "{text}");
        assert!(text.contains("index-search"), "{text}");
    }

    #[test]
    fn substitution_replaces_subexpr() {
        let probe = Expr::Column(1).field("summary");
        let cond = Expr::call(
            "similarity-jaccard",
            vec![
                Expr::call("word-tokens", vec![probe.clone()]),
                Expr::col(5),
            ],
        );
        let out = substitute(&cond, &probe, &Expr::col(9));
        let expected = Expr::call(
            "similarity-jaccard",
            vec![Expr::call("word-tokens", vec![Expr::col(9)]), Expr::col(5)],
        );
        assert_eq!(out, expected);
    }
}
