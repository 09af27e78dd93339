//! The rule-driver: sequential rule sets applied bottom-up to fixpoint,
//! mirroring Algebricks' rewriting framework and the dedicated similarity
//! rule set of §5.3 ("we create a new rule set for the AQL+ framework and
//! similarity queries ... we need to ensure that the similarity-join rule
//! set is only applied to similarity-join queries").

use crate::catalog::Catalog;
use crate::plan::{LogicalNode, PlanRef, VarGen};
use crate::rules::common::{ExtractJoinKeysRule, SelectIntoJoinRule, SimilarityOperatorRule};
use crate::rules::join_index::IndexJoinRule;
use crate::rules::key_range::PrimaryKeyRangeRule;
use crate::rules::select_index::IndexSelectionRule;
use crate::rules::three_stage::ThreeStageJoinRule;
use crate::rules::{OptContext, RewriteRule};
use asterix_simfn::{FunctionRegistry, SimilarityMeasure};
use std::collections::HashMap;
use std::sync::Arc;

/// Optimizer configuration: the session `set` statements plus feature
/// toggles used by the paper's experiments and our ablations.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// The measure `~=` desugars to (`set simfunction` /
    /// `set simthreshold`, §3.2).
    pub simfunction: SimilarityMeasure,
    /// Rewrite selections to secondary-index plans (Fig 7).
    pub enable_index_select: bool,
    /// Rewrite joins to index-nested-loop plans (Fig 10/14).
    pub enable_index_join: bool,
    /// Rewrite index-less Jaccard joins to the three-stage plan (Fig 12).
    pub enable_three_stage: bool,
    /// Use the surrogate index-nested-loop variant (Fig 19, §5.4.1).
    pub enable_surrogate: bool,
    /// Share identical physical subplans during job generation (Fig 20,
    /// §5.4.2).
    pub enable_subplan_reuse: bool,
    /// Sort primary keys before primary-index lookups (§4.1.1).
    pub sort_pks: bool,
    /// Tokenize constant search keys once at optimize time, so every
    /// partition's index-search operator reuses the same token list
    /// instead of re-tokenizing per probe.
    pub pre_tokenize: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            simfunction: SimilarityMeasure::Jaccard { delta: 0.5 },
            enable_index_select: true,
            enable_index_join: true,
            enable_three_stage: true,
            enable_surrogate: false,
            enable_subplan_reuse: true,
            sort_pks: true,
            pre_tokenize: true,
        }
    }
}

/// A named, ordered rule set; each set runs to fixpoint before the next.
struct RuleSet {
    name: &'static str,
    rules: Vec<Box<dyn RewriteRule>>,
    /// Rules in this set fire at most once per node (structural rewrites
    /// that must not reapply to their own output).
    once: bool,
}

/// Optimize a plan: normalization set, then the similarity set, then the
/// access-path set.
/// Returns the rewritten plan and a log of `(rule, fire count)`.
pub fn optimize(
    root: &PlanRef,
    catalog: &dyn Catalog,
    registry: &FunctionRegistry,
    config: &OptimizerConfig,
    vargen: &VarGen,
) -> (PlanRef, Vec<(&'static str, usize)>) {
    let ctx = OptContext {
        catalog,
        registry,
        config,
        vargen,
    };
    let rule_sets = vec![
        RuleSet {
            name: "normalization",
            rules: vec![
                Box::new(SimilarityOperatorRule),
                Box::new(SelectIntoJoinRule),
                Box::new(ExtractJoinKeysRule),
            ],
            once: false,
        },
        RuleSet {
            name: "similarity",
            rules: vec![
                Box::new(IndexSelectionRule),
                Box::new(IndexJoinRule),
                Box::new(ThreeStageJoinRule),
            ],
            once: true,
        },
        // Access paths last: the similarity rules see the plans they
        // always saw, and a select they keep above a scan (the index
        // join's outer side) still gets its key range.
        RuleSet {
            name: "access-paths",
            rules: vec![Box::new(PrimaryKeyRangeRule)],
            once: true,
        },
    ];

    let mut plan = root.clone();
    let mut log: Vec<(&'static str, usize)> = Vec::new();
    for set in &rule_sets {
        let _ = set.name;
        // Each set runs to fixpoint (bounded), as in Algebricks.
        for _round in 0..8 {
            let mut round_fires = 0usize;
            for rule in &set.rules {
                let mut fires = 0usize;
                let mut memo: HashMap<*const LogicalNode, PlanRef> = HashMap::new();
                plan =
                    rewrite_bottom_up(&plan, rule.as_ref(), &ctx, &mut memo, &mut fires, set.once);
                if fires > 0 {
                    log.push((rule.name(), fires));
                }
                round_fires += fires;
            }
            if round_fires == 0 {
                break;
            }
        }
    }
    (plan, log)
}

/// Bottom-up rewrite preserving DAG sharing (a shared subtree is rewritten
/// once and stays shared).
fn rewrite_bottom_up(
    node: &PlanRef,
    rule: &dyn RewriteRule,
    ctx: &OptContext<'_>,
    memo: &mut HashMap<*const LogicalNode, PlanRef>,
    fires: &mut usize,
    once: bool,
) -> PlanRef {
    let ptr = Arc::as_ptr(node);
    if let Some(done) = memo.get(&ptr) {
        return done.clone();
    }
    // Rewrite children first.
    let new_inputs: Vec<PlanRef> = node
        .inputs
        .iter()
        .map(|i| rewrite_bottom_up(i, rule, ctx, memo, fires, once))
        .collect();
    let changed = node
        .inputs
        .iter()
        .zip(&new_inputs)
        .any(|(a, b)| !Arc::ptr_eq(a, b));
    let mut cur = if changed {
        LogicalNode::new(node.op.clone(), new_inputs)
    } else {
        node.clone()
    };
    // Apply the rule at this node (repeatedly unless `once`).
    let mut guard = 0;
    while let Some(replacement) = rule.apply(&cur, ctx) {
        *fires += 1;
        cur = replacement;
        guard += 1;
        if once || guard > 16 {
            break;
        }
    }
    memo.insert(ptr, cur.clone());
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SimpleCatalog;
    use crate::plan::{build, explain};
    use asterix_adm::{DatasetDef, IndexDef, IndexKind};
    use asterix_hyracks::{CmpOp, Expr};

    fn catalog() -> SimpleCatalog {
        let mut ds = DatasetDef::new("ARevs", "id");
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

    #[test]
    fn tilde_selection_end_to_end() {
        // `~=` desugars in set 1, then the index selection rule fires in
        // set 2 — the two-step pipeline of §5.3.
        let vg = VarGen::new();
        let (scan, _, rec) = build::scan("ARevs", &vg);
        let sel = build::select(
            scan,
            Expr::call(
                "~=",
                vec![
                    Expr::call("word-tokens", vec![build::v(rec).field("summary")]),
                    Expr::call("word-tokens", vec![Expr::lit("great product")]),
                ],
            ),
        );
        let root = build::write(sel);
        let reg = FunctionRegistry::with_builtins();
        let cfg = OptimizerConfig::default();
        let cat = catalog();
        let (plan, log) = optimize(&root, &cat, &reg, &cfg, &vg);
        let text = explain(&plan);
        assert!(text.contains("index-search ARevs.smix"), "{text}");
        let names: Vec<&str> = log.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"desugar-similarity-operator"), "{names:?}");
        assert!(names.contains(&"introduce-index-for-selection"), "{names:?}");
    }

    #[test]
    fn multiway_joins_rewritten_iteratively() {
        // (L ⋈ M) ⋈ R with two jaccard conditions and no indexes: both
        // joins become three-stage plans (Fig 18).
        let vg = VarGen::new();
        let mut cat = SimpleCatalog::new();
        cat.add(DatasetDef::new("A", "id"));
        let (l, _, lrec) = build::scan("A", &vg);
        let (m, _, mrec) = build::scan("A", &vg);
        let (r, _, rrec) = build::scan("A", &vg);
        let jac = |a: usize, b: usize| {
            Expr::cmp(
                CmpOp::Ge,
                Expr::call(
                    "similarity-jaccard",
                    vec![
                        Expr::call("word-tokens", vec![build::v(a).field("t")]),
                        Expr::call("word-tokens", vec![build::v(b).field("t")]),
                    ],
                ),
                Expr::lit(0.8f64),
            )
        };
        let j1 = build::join(l, m, jac(lrec, mrec), Default::default());
        let j2 = build::join(j1, r, jac(lrec, rrec), Default::default());
        let root = build::write(j2);
        let reg = FunctionRegistry::with_builtins();
        let cfg = OptimizerConfig::default();
        let (plan, log) = optimize(&root, &cat, &reg, &cfg, &vg);
        let fires = log
            .iter()
            .find(|(n, _)| *n == "three-stage-similarity-join")
            .map(|(_, c)| *c);
        assert_eq!(fires, Some(2), "{log:?}\n{}", explain(&plan));
    }

    #[test]
    fn non_similarity_plans_untouched() {
        let vg = VarGen::new();
        let cat = catalog();
        let (scan, _, rec) = build::scan("ARevs", &vg);
        let sel = build::select(
            scan,
            Expr::cmp(CmpOp::Gt, build::v(rec).field("overall"), Expr::lit(5i64)),
        );
        let root = build::write(sel);
        let reg = FunctionRegistry::with_builtins();
        let cfg = OptimizerConfig::default();
        let (plan, log) = optimize(&root, &cat, &reg, &cfg, &vg);
        assert!(log.is_empty(), "{log:?}");
        assert!(Arc::ptr_eq(&plan, &root));
    }

    #[test]
    fn primary_key_select_ranges_its_scan_only() {
        let vg = VarGen::new();
        let cat = catalog();
        let (scan, pk, _) = build::scan("ARevs", &vg);
        let sel = build::select(scan, Expr::cmp(CmpOp::Gt, build::v(pk), Expr::lit(5i64)));
        let root = build::write(sel);
        let reg = FunctionRegistry::with_builtins();
        let cfg = OptimizerConfig::default();
        let (plan, log) = optimize(&root, &cat, &reg, &cfg, &vg);
        assert_eq!(log, vec![("introduce-primary-key-range", 1)]);
        let text = explain(&plan);
        assert!(text.contains("select"), "{text}");
        assert!(text.contains("data-scan ARevs key (5.0, *)"), "{text}");
    }
}
