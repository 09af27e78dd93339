//! Physical plan selection and Hyracks job generation.
//!
//! Walks the optimized logical DAG and emits physical operators with
//! connectors:
//!
//! * equi-joins → hash joins with hash repartitioning on the keys (or a
//!   broadcast build side when hinted, Fig 11's `/*+ bcast */`),
//! * non-equi joins → broadcast (block-)nested-loop joins,
//! * group-bys → hash repartition on the grouping keys + hash aggregation
//!   (the `/*+ hash */` aggregation of Fig 11),
//! * index searches → broadcast of the probe stream to every index
//!   partition (Figs 6, 9),
//! * global order-bys / limits → gather to the coordinator partition,
//! * `Write` → gather + result sink.
//!
//! Identical physical subtrees are emitted **once** and their output
//! replicated to all consumers (the materialize/reuse of Fig 20 — for a
//! self join the dataset scan runs once, not three or four times);
//! `reuse_subplans=false` disables the sharing for the ablation bench.

use crate::plan::{agg_to_physical, order_to_sortkeys, JoinHint, LogicalNode, LogicalOp, PlanRef, VarId};
use asterix_hyracks::{CmpOp, ConnectorKind, Expr, JobSpec, OpId, PhysicalOp};
use std::collections::HashMap;
use std::sync::Arc;

struct Gen {
    job: JobSpec,
    /// Logical-node pointer → generated op (Arc-shared subplans).
    by_ptr: HashMap<*const LogicalNode, OpId>,
    /// Structural fingerprint → generated op (identical subplans).
    by_fingerprint: HashMap<String, OpId>,
    reuse: bool,
}

impl Gen {
    /// Remap a logical expression (over variables) to physical column
    /// positions given the input schema.
    fn remap(expr: &Expr, schema: &[VarId]) -> Result<Expr, String> {
        let mut e = expr.clone();
        let mut missing: Option<usize> = None;
        e.remap_columns(&|v| match schema.iter().position(|s| *s == v) {
            Some(i) => i,
            None => {
                // Capture the first unresolvable variable; remap_columns
                // cannot fail, so record and error after.
                usize::MAX
            }
        });
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        if cols.contains(&usize::MAX) {
            let mut orig = Vec::new();
            expr.referenced_columns(&mut orig);
            missing = orig.into_iter().find(|v| !schema.contains(v));
        }
        match missing {
            Some(v) => Err(format!("variable ${v} not in input schema {schema:?}")),
            None => Ok(e),
        }
    }

    fn positions(vars: &[VarId], schema: &[VarId]) -> Result<Vec<usize>, String> {
        vars.iter()
            .map(|v| {
                schema
                    .iter()
                    .position(|s| s == v)
                    .ok_or_else(|| format!("variable ${v} not in schema {schema:?}"))
            })
            .collect()
    }

    /// Add an op, deduplicating identical subtrees when reuse is enabled.
    fn emit(
        &mut self,
        descr: String,
        op: PhysicalOp,
        inputs: Vec<(OpId, usize, ConnectorKind)>,
    ) -> OpId {
        let fingerprint = format!(
            "{descr}|{:?}",
            inputs
                .iter()
                .map(|(id, slot, conn)| (id.0, *slot, format!("{conn:?}")))
                .collect::<Vec<_>>()
        );
        if self.reuse {
            if let Some(existing) = self.by_fingerprint.get(&fingerprint) {
                return *existing;
            }
        }
        let id = self.job.add(op);
        for (from, slot, conn) in inputs {
            self.job.connect(from, id, slot, conn);
        }
        self.by_fingerprint.insert(fingerprint, id);
        id
    }

    fn gen(&mut self, node: &PlanRef) -> Result<OpId, String> {
        let ptr = Arc::as_ptr(node);
        if let Some(id) = self.by_ptr.get(&ptr) {
            return Ok(*id);
        }
        let id = self.gen_uncached(node)?;
        self.by_ptr.insert(ptr, id);
        Ok(id)
    }

    fn gen_uncached(&mut self, node: &PlanRef) -> Result<OpId, String> {
        let in_schema = |i: usize| -> &[VarId] { &node.inputs[i].schema };
        match &node.op {
            // The range is part of the fingerprint: a ranged outer scan
            // and a full inner scan of one dataset are different
            // subplans. `Debug` keeps `7000` and `7000.0` apart.
            LogicalOp::DataSourceScan { dataset, range, .. } => Ok(self.emit(
                format!("scan:{dataset}:{range:?}"),
                PhysicalOp::DatasetScan {
                    dataset: dataset.clone(),
                    range: range.clone(),
                },
                vec![],
            )),
            LogicalOp::EmptyTupleSource => {
                Ok(self.emit("ets".into(), PhysicalOp::EmptySource, vec![]))
            }
            LogicalOp::Select { condition } => {
                let child = self.gen(&node.inputs[0])?;
                let pred = Self::remap(condition, in_schema(0))?;
                Ok(self.emit(
                    format!("select:{pred:?}"),
                    PhysicalOp::Select { predicate: pred },
                    vec![(child, 0, ConnectorKind::OneToOne)],
                ))
            }
            LogicalOp::Assign { exprs, .. } => {
                let child = self.gen(&node.inputs[0])?;
                let phys: Vec<Expr> = exprs
                    .iter()
                    .map(|e| Self::remap(e, in_schema(0)))
                    .collect::<Result<_, _>>()?;
                Ok(self.emit(
                    format!("assign:{phys:?}"),
                    PhysicalOp::Assign { exprs: phys },
                    vec![(child, 0, ConnectorKind::OneToOne)],
                ))
            }
            LogicalOp::Project { vars } => {
                let child = self.gen(&node.inputs[0])?;
                let cols = Self::positions(vars, in_schema(0))?;
                Ok(self.emit(
                    format!("project:{cols:?}"),
                    PhysicalOp::Project { cols },
                    vec![(child, 0, ConnectorKind::OneToOne)],
                ))
            }
            LogicalOp::Join { condition, hint } => self.gen_join(node, condition, *hint),
            LogicalOp::GroupBy { group_vars, aggs } => {
                let child = self.gen(&node.inputs[0])?;
                let key_cols = Self::positions(
                    &group_vars.iter().map(|(_, inp)| *inp).collect::<Vec<_>>(),
                    in_schema(0),
                )?;
                let agg_specs = aggs
                    .iter()
                    .map(|(_, f)| {
                        agg_to_physical(f, in_schema(0))
                            .ok_or_else(|| "aggregate input not in schema".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                // Two-phase aggregation (Fig 12's "Hash Group (Token)
                // Local" → "Hash repartition" → "Hash Group (Token)"):
                // decomposable aggregates pre-aggregate locally before the
                // repartition, shrinking the data that crosses partitions.
                use asterix_hyracks::AggSpec;
                let decomposable = agg_specs
                    .iter()
                    .all(|a| matches!(a, AggSpec::Count | AggSpec::Sum(_) | AggSpec::Min(_) | AggSpec::Max(_)));
                if decomposable && !key_cols.is_empty() {
                    let local = self.emit(
                        format!("group-local:{key_cols:?}:{agg_specs:?}"),
                        PhysicalOp::HashGroupBy {
                            keys: key_cols.clone(),
                            aggs: agg_specs.clone(),
                        },
                        vec![(child, 0, ConnectorKind::OneToOne)],
                    );
                    // Local output layout: keys first, then one partial
                    // column per aggregate.
                    let k = key_cols.len();
                    let global_keys: Vec<usize> = (0..k).collect();
                    let merge_aggs: Vec<AggSpec> = agg_specs
                        .iter()
                        .enumerate()
                        .map(|(i, a)| match a {
                            AggSpec::Count | AggSpec::Sum(_) => AggSpec::Sum(k + i),
                            AggSpec::Min(_) => AggSpec::Min(k + i),
                            AggSpec::Max(_) => AggSpec::Max(k + i),
                            other => other.clone(),
                        })
                        .collect();
                    return Ok(self.emit(
                        format!("group-global:{global_keys:?}:{merge_aggs:?}"),
                        PhysicalOp::HashGroupBy {
                            keys: global_keys.clone(),
                            aggs: merge_aggs,
                        },
                        vec![(local, 0, ConnectorKind::Hash(global_keys))],
                    ));
                }
                Ok(self.emit(
                    format!("group:{key_cols:?}:{agg_specs:?}"),
                    PhysicalOp::HashGroupBy {
                        keys: key_cols.clone(),
                        aggs: agg_specs,
                    },
                    vec![(child, 0, ConnectorKind::Hash(key_cols))],
                ))
            }
            LogicalOp::OrderBy { keys, global } => {
                let child = self.gen(&node.inputs[0])?;
                let sort_keys = order_to_sortkeys(keys, in_schema(0))
                    .ok_or_else(|| "order key not in schema".to_string())?;
                let conn = if *global {
                    ConnectorKind::ToOne
                } else {
                    ConnectorKind::OneToOne
                };
                Ok(self.emit(
                    format!("sort:{sort_keys:?}:{global}"),
                    PhysicalOp::Sort { keys: sort_keys },
                    vec![(child, 0, conn)],
                ))
            }
            LogicalOp::Unnest { expr, pos_var, .. } => {
                let child = self.gen(&node.inputs[0])?;
                let phys = Self::remap(expr, in_schema(0))?;
                Ok(self.emit(
                    format!("unnest:{phys:?}:{}", pos_var.is_some()),
                    PhysicalOp::Unnest {
                        expr: phys,
                        with_pos: pos_var.is_some(),
                    },
                    vec![(child, 0, ConnectorKind::OneToOne)],
                ))
            }
            LogicalOp::StreamPos { .. } => {
                let child = self.gen(&node.inputs[0])?;
                Ok(self.emit(
                    "stream-pos".into(),
                    PhysicalOp::StreamPos,
                    vec![(child, 0, ConnectorKind::OneToOne)],
                ))
            }
            LogicalOp::Limit { n } => {
                let child = self.gen(&node.inputs[0])?;
                Ok(self.emit(
                    format!("limit:{n}"),
                    PhysicalOp::Limit { n: *n },
                    vec![(child, 0, ConnectorKind::ToOne)],
                ))
            }
            LogicalOp::UnionAll { .. } => {
                let l = self.gen(&node.inputs[0])?;
                let r = self.gen(&node.inputs[1])?;
                Ok(self.emit(
                    "union".into(),
                    PhysicalOp::Union,
                    vec![
                        (l, 0, ConnectorKind::OneToOne),
                        (r, 1, ConnectorKind::OneToOne),
                    ],
                ))
            }
            LogicalOp::IndexSearch {
                dataset,
                index,
                key_var,
                measure,
                pre_tokens,
                ..
            } => {
                let child = self.gen(&node.inputs[0])?;
                let key_col = Self::positions(&[*key_var], in_schema(0))?[0];
                // pre_tokens is deliberately excluded from the dedup
                // fingerprint: identical (dataset, index, key column,
                // measure) over identical inputs implies an identical
                // constant, hence identical pre-computed tokens.
                Ok(self.emit(
                    format!("ixsearch:{dataset}:{index}:{key_col}:{measure:?}"),
                    PhysicalOp::SecondaryIndexSearch {
                        dataset: dataset.clone(),
                        index: index.clone(),
                        key_col,
                        measure: measure.clone(),
                        pre_tokens: pre_tokens.clone(),
                    },
                    // The probe stream is broadcast to every partition's
                    // local index (Figs 6 and 9).
                    vec![(child, 0, ConnectorKind::Broadcast)],
                ))
            }
            LogicalOp::PrimaryLookup { dataset, pk_var, .. } => {
                let child = self.gen(&node.inputs[0])?;
                let pk_col = Self::positions(&[*pk_var], in_schema(0))?[0];
                Ok(self.emit(
                    format!("pklookup:{dataset}:{pk_col}"),
                    PhysicalOp::PrimaryIndexLookup {
                        dataset: dataset.clone(),
                        pk_col,
                    },
                    vec![(child, 0, ConnectorKind::OneToOne)],
                ))
            }
            LogicalOp::Write => {
                let child = self.gen(&node.inputs[0])?;
                let id = self.job.add(PhysicalOp::ResultSink);
                self.job.connect(child, id, 0, ConnectorKind::ToOne);
                Ok(id)
            }
        }
    }

    fn gen_join(&mut self, node: &PlanRef, condition: &Expr, hint: JoinHint) -> Result<OpId, String> {
        let left_schema = node.inputs[0].schema.clone();
        let right_schema = node.inputs[1].schema.clone();
        let mut combined = left_schema.clone();
        combined.extend(&right_schema);

        // Split the condition into equi pairs usable as hash-join keys and
        // the residual.
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual = Vec::new();
        for c in crate::analysis::split_conjuncts(condition) {
            if let Expr::Cmp(CmpOp::Eq, a, b) = &c {
                if let (Expr::Column(x), Expr::Column(y)) = (a.as_ref(), b.as_ref()) {
                    if left_schema.contains(x) && right_schema.contains(y) {
                        left_keys.push(*x);
                        right_keys.push(*y);
                        continue;
                    }
                    if left_schema.contains(y) && right_schema.contains(x) {
                        left_keys.push(*y);
                        right_keys.push(*x);
                        continue;
                    }
                }
            }
            residual.push(c);
        }

        let l = self.gen(&node.inputs[0])?;
        let r = self.gen(&node.inputs[1])?;

        let join_id = if !left_keys.is_empty() && hint != JoinHint::BroadcastLeftNl {
            let lk = Self::positions(&left_keys, &left_schema)?;
            let rk = Self::positions(&right_keys, &right_schema)?;
            let (lconn, rconn) = match hint {
                // Broadcast the (small) build side; probe stays local.
                JoinHint::BroadcastLeftHash => {
                    (ConnectorKind::Broadcast, ConnectorKind::OneToOne)
                }
                _ => (ConnectorKind::Hash(lk.clone()), ConnectorKind::Hash(rk.clone())),
            };
            self.emit(
                format!("hashjoin:{lk:?}:{rk:?}:{hint:?}"),
                PhysicalOp::HashJoin {
                    left_keys: lk,
                    right_keys: rk,
                },
                vec![(l, 0, lconn), (r, 1, rconn)],
            )
        } else {
            // Broadcast nested-loop join with the full condition.
            let pred = Self::remap(condition, &combined)?;
            return Ok(self.emit(
                format!("nljoin:{pred:?}"),
                PhysicalOp::NestedLoopJoin { predicate: pred },
                vec![
                    (l, 0, ConnectorKind::Broadcast),
                    (r, 1, ConnectorKind::OneToOne),
                ],
            ));
        };

        if residual.is_empty() {
            Ok(join_id)
        } else {
            let pred = Self::remap(&crate::analysis::and_of(residual), &combined)?;
            Ok(self.emit(
                format!("select:{pred:?}"),
                PhysicalOp::Select { predicate: pred },
                vec![(join_id, 0, ConnectorKind::OneToOne)],
            ))
        }
    }
}

/// Generate a Hyracks job from an optimized logical plan rooted at a
/// `Write` node. `reuse_subplans` enables the shared-subplan emission of
/// §5.4.2.
pub fn generate_job(root: &PlanRef, reuse_subplans: bool) -> Result<JobSpec, String> {
    if !matches!(root.op, LogicalOp::Write) {
        return Err("job generation requires a Write root".into());
    }
    let mut gen = Gen {
        job: JobSpec::new(),
        by_ptr: HashMap::new(),
        by_fingerprint: HashMap::new(),
        reuse: reuse_subplans,
    };
    gen.gen(root)?;
    gen.job.validate()?;
    Ok(gen.job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build;
    use crate::plan::VarGen;

    #[test]
    fn scan_write_roundtrip() {
        let vg = VarGen::new();
        let (scan, _, _) = build::scan("d", &vg);
        let job = generate_job(&build::write(scan), true).unwrap();
        let counts = job.operator_counts();
        assert!(counts.contains(&("dataset-scan", 1)));
        assert!(counts.contains(&("result-sink", 1)));
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let vg = VarGen::new();
        let (l, lpk, _) = build::scan("a", &vg);
        let (r, rpk, _) = build::scan("b", &vg);
        let j = build::join(l, r, Expr::eq(build::v(lpk), build::v(rpk)), JoinHint::Auto);
        let job = generate_job(&build::write(j), true).unwrap();
        assert!(job.operator_counts().contains(&("hash-join", 1)));
    }

    #[test]
    fn non_equi_join_becomes_nested_loop() {
        let vg = VarGen::new();
        let (l, lpk, _) = build::scan("a", &vg);
        let (r, rpk, _) = build::scan("b", &vg);
        let j = build::join(
            l,
            r,
            Expr::cmp(CmpOp::Lt, build::v(lpk), build::v(rpk)),
            JoinHint::Auto,
        );
        let job = generate_job(&build::write(j), true).unwrap();
        assert!(job.operator_counts().contains(&("nested-loop-join", 1)));
    }

    #[test]
    fn self_join_scans_shared_when_reuse_on() {
        let vg = VarGen::new();
        let (l, lpk, _) = build::scan("a", &vg);
        let (r, rpk, _) = build::scan("a", &vg);
        let j = build::join(l, r, Expr::eq(build::v(lpk), build::v(rpk)), JoinHint::Auto);
        let root = build::write(j);
        let with = generate_job(&root, true).unwrap();
        let without = generate_job(&root, false).unwrap();
        let scans = |job: &JobSpec| {
            job.operator_counts()
                .iter()
                .find(|(n, _)| *n == "dataset-scan")
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(scans(&with), 1, "reuse merges identical scans (Fig 20)");
        assert_eq!(scans(&without), 2);
    }

    #[test]
    fn unresolvable_variable_is_an_error() {
        let vg = VarGen::new();
        let (scan, _, _) = build::scan("d", &vg);
        let bad = build::select(scan, Expr::eq(Expr::Column(999), Expr::lit(1i64)));
        assert!(generate_job(&build::write(bad), true).is_err());
    }

    #[test]
    fn non_write_root_rejected() {
        let vg = VarGen::new();
        let (scan, _, _) = build::scan("d", &vg);
        assert!(generate_job(&scan, true).is_err());
    }
}
