//! Primary-key range access: the primary B+-tree range search of the LSM
//! storage layer, applied to a dataset scan.
//!
//! Pattern: `SELECT(cond) ← DATA-SCAN(ds)`. Every top-level conjunct of
//! `cond` that compares the primary key (the scan's pk variable, or
//! `$rec.<pk field>` read from the catalog) with a numeric or string
//! constant, by `=`, `<`, `<=`, `>` or `>=` with the constant on either
//! side, bounds the keys that can pass. The tightest bounds become the
//! scan's [`KeyRange`]:
//!
//! ```text
//! SELECT $o.id >= 5 and $o.id < 12 and …      SELECT (unchanged)
//!   DATA-SCAN ds                          →     DATA-SCAN ds key [5, 12)
//! ```
//!
//! The select stays above the scan, so a range only has to be a superset
//! of the keys the select keeps. NULL, MISSING, NaN and other constants
//! give no bound.

use crate::analysis::{const_fold, split_conjuncts};
use crate::plan::{build, LogicalNode, LogicalOp, PlanRef, VarId};
use crate::rules::{OptContext, RewriteRule};
use asterix_adm::Value;
use asterix_hyracks::{CmpOp, Expr};
use asterix_simfn::FunctionRegistry;
use asterix_storage::KeyRange;
use std::ops::Bound;

pub struct PrimaryKeyRangeRule;

impl RewriteRule for PrimaryKeyRangeRule {
    fn name(&self) -> &'static str {
        "introduce-primary-key-range"
    }

    fn apply(&self, node: &PlanRef, ctx: &OptContext<'_>) -> Option<PlanRef> {
        let LogicalOp::Select { condition } = &node.op else {
            return None;
        };
        let LogicalOp::DataSourceScan {
            dataset,
            pk_var,
            rec_var,
            range,
        } = &node.inputs[0].op
        else {
            return None;
        };
        let key = PrimaryKey {
            pk_var: *pk_var,
            rec_var: *rec_var,
            field: &ctx.catalog.dataset(dataset)?.primary_key,
        };
        let tightened = split_conjuncts(condition)
            .iter()
            .filter_map(|c| key.conjunct_range(c, ctx.registry))
            .fold(range.clone(), |r, c| r.intersect(&c));
        if tightened == *range {
            return None;
        }
        let scan = LogicalNode::new(
            LogicalOp::DataSourceScan {
                dataset: dataset.clone(),
                pk_var: *pk_var,
                rec_var: *rec_var,
                range: tightened,
            },
            vec![],
        );
        Some(build::select(scan, condition.clone()))
    }
}

/// The two ways a plan reads a scan's primary key.
struct PrimaryKey<'a> {
    pk_var: VarId,
    rec_var: VarId,
    field: &'a str,
}

impl PrimaryKey<'_> {
    fn is_read_by(&self, e: &Expr) -> bool {
        match e {
            Expr::Column(v) => *v == self.pk_var,
            Expr::Field(rec, name) => {
                matches!(rec.as_ref(), Expr::Column(v) if *v == self.rec_var) && name == self.field
            }
            _ => false,
        }
    }

    /// The keys that can satisfy one conjunct, or `None` when it is not a
    /// key-versus-constant comparison that bounds them.
    fn conjunct_range(&self, conjunct: &Expr, registry: &FunctionRegistry) -> Option<KeyRange> {
        let Expr::Cmp(op, l, r) = conjunct else {
            return None;
        };
        let (op, constant) = if self.is_read_by(l) {
            (*op, r)
        } else if self.is_read_by(r) {
            (op.mirrored(), l)
        } else {
            return None;
        };
        let c = const_fold(constant, registry)?;
        let (first, last) = match &c {
            Value::String(_) => (Bound::Included(c.clone()), c),
            Value::Int64(_) | Value::Double(_) => numeric_run(c.as_f64()?)?,
            _ => return None,
        };
        let (lo, hi) = match op {
            CmpOp::Eq => (first, Bound::Included(last)),
            CmpOp::Ge => (first, Bound::Unbounded),
            CmpOp::Gt => (Bound::Excluded(last), Bound::Unbounded),
            CmpOp::Le => (Bound::Unbounded, Bound::Included(last)),
            CmpOp::Lt => match first {
                Bound::Included(v) => (Bound::Unbounded, Bound::Excluded(v)),
                _ => (Bound::Unbounded, Bound::Included(last)),
            },
            CmpOp::Ne => return None,
        };
        Some(KeyRange { lo, hi })
    }
}

/// Where the keys that equal the number `x` sit in `Value`'s total order.
///
/// Queries compare numbers as `f64`, while the key order sorts an Int64
/// before the Double it equals and `-0.0` before `0` before `0.0`. So the
/// keys equal to `x` form one run, and the result is `(first, last)`:
/// `first` an inclusive lower bound on the run, `last` its last key.
/// `first` is the run's first key when that is known exactly. From
/// 2^53 on several Int64s round to `x`; then `first` is unbounded, which
/// is still a superset. NaN equals no key, but gives no bound either.
fn numeric_run(x: f64) -> Option<(Bound<Value>, Value)> {
    const EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53
    const I64_SPAN: f64 = 9_223_372_036_854_775_808.0; // 2^63
    if x.is_nan() {
        return None;
    }
    let first = if x == 0.0 {
        Bound::Included(Value::double(-0.0))
    } else if !x.is_finite() || x.fract() != 0.0 || x.abs() > I64_SPAN {
        Bound::Included(Value::double(x))
    } else if x.abs() < EXACT_INT {
        Bound::Included(Value::Int64(x as i64))
    } else {
        Bound::Unbounded
    };
    let last = Value::double(if x == 0.0 { 0.0 } else { x });
    Some((first, last))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key of a mixed Int64/Double/string sample that `k op c`
    /// keeps must lie in the range derived for it.
    #[test]
    fn numeric_runs_bound_every_equal_key() {
        let keys: Vec<Value> = vec![
            Value::double(-0.0),
            Value::Int64(0),
            Value::double(0.0),
            Value::Int64(7000),
            Value::double(7000.0),
            Value::double(6999.5),
            Value::double(7000.5),
            Value::Int64(6999),
            Value::Int64(7001),
            Value::Int64(1 << 60),
            Value::Int64((1 << 60) - 100),
            Value::Int64((1 << 60) - 200),
            Value::double((1u64 << 60) as f64),
            Value::double(f64::INFINITY),
            Value::double(f64::NEG_INFINITY),
            Value::Int64(i64::MIN),
            Value::Int64(i64::MAX),
            Value::from("7000"),
        ];
        let consts = [
            Value::Int64(7000),
            Value::double(7000.0),
            Value::double(6999.5),
            Value::Int64(0),
            Value::double(-0.0),
            Value::Int64(1 << 60),
            Value::double(f64::INFINITY),
            Value::double(-1e300),
            Value::double(1e300),
        ];
        let key = PrimaryKey {
            pk_var: 0,
            rec_var: 1,
            field: "id",
        };
        let reg = FunctionRegistry::with_builtins();
        for c in &consts {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let cmp = Expr::cmp(op, Expr::col(0), Expr::Const(c.clone()));
                let range = key.conjunct_range(&cmp, &reg).expect("numeric bound");
                for k in &keys {
                    let passes = cmp.eval(std::slice::from_ref(k), &reg).unwrap()
                        == Value::Boolean(true);
                    assert!(
                        !passes || range.contains(k),
                        "{k:?} passes `k {op} {c:?}` but lies outside {range}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_key_versus_number_or_string_bounds() {
        let key = PrimaryKey {
            pk_var: 0,
            rec_var: 1,
            field: "id",
        };
        let reg = FunctionRegistry::with_builtins();
        let bound = |l: Expr, op: CmpOp, r: Expr| key.conjunct_range(&Expr::cmp(op, l, r), &reg);
        let pk_field = || Expr::col(1).field("id");
        for c in [
            Value::Null,
            Value::Missing,
            Value::Boolean(true),
            Value::double(f64::NAN),
            Value::OrderedList(vec![Value::Int64(1)]),
        ] {
            for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
                assert!(bound(pk_field(), op, Expr::Const(c.clone())).is_none(), "{c:?} {op}");
            }
        }
        // Not the key, not a constant, or `!=`: no bound.
        assert!(bound(Expr::col(1).field("score"), CmpOp::Lt, Expr::lit(5i64)).is_none());
        assert!(bound(Expr::col(2).field("id"), CmpOp::Lt, Expr::lit(5i64)).is_none());
        assert!(bound(pk_field(), CmpOp::Lt, Expr::col(3)).is_none());
        assert!(bound(pk_field(), CmpOp::Ne, Expr::lit(5i64)).is_none());
        // The pk variable and the pk field, the constant on either side.
        let lt5 = Some(KeyRange {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(Value::Int64(5)),
        });
        assert_eq!(bound(Expr::col(0), CmpOp::Lt, Expr::lit(5i64)), lt5);
        assert_eq!(bound(Expr::lit(5i64), CmpOp::Gt, pk_field()), lt5);
        let s = Value::from("m");
        assert_eq!(
            bound(pk_field(), CmpOp::Gt, Expr::Const(s.clone())),
            Some(KeyRange {
                lo: Bound::Excluded(s),
                hi: Bound::Unbounded,
            })
        );
    }
}
