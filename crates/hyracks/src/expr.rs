//! The runtime expression language evaluated by SELECT / ASSIGN / UNNEST
//! operators over tuples.
//!
//! Function calls resolve through the [`FunctionRegistry`], so similarity
//! built-ins and user-defined functions (§3.1) are equally available in any
//! operator.

use asterix_adm::Value;
use asterix_simfn::FunctionRegistry;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does an [`Ordering`] satisfy this comparison?
    pub(crate) fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its operands swapped: `a < b` ⇔ `b > a`.
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression over a tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Positional column reference.
    Column(usize),
    /// Literal value.
    Const(Value),
    /// Field access on a record-valued expression (dotted paths allowed).
    Field(Box<Expr>, String),
    /// Function call resolved through the registry.
    Call(String, Vec<Expr>),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction (empty = `true`).
    And(Vec<Expr>),
    /// Logical disjunction (empty = `false`).
    Or(Vec<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `{ 'k': e, ... }`
    RecordCtor(Vec<(String, Expr)>),
    /// `[ e, ... ]`
    ListCtor(Vec<Expr>),
}

impl Expr {
    /// Shorthand for [`Expr::Column`].
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Shorthand for [`Expr::Const`].
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Shorthand for [`Expr::Field`] on `self`.
    pub fn field(self, name: impl Into<String>) -> Expr {
        Expr::Field(Box::new(self), name.into())
    }

    /// Shorthand for [`Expr::Call`].
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// Shorthand for [`Expr::Cmp`].
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Shorthand for an equality comparison.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, a, b)
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &[Value], registry: &FunctionRegistry) -> Result<Value, String> {
        match self {
            Expr::Column(i) => tuple
                .get(*i)
                .cloned()
                .ok_or_else(|| format!("column {i} out of range (width {})", tuple.len())),
            Expr::Const(v) => Ok(v.clone()),
            Expr::Field(e, name) => Ok(e.eval(tuple, registry)?.field_path(name).clone()),
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(tuple, registry)?);
                }
                registry.call(name, &vals)
            }
            Expr::Cmp(op, a, b) => {
                let va = a.eval(tuple, registry)?;
                let vb = b.eval(tuple, registry)?;
                Ok(match sql_compare(&va, &vb) {
                    Some(ord) => Value::Boolean(op.test(ord)),
                    None => Value::Null,
                })
            }
            Expr::And(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(tuple, registry)? {
                        Value::Boolean(false) => return Ok(Value::Boolean(false)),
                        Value::Boolean(true) => {}
                        _ => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(true)
                })
            }
            Expr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(tuple, registry)? {
                        Value::Boolean(true) => return Ok(Value::Boolean(true)),
                        Value::Boolean(false) => {}
                        _ => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(false)
                })
            }
            Expr::Not(e) => Ok(match e.eval(tuple, registry)? {
                Value::Boolean(b) => Value::Boolean(!b),
                _ => Value::Null,
            }),
            Expr::RecordCtor(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (k, e) in fields {
                    out.push((k.clone(), e.eval(tuple, registry)?));
                }
                Ok(Value::record(out))
            }
            Expr::ListCtor(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(e.eval(tuple, registry)?);
                }
                Ok(Value::OrderedList(out))
            }
        }
    }

    /// Columns referenced by this expression (for projection pushing and
    /// plan validation).
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Const(_) => {}
            Expr::Field(e, _) | Expr::Not(e) => e.referenced_columns(out),
            Expr::Call(_, args) | Expr::And(args) | Expr::Or(args) | Expr::ListCtor(args) => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Cmp(_, a, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
            Expr::RecordCtor(fields) => {
                for (_, e) in fields {
                    e.referenced_columns(out);
                }
            }
        }
    }

    /// Rewrite every column reference through `map` (used when an operator
    /// is moved across projections during plan rewriting).
    pub fn remap_columns(&mut self, map: &dyn Fn(usize) -> usize) {
        match self {
            Expr::Column(i) => *i = map(*i),
            Expr::Const(_) => {}
            Expr::Field(e, _) | Expr::Not(e) => e.remap_columns(map),
            Expr::Call(_, args) | Expr::And(args) | Expr::Or(args) | Expr::ListCtor(args) => {
                for a in args {
                    a.remap_columns(map);
                }
            }
            Expr::Cmp(_, a, b) => {
                a.remap_columns(map);
                b.remap_columns(map);
            }
            Expr::RecordCtor(fields) => {
                for (_, e) in fields {
                    e.remap_columns(map);
                }
            }
        }
    }
}

/// SQL-style comparison: `None` (unknown) when either side is
/// null/missing, when numeric comparison hits NaN, or when kinds are
/// incomparable; numeric cross-type pairs compare by value.
pub fn sql_compare(a: &Value, b: &Value) -> Option<Ordering> {
    if a.is_unknown() || b.is_unknown() {
        return None;
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => return x.partial_cmp(&y),
        (None, None) => {}
        _ => return None, // numeric vs non-numeric
    }
    if a.kind() == b.kind() {
        Some(a.cmp(b))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::record;

    fn reg() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    #[test]
    fn column_and_const() {
        let t = vec![Value::Int64(5), Value::from("x")];
        assert_eq!(Expr::col(0).eval(&t, &reg()), Ok(Value::Int64(5)));
        assert_eq!(Expr::lit(9i64).eval(&t, &reg()), Ok(Value::Int64(9)));
        assert!(Expr::col(7).eval(&t, &reg()).is_err());
    }

    #[test]
    fn field_access() {
        let t = vec![record! {"user" => record!{"name" => "ada"}}];
        let e = Expr::col(0).field("user.name");
        assert_eq!(e.eval(&t, &reg()), Ok(Value::from("ada")));
    }

    #[test]
    fn call_similarity() {
        let t = vec![Value::from("james"), Value::from("jamie")];
        let e = Expr::call("edit-distance", vec![Expr::col(0), Expr::col(1)]);
        assert_eq!(e.eval(&t, &reg()), Ok(Value::Int64(2)));
    }

    #[test]
    fn comparison_numeric_cross_type() {
        let t = vec![Value::Int64(2), Value::double(2.0)];
        let e = Expr::eq(Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&t, &reg()), Ok(Value::Boolean(true)));
    }

    #[test]
    fn comparison_with_null_is_null() {
        let t = vec![Value::Null, Value::Int64(1)];
        let e = Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&t, &reg()), Ok(Value::Null));
    }

    #[test]
    fn mismatched_kinds_unknown() {
        let t = vec![Value::from("a"), Value::Int64(1)];
        let e = Expr::eq(Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&t, &reg()), Ok(Value::Null));
    }

    #[test]
    fn three_valued_and_or() {
        let r = reg();
        let t: Vec<Value> = vec![];
        let tru = Expr::lit(true);
        let fls = Expr::lit(false);
        let unk = Expr::Const(Value::Null);
        assert_eq!(
            Expr::And(vec![tru.clone(), unk.clone()]).eval(&t, &r),
            Ok(Value::Null)
        );
        assert_eq!(
            Expr::And(vec![fls.clone(), unk.clone()]).eval(&t, &r),
            Ok(Value::Boolean(false))
        );
        assert_eq!(
            Expr::Or(vec![tru, unk.clone()]).eval(&t, &r),
            Ok(Value::Boolean(true))
        );
        assert_eq!(Expr::Or(vec![fls, unk]).eval(&t, &r), Ok(Value::Null));
    }

    #[test]
    fn record_and_list_ctors() {
        let t = vec![Value::Int64(1)];
        let e = Expr::RecordCtor(vec![
            ("id".into(), Expr::col(0)),
            ("tag".into(), Expr::lit("x")),
        ]);
        let v = e.eval(&t, &reg()).unwrap();
        assert_eq!(v.field("id"), &Value::Int64(1));
        let l = Expr::ListCtor(vec![Expr::col(0), Expr::col(0)]);
        assert_eq!(
            l.eval(&t, &reg()),
            Ok(Value::OrderedList(vec![Value::Int64(1), Value::Int64(1)]))
        );
    }

    #[test]
    fn referenced_and_remap() {
        let mut e = Expr::And(vec![
            Expr::eq(Expr::col(1), Expr::col(3)),
            Expr::call("len", vec![Expr::col(0)]),
        ]);
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        cols.sort();
        assert_eq!(cols, vec![0, 1, 3]);
        e.remap_columns(&|c| c + 10);
        let mut cols2 = vec![];
        e.referenced_columns(&mut cols2);
        cols2.sort();
        assert_eq!(cols2, vec![10, 11, 13]);
    }

    #[test]
    fn udf_via_registry() {
        let mut r = reg();
        r.register("double-it", |args| {
            Ok(Value::Int64(args[0].as_i64().unwrap_or(0) * 2))
        });
        let e = Expr::call("double-it", vec![Expr::lit(21i64)]);
        assert_eq!(e.eval(&[], &r), Ok(Value::Int64(42)));
    }
}
