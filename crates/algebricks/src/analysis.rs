//! Predicate analysis for the similarity rewrite rules (§5.1).
//!
//! The optimizer "analyzes the condition of the given SELECT operator to
//! see if it contains a similarity condition and if one of its arguments
//! is a constant" — this module is that analysis: conjunct splitting,
//! similarity-predicate recognition in all the shapes the query language
//! produces, constant folding of the probe side, extraction of the record
//! field a similarity argument reads (to find applicable indexes), and
//! compile-time corner-case detection for edit distance (§5.1.1).

use asterix_adm::{IndexKind, Value};
use asterix_hyracks::{CmpOp, Expr, SearchMeasure};
use asterix_simfn::{edit_distance_t_bound, jaccard_t_bound, tokenize, FunctionRegistry};

/// A recognized similarity predicate inside a conjunct.
#[derive(Clone, Debug)]
pub struct SimPredicate {
    pub measure: SearchMeasure,
    /// The two similarity arguments as written (variable-referencing).
    pub args: [Expr; 2],
    /// The original conjunct (re-used verbatim as the false-positive
    /// verification SELECT).
    pub original: Expr,
}

/// Split a condition into its top-level conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::And(parts) => parts.iter().flat_map(split_conjuncts).collect(),
        other => vec![other.clone()],
    }
}

/// Rebuild a condition from conjuncts.
pub fn and_of(mut conjuncts: Vec<Expr>) -> Expr {
    match conjuncts.len() {
        0 => Expr::lit(true),
        1 => conjuncts.pop().unwrap(),
        _ => Expr::And(conjuncts),
    }
}

/// Does the expression reference any variable?
pub fn is_constant(e: &Expr) -> bool {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    cols.is_empty()
}

/// Evaluate a variable-free expression at compile time.
pub fn const_fold(e: &Expr, registry: &FunctionRegistry) -> Option<Value> {
    if !is_constant(e) {
        return None;
    }
    e.eval(&[], registry).ok()
}

fn as_number(v: &Value) -> Option<f64> {
    v.as_f64()
}

/// Recognize a similarity predicate in one conjunct. Handles:
///
/// * `similarity-jaccard(a, b) >= δ` (also `>`, and the mirrored
///   `δ <= similarity-jaccard(a, b)` forms),
/// * `edit-distance(a, b) <= k` (also `<`, and mirrored forms),
/// * `edit-distance-check(a, b, k)` (the early-terminating variant).
///
/// A strict `>` / `<` is conservatively relaxed for candidate generation
/// (the verification SELECT re-applies the original predicate, so results
/// stay exact).
pub fn recognize_similarity(conjunct: &Expr) -> Option<SimPredicate> {
    match conjunct {
        Expr::Cmp(op, l, r) => {
            // Normalize to: call OP constant.
            let (call, op, constant) = match (l.as_ref(), r.as_ref()) {
                (Expr::Call(..), Expr::Const(c)) => (l.as_ref(), *op, c),
                (Expr::Const(c), Expr::Call(..)) => (r.as_ref(), op.mirrored(), c),
                _ => return None,
            };
            let Expr::Call(name, args) = call else {
                return None;
            };
            match (name.as_str(), op) {
                ("similarity-jaccard", CmpOp::Ge | CmpOp::Gt) if args.len() == 2 => {
                    let delta = as_number(constant)?;
                    Some(SimPredicate {
                        measure: SearchMeasure::Jaccard { delta },
                        args: [args[0].clone(), args[1].clone()],
                        original: conjunct.clone(),
                    })
                }
                ("edit-distance", CmpOp::Le | CmpOp::Lt) if args.len() == 2 => {
                    let raw = as_number(constant)?;
                    let k = if op == CmpOp::Lt {
                        (raw.ceil() as i64 - 1).max(0) as u32
                    } else {
                        raw.floor().max(0.0) as u32
                    };
                    Some(SimPredicate {
                        measure: SearchMeasure::EditDistance { k },
                        args: [args[0].clone(), args[1].clone()],
                        original: conjunct.clone(),
                    })
                }
                _ => None,
            }
        }
        Expr::Call(name, args) if name == "edit-distance-check" && args.len() == 3 => {
            let k = match &args[2] {
                Expr::Const(c) => as_number(c)?.floor().max(0.0) as u32,
                _ => return None,
            };
            Some(SimPredicate {
                measure: SearchMeasure::EditDistance { k },
                args: [args[0].clone(), args[1].clone()],
                original: conjunct.clone(),
            })
        }
        _ => None,
    }
}

/// If the expression reads a field of a record variable — possibly under a
/// tokenizer — return `(var, field_path)`. These are the shapes index
/// rewrites accept as the indexed side:
///
/// * `$rec.path`
/// * `word-tokens($rec.path)`
/// * `gram-tokens($rec.path, n)`
pub fn indexed_field_of(e: &Expr) -> Option<(usize, String)> {
    fn direct(e: &Expr) -> Option<(usize, String)> {
        match e {
            Expr::Field(inner, path) => match inner.as_ref() {
                Expr::Column(v) => Some((*v, path.clone())),
                // Nested field accesses compose into a dotted path.
                other => direct(other).map(|(v, p)| (v, format!("{p}.{path}"))),
            },
            _ => None,
        }
    }
    match e {
        Expr::Call(name, args)
            if (name == "word-tokens" && args.len() == 1)
                || (name == "gram-tokens" && args.len() == 2) =>
        {
            direct(&args[0])
        }
        other => direct(other),
    }
}

/// The probe expression an index search should evaluate for a similarity
/// argument: the raw field/constant value (the index tokenizes itself).
pub fn probe_expr_of(e: &Expr) -> Expr {
    match e {
        Expr::Call(name, args)
            if (name == "word-tokens" && args.len() == 1)
                || (name == "gram-tokens" && args.len() == 2) =>
        {
            args[0].clone()
        }
        other => other.clone(),
    }
}

/// Compile-time corner-case check for an edit-distance *selection* whose
/// probe side folded to a constant: `true` means the index is usable
/// (T > 0 over distinct grams), `false` means fall back to a scan
/// (§5.1.1).
pub fn edit_distance_index_usable(constant: &Value, k: u32, n: usize) -> bool {
    match constant.as_str() {
        Some(s) => {
            let grams = tokenize::gram_tokens_distinct(s, n);
            edit_distance_t_bound(grams.len(), k, n) > 0
        }
        None => false,
    }
}

/// Compile-time corner-case check for a Jaccard *selection* whose probe
/// side folded to a constant: `true` means the index is usable
/// (`T = ceil(δ·|tokens|) >= 1` over the probe's distinct tokens under the
/// index's own tokenizer), `false` means fall back to a scan. `δ <= 0`
/// and empty probe token sets are corner cases — the scan plan still
/// matches (everything, resp. empty-token records, since `J(∅, ∅) = 1`)
/// while an index search would emit no candidates.
pub fn jaccard_index_usable(constant: &Value, delta: f64, kind: IndexKind) -> bool {
    let num_tokens = match (kind, constant) {
        (IndexKind::Keyword, Value::String(s)) => tokenize::word_tokens_distinct(s).len(),
        (IndexKind::Keyword, Value::OrderedList(items))
        | (IndexKind::Keyword, Value::UnorderedList(items)) => {
            let mut v = items.clone();
            v.sort();
            v.dedup();
            v.len()
        }
        (IndexKind::NGram(n), Value::String(s)) => tokenize::gram_tokens_distinct(s, n).len(),
        _ => 0,
    };
    jaccard_t_bound(num_tokens, delta) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jacc_pred() -> Expr {
        Expr::cmp(
            CmpOp::Ge,
            Expr::call(
                "similarity-jaccard",
                vec![
                    Expr::call("word-tokens", vec![Expr::Column(1).field("summary")]),
                    Expr::call("word-tokens", vec![Expr::Column(3).field("summary")]),
                ],
            ),
            Expr::lit(0.5f64),
        )
    }

    #[test]
    fn conjunct_roundtrip() {
        let e = Expr::And(vec![
            Expr::lit(true),
            Expr::And(vec![jacc_pred(), Expr::lit(false)]),
        ]);
        let cs = split_conjuncts(&e);
        assert_eq!(cs.len(), 3);
        let back = and_of(cs);
        assert!(matches!(back, Expr::And(ref v) if v.len() == 3));
        assert!(matches!(and_of(vec![]), Expr::Const(Value::Boolean(true))));
    }

    #[test]
    fn recognize_jaccard_ge() {
        let p = recognize_similarity(&jacc_pred()).unwrap();
        assert_eq!(p.measure, SearchMeasure::Jaccard { delta: 0.5 });
    }

    #[test]
    fn recognize_mirrored_constant_side() {
        let e = Expr::cmp(
            CmpOp::Le,
            Expr::lit(0.8f64),
            Expr::call("similarity-jaccard", vec![Expr::col(0), Expr::col(1)]),
        );
        let p = recognize_similarity(&e).unwrap();
        assert_eq!(p.measure, SearchMeasure::Jaccard { delta: 0.8 });
    }

    #[test]
    fn recognize_edit_distance_le_and_lt() {
        let le = Expr::cmp(
            CmpOp::Le,
            Expr::call("edit-distance", vec![Expr::col(0), Expr::lit("c")]),
            Expr::lit(2i64),
        );
        assert_eq!(
            recognize_similarity(&le).unwrap().measure,
            SearchMeasure::EditDistance { k: 2 }
        );
        let lt = Expr::cmp(
            CmpOp::Lt,
            Expr::call("edit-distance", vec![Expr::col(0), Expr::lit("c")]),
            Expr::lit(2i64),
        );
        assert_eq!(
            recognize_similarity(&lt).unwrap().measure,
            SearchMeasure::EditDistance { k: 1 }
        );
    }

    #[test]
    fn recognize_edit_distance_check() {
        let e = Expr::call(
            "edit-distance-check",
            vec![Expr::col(0), Expr::lit("x"), Expr::lit(3i64)],
        );
        assert_eq!(
            recognize_similarity(&e).unwrap().measure,
            SearchMeasure::EditDistance { k: 3 }
        );
    }

    #[test]
    fn non_similarity_not_recognized() {
        assert!(recognize_similarity(&Expr::eq(Expr::col(0), Expr::col(1))).is_none());
        // Wrong direction: jaccard <= c is not an index-friendly predicate.
        let e = Expr::cmp(
            CmpOp::Le,
            Expr::call("similarity-jaccard", vec![Expr::col(0), Expr::col(1)]),
            Expr::lit(0.5f64),
        );
        assert!(recognize_similarity(&e).is_none());
    }

    #[test]
    fn constant_detection_and_folding() {
        let reg = FunctionRegistry::with_builtins();
        let c = Expr::call("word-tokens", vec![Expr::lit("a b")]);
        assert!(is_constant(&c));
        let v = const_fold(&c, &reg).unwrap();
        assert_eq!(v.len(), Some(2));
        assert!(!is_constant(&Expr::col(0)));
        assert!(const_fold(&Expr::col(0), &reg).is_none());
    }

    #[test]
    fn indexed_field_shapes() {
        assert_eq!(
            indexed_field_of(&Expr::Column(1).field("summary")),
            Some((1, "summary".into()))
        );
        assert_eq!(
            indexed_field_of(&Expr::call(
                "word-tokens",
                vec![Expr::Column(3).field("user.name")]
            )),
            Some((3, "user.name".into()))
        );
        assert_eq!(
            indexed_field_of(&Expr::Column(1).field("user").field("name")),
            Some((1, "user.name".into()))
        );
        assert!(indexed_field_of(&Expr::lit("x")).is_none());
    }

    #[test]
    fn probe_strips_tokenizer() {
        let probe = probe_expr_of(&Expr::call(
            "word-tokens",
            vec![Expr::Column(1).field("summary")],
        ));
        assert_eq!(probe, Expr::Column(1).field("summary"));
        assert_eq!(probe_expr_of(&Expr::lit("q")), Expr::lit("q"));
    }

    #[test]
    fn corner_case_detection() {
        // "marla" has 4 distinct 2-grams; k=1 → T=2 usable; k=2 → T=0 not.
        assert!(edit_distance_index_usable(&Value::from("marla"), 1, 2));
        assert!(!edit_distance_index_usable(&Value::from("marla"), 2, 2));
        assert!(!edit_distance_index_usable(&Value::Int64(5), 1, 2));
    }
}
