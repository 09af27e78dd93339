//! The similarity-function registry and the [`SimilarityMeasure`]
//! descriptor.
//!
//! §3.1: AsterixDB ships built-in measures (edit distance, Jaccard) and
//! lets users register their own similarity UDFs (`create function
//! similarity-cosine(x, y) { ... }`). The registry maps function names to
//! implementations over ADM [`Value`]s; the expression evaluator of the
//! runtime resolves calls through it, so a UDF is usable anywhere a
//! built-in is — including inside `~=` via `set simfunction`.

use asterix_adm::{Value, ValueKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::edit_distance::{edit_distance, edit_distance_check, list_edit_distance, list_edit_distance_check};
use crate::jaccard::{cosine, dice, jaccard, jaccard_check};
use crate::prefix::{prefix_len_jaccard, subset_collection};
use crate::tokenize::{gram_tokens, word_tokens};

/// A scalar function over ADM values. Errors are runtime type errors.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value, String> + Send + Sync>;

/// A similarity predicate with its threshold — what `~=` desugars to after
/// reading `set simfunction` / `set simthreshold` (§3.2).
#[derive(Clone, Debug, PartialEq)]
pub enum SimilarityMeasure {
    /// `similarity-jaccard(x, y) >= delta`
    Jaccard { delta: f64 },
    /// `edit-distance(x, y) <= k`
    EditDistance { k: u32 },
}

impl SimilarityMeasure {
    pub fn function_name(&self) -> &'static str {
        match self {
            SimilarityMeasure::Jaccard { .. } => "similarity-jaccard",
            SimilarityMeasure::EditDistance { .. } => "edit-distance",
        }
    }

    /// Verify the predicate on two values (the SELECT operator that removes
    /// false positives runs exactly this).
    pub fn verify(&self, a: &Value, b: &Value) -> bool {
        match self {
            SimilarityMeasure::Jaccard { delta } => match (a.as_list(), b.as_list()) {
                (Some(x), Some(y)) => jaccard_check(x, y, *delta).is_some(),
                _ => false,
            },
            SimilarityMeasure::EditDistance { k } => match (a, b) {
                (Value::String(x), Value::String(y)) => edit_distance_check(x, y, *k).is_some(),
                (Value::OrderedList(x), Value::OrderedList(y)) => {
                    list_edit_distance_check(x, y, *k).is_some()
                }
                _ => false,
            },
        }
    }
}

impl fmt::Display for SimilarityMeasure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimilarityMeasure::Jaccard { delta } => write!(f, "jaccard >= {delta}"),
            SimilarityMeasure::EditDistance { k } => write!(f, "edit-distance <= {k}"),
        }
    }
}

/// Function registry: the built-ins of §3 plus user-defined functions.
#[derive(Clone)]
pub struct FunctionRegistry {
    fns: HashMap<String, ScalarFn>,
}

impl fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(|s| s.as_str()).collect();
        names.sort();
        f.debug_struct("FunctionRegistry").field("functions", &names).finish()
    }
}

impl FunctionRegistry {
    /// Registry pre-populated with every built-in function used by the
    /// paper's queries and plans.
    pub fn with_builtins() -> Self {
        let mut r = FunctionRegistry { fns: HashMap::new() };
        r.register("edit-distance", |args| {
            expect_arity(args, 2, "edit-distance")?;
            match (&args[0], &args[1]) {
                (Value::String(a), Value::String(b)) => {
                    Ok(Value::Int64(edit_distance(a, b) as i64))
                }
                (Value::OrderedList(a), Value::OrderedList(b)) => {
                    Ok(Value::Int64(list_edit_distance(a, b) as i64))
                }
                (a, b) if a.is_unknown() || b.is_unknown() => Ok(Value::Null),
                (a, b) => Err(type_err("edit-distance", &[a, b])),
            }
        });
        r.register("edit-distance-check", |args| {
            expect_arity(args, 3, "edit-distance-check")?;
            let k = u32_arg(&args[2], "edit-distance-check")?;
            let ok = match (&args[0], &args[1]) {
                (Value::String(a), Value::String(b)) => edit_distance_check(a, b, k).is_some(),
                (Value::OrderedList(a), Value::OrderedList(b)) => {
                    list_edit_distance_check(a, b, k).is_some()
                }
                (a, b) if a.is_unknown() || b.is_unknown() => false,
                (a, b) => return Err(type_err("edit-distance-check", &[a, b])),
            };
            Ok(Value::Boolean(ok))
        });
        r.register("similarity-jaccard", |args| {
            if args.len() == 3 {
                // Early-terminating variant with an inline threshold, as in
                // Fig 11 line 45: similarity-jaccard($l, $r, .5f).
                let delta = float_arg(&args[2], "similarity-jaccard")?;
                return match (args[0].as_list(), args[1].as_list()) {
                    (Some(a), Some(b)) => Ok(Value::double(
                        jaccard_check(a, b, delta).unwrap_or(0.0),
                    )),
                    _ => Ok(Value::double(0.0)),
                };
            }
            expect_arity(args, 2, "similarity-jaccard")?;
            match (args[0].as_list(), args[1].as_list()) {
                (Some(a), Some(b)) => Ok(Value::double(jaccard(a, b))),
                _ if args[0].is_unknown() || args[1].is_unknown() => Ok(Value::Null),
                _ => Err(type_err("similarity-jaccard", &[&args[0], &args[1]])),
            }
        });
        r.register("similarity-dice", |args| {
            expect_arity(args, 2, "similarity-dice")?;
            match (args[0].as_list(), args[1].as_list()) {
                (Some(a), Some(b)) => Ok(Value::double(dice(a, b))),
                _ => Err(type_err("similarity-dice", &[&args[0], &args[1]])),
            }
        });
        r.register("similarity-cosine", |args| {
            expect_arity(args, 2, "similarity-cosine")?;
            match (args[0].as_list(), args[1].as_list()) {
                (Some(a), Some(b)) => Ok(Value::double(cosine(a, b))),
                _ => Err(type_err("similarity-cosine", &[&args[0], &args[1]])),
            }
        });
        r.register("word-tokens", |args| {
            expect_arity(args, 1, "word-tokens")?;
            match &args[0] {
                Value::String(s) => Ok(Value::OrderedList(
                    word_tokens(s).into_iter().map(Value::String).collect(),
                )),
                Value::OrderedList(_) => Ok(args[0].clone()),
                v if v.is_unknown() => Ok(Value::OrderedList(vec![])),
                v => Err(type_err("word-tokens", &[v])),
            }
        });
        r.register("gram-tokens", |args| {
            expect_arity(args, 2, "gram-tokens")?;
            let n = usize_arg(&args[1], "gram-tokens")?;
            match &args[0] {
                Value::String(s) => Ok(Value::OrderedList(
                    gram_tokens(s, n.max(1)).into_iter().map(Value::String).collect(),
                )),
                v if v.is_unknown() => Ok(Value::OrderedList(vec![])),
                v => Err(type_err("gram-tokens", &[v])),
            }
        });
        r.register("prefix-len-jaccard", |args| {
            expect_arity(args, 2, "prefix-len-jaccard")?;
            let len = usize_arg(&args[0], "prefix-len-jaccard")?;
            let delta = float_arg(&args[1], "prefix-len-jaccard")?;
            Ok(Value::Int64(prefix_len_jaccard(len, delta) as i64))
        });
        r.register("subset-collection", |args| {
            expect_arity(args, 3, "subset-collection")?;
            let start = int_arg(&args[1], "subset-collection")?.max(0) as usize;
            let count = int_arg(&args[2], "subset-collection")?.max(0) as usize;
            match args[0].as_list() {
                Some(items) => Ok(Value::OrderedList(subset_collection(items, start, count))),
                None => Err(type_err("subset-collection", &[&args[0]])),
            }
        });
        r.register("len", |args| {
            expect_arity(args, 1, "len")?;
            match args[0].len() {
                Some(n) => Ok(Value::Int64(n as i64)),
                None if args[0].is_unknown() => Ok(Value::Null),
                None => Err(type_err("len", &[&args[0]])),
            }
        });
        r.register("edit-distance-can-use-index", |args| {
            // True iff an ngram(n) index search for this key with threshold
            // k has a positive T-occurrence bound (non-corner-case, §5.1.1).
            // Mirrors the runtime index search: T over distinct grams.
            expect_arity(args, 3, "edit-distance-can-use-index")?;
            let k = int_arg(&args[1], "edit-distance-can-use-index")?.max(0) as u32;
            let n = int_arg(&args[2], "edit-distance-can-use-index")?.max(1) as usize;
            let ok = match &args[0] {
                Value::String(s) => {
                    let grams = crate::tokenize::gram_tokens_distinct(s, n);
                    crate::toccurrence::edit_distance_t_bound(grams.len(), k, n) > 0
                }
                _ => false,
            };
            Ok(Value::Boolean(ok))
        });
        r.register("jaccard-can-use-index", |args| {
            // True iff an inverted-index search for this key has at least
            // one token to probe (non-corner case). J(∅, ∅) = 1, so
            // empty-token keys must take the scan/NL path or they would
            // silently miss empty-token records. `n` is the index gram
            // length, 0 for a keyword index — mirrors the index-side
            // tokenization exactly.
            expect_arity(args, 2, "jaccard-can-use-index")?;
            let n = int_arg(&args[1], "jaccard-can-use-index")?.max(0) as usize;
            let has_tokens = match &args[0] {
                // Without materialising tokens: a string has a word token
                // iff it has an alphanumeric char, and a gram iff it is
                // non-empty (`to_lowercase` never yields an empty string).
                Value::String(s) if n == 0 => s.chars().any(char::is_alphanumeric),
                Value::String(s) => !s.is_empty(),
                // A keyword index on a list field uses the list elements.
                Value::OrderedList(items) | Value::UnorderedList(items) => {
                    n == 0 && !items.is_empty()
                }
                _ => false,
            };
            Ok(Value::Boolean(has_tokens))
        });
        r.register("hamming-distance", |args| {
            expect_arity(args, 2, "hamming-distance")?;
            match (&args[0], &args[1]) {
                (Value::String(a), Value::String(b)) => {
                    Ok(match crate::string_extra::hamming_distance(a, b) {
                        Some(d) => Value::Int64(d as i64),
                        None => Value::Null, // undefined for unequal lengths
                    })
                }
                (a, b) if a.is_unknown() || b.is_unknown() => Ok(Value::Null),
                (a, b) => Err(type_err("hamming-distance", &[a, b])),
            }
        });
        r.register("similarity-jaro-winkler", |args| {
            expect_arity(args, 2, "similarity-jaro-winkler")?;
            match (&args[0], &args[1]) {
                (Value::String(a), Value::String(b)) => {
                    Ok(Value::double(crate::string_extra::jaro_winkler(a, b)))
                }
                (a, b) if a.is_unknown() || b.is_unknown() => Ok(Value::Null),
                (a, b) => Err(type_err("similarity-jaro-winkler", &[a, b])),
            }
        });
        r.register("similarity-overlap", |args| {
            expect_arity(args, 2, "similarity-overlap")?;
            match (args[0].as_list(), args[1].as_list()) {
                (Some(a), Some(b)) => {
                    Ok(Value::double(crate::string_extra::overlap_coefficient(a, b)))
                }
                _ => Err(type_err("similarity-overlap", &[&args[0], &args[1]])),
            }
        });
        r.register("get-item", |args| {
            expect_arity(args, 2, "get-item")?;
            let i = int_arg(&args[1], "get-item")?;
            match args[0].as_list() {
                Some(items) if i >= 0 => {
                    Ok(items.get(i as usize).cloned().unwrap_or(Value::Missing))
                }
                _ => Ok(Value::Missing),
            }
        });
        r.register("contains", |args| {
            expect_arity(args, 2, "contains")?;
            match (&args[0], &args[1]) {
                (Value::String(a), Value::String(b)) => Ok(Value::Boolean(a.contains(b.as_str()))),
                (a, b) => Err(type_err("contains", &[a, b])),
            }
        });
        r
    }

    /// Register a function (built-in or UDF). Overwrites any previous
    /// binding with the same name.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        self.fns.insert(name.to_string(), Arc::new(f));
    }

    pub fn get(&self, name: &str) -> Option<&ScalarFn> {
        self.fns.get(name)
    }

    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value, String> {
        match self.fns.get(name) {
            Some(f) => f(args),
            None => Err(format!("unknown function '{name}'")),
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

fn expect_arity(args: &[Value], n: usize, name: &str) -> Result<(), String> {
    if args.len() != n {
        Err(format!("{name} expects {n} arguments, got {}", args.len()))
    } else {
        Ok(())
    }
}

fn int_arg(v: &Value, name: &str) -> Result<i64, String> {
    v.as_i64()
        .or_else(|| v.as_f64().map(|x| x as i64))
        .ok_or_else(|| format!("{name}: expected integer, got {}", v.kind().name()))
}

/// Checked `u32` coercion: rejects negative and oversized thresholds
/// instead of silently wrapping (`-1 as u32` used to become 4294967295,
/// turning `edit-distance-check(a, b, -1)` into "accept everything").
fn u32_arg(v: &Value, name: &str) -> Result<u32, String> {
    let i = int_arg(v, name)?;
    u32::try_from(i).map_err(|_| format!("{name}: integer out of range: {i}"))
}

/// Checked non-negative coercion for lengths/counts; negative inputs are a
/// type error, not a wrap to a huge `usize`.
fn usize_arg(v: &Value, name: &str) -> Result<usize, String> {
    let i = int_arg(v, name)?;
    usize::try_from(i).map_err(|_| format!("{name}: expected non-negative integer, got {i}"))
}

fn float_arg(v: &Value, name: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("{name}: expected number, got {}", v.kind().name()))
}

fn type_err(name: &str, args: &[&Value]) -> String {
    let kinds: Vec<&str> = args.iter().map(|v| v.kind().name()).collect();
    format!("{name}: unsupported argument types {kinds:?}")
}

/// Helper: does `kind` describe a value a similarity measure can apply to?
pub fn measure_applicable(measure: &SimilarityMeasure, kind: ValueKind) -> bool {
    match measure {
        SimilarityMeasure::Jaccard { .. } => {
            matches!(kind, ValueKind::OrderedList | ValueKind::UnorderedList)
        }
        SimilarityMeasure::EditDistance { .. } => {
            matches!(kind, ValueKind::String | ValueKind::OrderedList)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn list_of(words: &[&str]) -> Value {
        Value::OrderedList(words.iter().map(|w| Value::from(*w)).collect())
    }

    #[test]
    fn builtin_edit_distance() {
        let r = FunctionRegistry::with_builtins();
        assert_eq!(
            r.call("edit-distance", &[Value::from("james"), Value::from("jamie")]),
            Ok(Value::Int64(2))
        );
    }

    #[test]
    fn builtin_jaccard_paper_example() {
        let r = FunctionRegistry::with_builtins();
        let a = list_of(&["Good", "Product", "Value"]);
        let b = list_of(&["Nice", "Product"]);
        assert_eq!(
            r.call("similarity-jaccard", &[a, b]),
            Ok(Value::double(0.25))
        );
    }

    #[test]
    fn builtin_word_tokens_then_jaccard() {
        let r = FunctionRegistry::with_builtins();
        let t1 = r.call("word-tokens", &[Value::from("Great Product")]).unwrap();
        let t2 = r.call("word-tokens", &[Value::from("great product!")]).unwrap();
        assert_eq!(r.call("similarity-jaccard", &[t1, t2]), Ok(Value::double(1.0)));
    }

    #[test]
    fn builtin_prefix_helpers() {
        let r = FunctionRegistry::with_builtins();
        assert_eq!(
            r.call("prefix-len-jaccard", &[Value::Int64(4), Value::double(0.5)]),
            Ok(Value::Int64(3))
        );
        let lst = Value::OrderedList(vec![1.into(), 2.into(), 3.into(), 4.into()]);
        assert_eq!(
            r.call("subset-collection", &[lst, Value::Int64(0), Value::Int64(2)]),
            Ok(Value::OrderedList(vec![1.into(), 2.into()]))
        );
    }

    #[test]
    fn unknown_function_errors() {
        let r = FunctionRegistry::with_builtins();
        assert!(r.call("no-such-fn", &[]).is_err());
    }

    #[test]
    fn udf_registration_and_override() {
        let mut r = FunctionRegistry::with_builtins();
        r.register("similarity-reverse-eq", |args| {
            let a = args[0].as_str().unwrap_or_default();
            let b: String = args[1].as_str().unwrap_or_default().chars().rev().collect();
            Ok(Value::double(if a == b { 1.0 } else { 0.0 }))
        });
        assert_eq!(
            r.call("similarity-reverse-eq", &[Value::from("abc"), Value::from("cba")]),
            Ok(Value::double(1.0))
        );
        // Overriding a built-in is allowed (user-provided logic wins).
        r.register("len", |_| Ok(Value::Int64(99)));
        assert_eq!(r.call("len", &[Value::from("x")]), Ok(Value::Int64(99)));
    }

    #[test]
    fn measure_verify() {
        let jac = SimilarityMeasure::Jaccard { delta: 0.5 };
        assert!(jac.verify(&list_of(&["a", "b"]), &list_of(&["a", "b", "c"])));
        assert!(!jac.verify(&list_of(&["a"]), &list_of(&["b"])));
        let ed = SimilarityMeasure::EditDistance { k: 1 };
        assert!(ed.verify(&Value::from("marla"), &Value::from("maria")));
        assert!(!ed.verify(&Value::from("marla"), &Value::from("bob")));
    }

    #[test]
    fn measure_verify_type_mismatch_is_false() {
        let jac = SimilarityMeasure::Jaccard { delta: 0.5 };
        assert!(!jac.verify(&Value::Int64(1), &Value::Int64(1)));
        let ed = SimilarityMeasure::EditDistance { k: 2 };
        assert!(!ed.verify(&Value::Null, &Value::from("x")));
    }

    #[test]
    fn edit_distance_null_propagates() {
        let r = FunctionRegistry::with_builtins();
        assert_eq!(
            r.call("edit-distance", &[Value::Null, Value::from("x")]),
            Ok(Value::Null)
        );
    }

    #[test]
    fn extra_string_measures() {
        let r = FunctionRegistry::with_builtins();
        assert_eq!(
            r.call("hamming-distance", &[Value::from("karolin"), Value::from("kathrin")]),
            Ok(Value::Int64(3))
        );
        assert_eq!(
            r.call("hamming-distance", &[Value::from("ab"), Value::from("abc")]),
            Ok(Value::Null)
        );
        let jw = r
            .call("similarity-jaro-winkler", &[Value::from("martha"), Value::from("marhta")])
            .unwrap();
        assert!(jw.as_f64().unwrap() > 0.9);
    }

    /// Malformed-value corpus: every argument-coercion path must return a
    /// typed error (or a defined unknown-propagation result), never wrap,
    /// truncate, or panic.
    #[test]
    fn malformed_arguments_yield_typed_errors_not_panics() {
        let r = FunctionRegistry::with_builtins();
        let s = Value::from("abc");
        // Negative thresholds used to wrap (`-1 as u32` = u32::MAX), making
        // the check accept everything; now a typed error.
        assert!(r
            .call("edit-distance-check", &[s.clone(), s.clone(), Value::Int64(-1)])
            .is_err());
        // Negative gram length used to wrap to a huge usize.
        assert!(r.call("gram-tokens", &[s.clone(), Value::Int64(-3)]).is_err());
        assert!(r
            .call("prefix-len-jaccard", &[Value::Int64(-4), Value::double(0.5)])
            .is_err());
        // Out-of-range (but positive) thresholds are also rejected.
        assert!(r
            .call("edit-distance-check", &[s.clone(), s.clone(), Value::Int64(1 << 40)])
            .is_err());
        // Non-numeric where a number is required.
        assert!(r
            .call("edit-distance-check", &[s.clone(), s.clone(), Value::from("two")])
            .is_err());
        // Type mismatches stay typed errors.
        assert!(r.call("edit-distance", &[Value::Int64(1), s.clone()]).is_err());
        assert!(r
            .call("similarity-jaccard", &[Value::Int64(1), Value::Int64(2)])
            .is_err());
        // In-range values still work after the hardening.
        assert_eq!(
            r.call("edit-distance-check", &[s.clone(), Value::from("abd"), Value::Int64(1)]),
            Ok(Value::Boolean(true))
        );
    }

    #[test]
    fn arity_errors() {
        let r = FunctionRegistry::with_builtins();
        assert!(r.call("edit-distance", &[Value::from("a")]).is_err());
        assert!(r.call("len", &[]).is_err());
    }

    proptest! {
        #[test]
        fn prop_jaccard_can_use_index_matches_token_lists(
            s in prop_oneof![
                prop::collection::vec(0u32..0x11_0000, 0..8)
                    .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect()),
                "[ ,.;!İÄé0-9a-zA-Z\u{301}\u{2003}]{0,6}",
            ],
            n in -1i64..5,
        ) {
            // The definition before it stopped materialising tokens.
            let expected = if n <= 0 {
                !crate::tokenize::word_tokens(&s).is_empty()
            } else {
                !crate::tokenize::gram_tokens(&s, n as usize).is_empty()
            };
            let r = FunctionRegistry::with_builtins();
            prop_assert_eq!(
                r.call("jaccard-can-use-index", &[Value::from(s.as_str()), Value::Int64(n)]),
                Ok(Value::Boolean(expected))
            );
        }
    }
}
