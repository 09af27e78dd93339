//! Vectorized verification kernels for the select and nested-loop join
//! operators, plus the column-aware expression evaluator every operator
//! uses in place of row materialization.
//!
//! The verify step of a similarity query evaluates the *same* predicate
//! over every candidate row: `similarity-jaccard(word-tokens(a),
//! word-tokens(b)) >= δ` or `edit-distance(a, b) <= k`. Interpreting the
//! predicate re-tokenizes, re-sorts and re-compares [`Value`] trees per
//! candidate. This module compiles those predicate shapes once per
//! operator instance into a [`VerifyKernel`]. How a shape runs depends
//! on its two sides:
//!
//! * **A column against a literal** (a selection's probe, scanned or
//!   index-verified). The literal is prepared once at compile time: its
//!   distinct word tokens take the ids `0..|P|`, so membership is
//!   `id < |P|`, and its chars are decoded once. The column side is
//!   streamed: each row is tokenized into a reused buffer, its token ids
//!   are collected, sorted and deduplicated in a reused vector, and only a
//!   token never seen before allocates. Edit distance applies the §2.2
//!   length filter on the byte length before it decodes a row's chars
//!   into a reused buffer. Nothing is cached per row.
//! * **Two columns** (a join verify, where the outer value repeats over
//!   many candidates). Token sets and decoded chars are cached per
//!   distinct string, in maps that are cleared when full; the side that
//!   repeats from the previous row gets a [`TokenBitset`], otherwise a
//!   galloping merge counts the intersection.
//!
//! Banded or bit-parallel edit distance runs with one reusable
//! [`EdScratch`] per instance.
//!
//! Conjunctions compile too: `And(sim >= δ, residual…)` vectorizes the
//! similarity conjunct and evaluates the residual conjuncts with a
//! column-aware mirror of [`Expr::eval`] (`eval_batch_expr`) that reads
//! cells in place instead of materializing (deep-cloning) each row — the
//! shape index-nested-loop join verifies take after predicate pushdown.
//!
//! Every row whose argument types fall outside the vectorized fast path
//! (lists, mixed types, out-of-bounds columns) is re-evaluated through the
//! interpreted expression path, so acceptance, `NULL` semantics and
//! *errors* are bit-identical to the scalar implementation. A kernel only
//! compiles for the recognized shapes; any other predicate is evaluated
//! row by row over the batch cells (`eval_pred_on_batch`), still
//! without materializing a tuple.

use crate::error::OpError;
use crate::expr::{sql_compare, CmpOp, Expr};
use crate::tuple::{Batch, BatchSlice, Column};
use asterix_adm::Value;
use asterix_simfn::{
    edit_distance_check_chars, edit_distance_check_chars_scalar, intersection_size_u32,
    for_each_word_token, jaccard_from_counts, EdScratch, FunctionRegistry, FxHashMap, TokenBitset,
};
use std::sync::Arc;

/// Distinct input strings whose token sets / char buffers one kernel
/// instance caches for column-vs-column verifies.
const KERNEL_CACHE_CAPACITY: usize = 4096;

/// A verify-predicate argument: a column, a field path rooted at a
/// column, or a literal.
enum ArgExpr {
    Col(usize),
    Path(usize, Vec<String>),
    Lit(Value),
}

/// One evaluated argument cell, borrowed from the batch when possible.
enum Cell<'a> {
    Str(&'a str),
    Val(&'a Value),
    Owned(Value),
    /// Column index beyond the batch width: the row path reports a typed
    /// error for this, so the kernel must fall back.
    OutOfBounds,
}

impl ArgExpr {
    fn compile(e: &Expr) -> Option<ArgExpr> {
        match e {
            Expr::Column(i) => Some(ArgExpr::Col(*i)),
            Expr::Const(v) => Some(ArgExpr::Lit(v.clone())),
            Expr::Field(inner, name) => {
                let mut path = vec![name.clone()];
                let mut cur = inner.as_ref();
                loop {
                    match cur {
                        Expr::Field(e2, n2) => {
                            path.push(n2.clone());
                            cur = e2.as_ref();
                        }
                        Expr::Column(i) => {
                            path.reverse();
                            return Some(ArgExpr::Path(*i, path));
                        }
                        _ => return None,
                    }
                }
            }
            _ => None,
        }
    }

    fn cell<'a>(&'a self, batch: &'a Batch, row: usize) -> Cell<'a> {
        match self {
            ArgExpr::Col(i) => match batch.col(*i) {
                None => Cell::OutOfBounds,
                Some(col @ Column::Str { .. }) => match col.get_str(row) {
                    Some(s) => Cell::Str(s),
                    None => Cell::OutOfBounds,
                },
                Some(col @ Column::Int64(_)) => Cell::Owned(col.value(row)),
                Some(col @ (Column::Values(_) | Column::Shared(_))) => match col.get_value(row) {
                    Some(v) => Cell::Val(v),
                    None => Cell::OutOfBounds,
                },
            },
            ArgExpr::Path(i, path) => match batch.col(*i) {
                None => Cell::OutOfBounds,
                Some(col @ (Column::Values(_) | Column::Shared(_))) => {
                    let Some(mut cur) = col.get_value(row) else {
                        return Cell::OutOfBounds;
                    };
                    for p in path {
                        cur = cur.field_path(p);
                    }
                    Cell::Val(cur)
                }
                Some(other) => {
                    // Field access on a scalar base yields Missing, exactly
                    // as the row path's open-record semantics do.
                    let mut cur = other.value(row);
                    for p in path {
                        cur = cur.field_path(p).clone();
                    }
                    Cell::Owned(cur)
                }
            },
            ArgExpr::Lit(v) => Cell::Val(v),
        }
    }
}

/// The compiled shape of a recognized verify predicate.
enum VerifyPlan {
    /// `similarity-jaccard(word-tokens(a), word-tokens(b)) >=|> δ`
    Jaccard {
        sides: Sides<TokenProbe>,
        op: CmpOp,
        delta: f64,
    },
    /// `edit-distance(a, b) <=|< k`
    EditDistance {
        sides: Sides<CharProbe>,
        op: CmpOp,
        k: i64,
    },
    /// `edit-distance-check(a, b, k)` used directly as the predicate.
    EdCheck { sides: Sides<CharProbe>, k: u32 },
}

/// The two arguments of a verify shape: a column side facing a literal
/// that was prepared once at compile time (a selection's constant probe),
/// or two column sides (a join verify).
enum Sides<P> {
    Probe { col: ArgExpr, probe: P },
    Cols(ArgExpr, ArgExpr),
}

impl<P> Sides<P> {
    /// Prepare the literal side when it is a string or unknown literal;
    /// anything else keeps both sides as they are.
    fn compile(a: ArgExpr, b: ArgExpr, prepare: impl FnOnce(Option<&str>) -> P) -> Sides<P> {
        let (col, lit) = match (a, b) {
            (col, ArgExpr::Lit(v)) | (ArgExpr::Lit(v), col) => (col, v),
            (a, b) => return Sides::Cols(a, b),
        };
        match side_str(Cell::Val(&lit)) {
            Some(s) => Sides::Probe {
                col,
                probe: prepare(s),
            },
            None => Sides::Cols(col, ArgExpr::Lit(lit)),
        }
    }
}

/// The prepared literal of a constant-probe Jaccard: its distinct tokens
/// hold ids `0..len`, so a column token is in the probe iff its id is
/// below `len`. Column tokens are interned into the same map the first
/// time the operator sees them.
struct TokenProbe {
    ids: FxHashMap<String, u32>,
    len: usize,
}

impl TokenProbe {
    /// `s` is the literal's string, `None` for a NULL/MISSING literal
    /// (whose `word-tokens` is the empty list).
    fn new(s: Option<&str>) -> TokenProbe {
        let mut ids = FxHashMap::default();
        for_each_word_token(s.unwrap_or(""), &mut String::new(), |t| {
            intern(&mut ids, t);
        });
        let len = ids.len();
        TokenProbe { ids, len }
    }
}

/// The prepared literal of a constant-probe edit distance: its chars,
/// `None` for a NULL/MISSING literal.
type CharProbe = Option<Vec<char>>;

/// The id of `tok` in `ids`, assigning the next dense id on first sight.
fn intern(ids: &mut FxHashMap<String, u32>, tok: &str) -> u32 {
    if let Some(&id) = ids.get(tok) {
        return id;
    }
    let id = ids.len() as u32;
    ids.insert(tok.to_owned(), id);
    id
}

/// Word-token sets of column-vs-column verifies, interned to dense `u32`
/// ids and cached per input string.
#[derive(Default)]
struct TokenInterner {
    ids: FxHashMap<String, u32>,
    sets: FxHashMap<String, Arc<[u32]>>,
}

impl TokenInterner {
    /// The distinct, sorted token-id set of `s` (cached; the cache is
    /// cleared when full).
    fn token_set(&mut self, s: &str, buf: &mut String) -> Arc<[u32]> {
        if let Some(set) = self.sets.get(s) {
            return set.clone();
        }
        let mut ids: Vec<u32> = Vec::new();
        for_each_word_token(s, buf, |t| ids.push(intern(&mut self.ids, t)));
        ids.sort_unstable();
        ids.dedup();
        let set: Arc<[u32]> = ids.into();
        if self.sets.len() >= KERNEL_CACHE_CAPACITY {
            self.sets.clear();
        }
        self.sets.insert(s.to_string(), set.clone());
        set
    }

    /// Current id universe (bitsets built now cover every interned id).
    fn universe(&self) -> usize {
        self.ids.len()
    }
}

/// Three-valued result of one conjunct, mirroring what [`Expr::eval`]
/// would have produced (`Boolean(true)` / `Boolean(false)` / unknown).
#[derive(Clone, Copy, PartialEq)]
enum Tri {
    True,
    False,
    Null,
}

fn tri_of(v: &Value) -> Tri {
    match v {
        Value::Boolean(true) => Tri::True,
        Value::Boolean(false) => Tri::False,
        _ => Tri::Null,
    }
}

/// One conjunct of the compiled predicate: vectorized when its shape is
/// recognized (keeping the original expression for per-row fallback),
/// interpreted in place otherwise.
enum Conjunct {
    Fast { plan: VerifyPlan, expr: Expr },
    Slow(Expr),
}

/// A compiled verify predicate plus its per-instance caches. Conjuncts
/// and caches are separate fields so evaluating a plan that borrows its
/// literal arguments can still update the caches.
pub struct VerifyKernel {
    conjuncts: Vec<Conjunct>,
    state: KernelState,
}

/// The mutable state of one kernel instance: reused buffers for the
/// streamed column side of constant-probe plans, and the caches of
/// column-vs-column plans.
#[derive(Default)]
struct KernelState {
    /// Token buffer of [`for_each_word_token`].
    token_buf: String,
    /// One row's token ids (constant-probe Jaccard).
    row_ids: Vec<u32>,
    /// One row's decoded chars (constant-probe edit distance).
    row_chars: Vec<char>,
    interner: TokenInterner,
    /// Bitset of the last repeating side's token set, reused while
    /// consecutive rows share the same (Arc-identical) set.
    probe: Option<(Arc<[u32]>, TokenBitset)>,
    /// Previous row's token sets, used to detect which side repeats (the
    /// outer key of a join).
    prev_a: Option<Arc<[u32]>>,
    prev_b: Option<Arc<[u32]>>,
    /// Decoded char buffers per distinct input string (cleared when full).
    chars: FxHashMap<String, Arc<[char]>>,
    scratch: EdScratch,
    /// Allow the Myers bit-parallel edit-distance dispatch; `false` pins
    /// the scalar banded DP (the kernel tests' oracle).
    use_bitparallel: bool,
}

/// `word-tokens(inner)` → compiled `inner`.
fn tokens_arg(e: &Expr) -> Option<ArgExpr> {
    match e {
        Expr::Call(name, args) if name == "word-tokens" && args.len() == 1 => {
            ArgExpr::compile(&args[0])
        }
        _ => None,
    }
}

fn compile_cmp(op: CmpOp, call: &Expr, konst: &Expr) -> Option<VerifyPlan> {
    let Expr::Const(cv) = konst else { return None };
    let Expr::Call(name, args) = call else {
        return None;
    };
    match name.as_str() {
        "similarity-jaccard" if args.len() == 2 && matches!(op, CmpOp::Ge | CmpOp::Gt) => {
            Some(VerifyPlan::Jaccard {
                sides: Sides::compile(
                    tokens_arg(&args[0])?,
                    tokens_arg(&args[1])?,
                    TokenProbe::new,
                ),
                op,
                delta: cv.as_f64()?,
            })
        }
        "edit-distance" if args.len() == 2 && matches!(op, CmpOp::Le | CmpOp::Lt) => {
            let Value::Int64(k) = cv else { return None };
            Some(VerifyPlan::EditDistance {
                sides: char_sides(&args[0], &args[1])?,
                op,
                k: *k,
            })
        }
        _ => None,
    }
}

/// The sides of an edit-distance shape, a literal one decoded to chars.
fn char_sides(a: &Expr, b: &Expr) -> Option<Sides<CharProbe>> {
    Some(Sides::compile(ArgExpr::compile(a)?, ArgExpr::compile(b)?, |s| {
        s.map(|s| s.chars().collect())
    }))
}

/// Compile one expression into a vectorized plan when it matches a
/// recognized bare verify shape.
fn compile_plan(pred: &Expr) -> Option<VerifyPlan> {
    match pred {
        Expr::Cmp(op, l, r) => {
            compile_cmp(*op, l, r).or_else(|| compile_cmp(op.mirrored(), r, l))
        }
        Expr::Call(name, args) if name == "edit-distance-check" && args.len() == 3 => {
            let Expr::Const(Value::Int64(k)) = &args[2] else {
                return None;
            };
            if *k < 0 || *k > u32::MAX as i64 {
                return None;
            }
            Some(VerifyPlan::EdCheck {
                sides: char_sides(&args[0], &args[1])?,
                k: *k as u32,
            })
        }
        _ => None,
    }
}

impl VerifyKernel {
    /// Compile `pred` when it is a recognized verify shape, or a
    /// conjunction containing at least one. Bit-parallel edit-distance
    /// dispatch is enabled; use [`VerifyKernel::compile_with`] to pin the
    /// scalar kernels.
    pub fn compile(pred: &Expr) -> Option<VerifyKernel> {
        Self::compile_with(pred, true)
    }

    /// [`VerifyKernel::compile`] with the Myers bit-parallel edit-distance
    /// dispatch switchable: `use_bitparallel = false` pins the scalar
    /// banded DP, which the kernel tests use as their oracle. Acceptance
    /// is identical either way.
    pub fn compile_with(pred: &Expr, use_bitparallel: bool) -> Option<VerifyKernel> {
        let conjuncts = match pred {
            Expr::And(parts) => {
                let cs: Vec<Conjunct> = parts
                    .iter()
                    .map(|p| match compile_plan(p) {
                        Some(plan) => Conjunct::Fast {
                            plan,
                            expr: p.clone(),
                        },
                        None => Conjunct::Slow(p.clone()),
                    })
                    .collect();
                if !cs.iter().any(|c| matches!(c, Conjunct::Fast { .. })) {
                    return None;
                }
                cs
            }
            _ => vec![Conjunct::Fast {
                plan: compile_plan(pred)?,
                expr: pred.clone(),
            }],
        };
        Some(VerifyKernel {
            conjuncts,
            state: KernelState {
                use_bitparallel,
                ..KernelState::default()
            },
        })
    }

    /// Evaluate the predicate over every visible row of `slice`, returning
    /// the accepted positions (indices into the slice) in order.
    pub fn eval_slice(
        &mut self,
        slice: &BatchSlice,
        reg: &FunctionRegistry,
    ) -> Result<Vec<u32>, OpError> {
        let batch = slice.batch.as_ref();
        let bp_before = self.state.scratch.bitparallel_calls();
        let mut keep = Vec::new();
        for pos in 0..slice.len() {
            let row = slice.row_index(pos);
            // Mirror `Expr::eval`'s And loop exactly: evaluate conjuncts
            // left to right, short-circuit on the first false, track
            // unknowns, and propagate the first error eagerly.
            let mut accept = true;
            for c in &mut self.conjuncts {
                let tri = match c {
                    Conjunct::Fast { plan, expr } => {
                        match self.state.eval_plan(plan, batch, row) {
                            Some(t) => t,
                            // Outside the vectorized domain: the
                            // interpreted path decides (and reports
                            // errors) exactly as the scalar operator
                            // would.
                            None => tri_of(eval_batch_expr(expr, batch, row, reg)?.as_value()),
                        }
                    }
                    Conjunct::Slow(e) => tri_of(eval_batch_expr(e, batch, row, reg)?.as_value()),
                };
                match tri {
                    Tri::True => {}
                    Tri::False => {
                        accept = false;
                        break;
                    }
                    Tri::Null => accept = false,
                }
            }
            if accept {
                keep.push(pos as u32);
            }
        }
        asterix_storage::profile::record_bitparallel_ed_calls(
            self.state.scratch.bitparallel_calls() - bp_before,
        );
        Ok(keep)
    }
}

impl KernelState {
    /// Vectorized per-row decision; `None` means "fall back to the
    /// interpreted path". The returned [`Tri`] matches the three-valued
    /// result the interpreter would compute for the same conjunct.
    fn eval_plan(&mut self, plan: &mut VerifyPlan, batch: &Batch, row: usize) -> Option<Tri> {
        match plan {
            VerifyPlan::Jaccard { sides, op, delta } => {
                let (op, delta) = (*op, *delta);
                let sim = match sides {
                    Sides::Probe { col, probe } => {
                        // word-tokens of NULL/MISSING is the empty list.
                        let (len, inter) = match side_str(col.cell(batch, row))? {
                            Some(s) => self.stream_tokens(probe, s),
                            None => (0, 0),
                        };
                        jaccard_from_counts(len, probe.len, inter)
                    }
                    Sides::Cols(a, b) => {
                        let sa = side_str(a.cell(batch, row))?;
                        let sb = side_str(b.cell(batch, row))?;
                        let set_a = self.cached_token_set(sa);
                        let set_b = self.cached_token_set(sb);
                        let inter = self.intersection(&set_a, &set_b);
                        jaccard_from_counts(set_a.len(), set_b.len(), inter)
                    }
                };
                // `sql_compare` on two doubles is `partial_cmp`; None
                // (NaN) makes the comparison unknown.
                Some(match sim.partial_cmp(&delta) {
                    Some(ord) if op.test(ord) => Tri::True,
                    Some(_) => Tri::False,
                    None => Tri::Null,
                })
            }
            VerifyPlan::EditDistance { sides, op, k } => {
                // `< k` means `<= k - 1`; saturate so `< i64::MIN` simply
                // stays an always-false threshold instead of overflowing.
                let threshold = if *op == CmpOp::Lt {
                    k.saturating_sub(1)
                } else {
                    *k
                };
                // Any actual edit distance fits u32 (it is bounded by the
                // char lengths), so clamping an enormous threshold keeps
                // the check's outcome unchanged; a negative one accepts
                // nothing.
                let k = u32::try_from(threshold.min(u32::MAX as i64)).ok();
                // edit-distance(unknown, _) is NULL; NULL <= k is unknown.
                Some(match self.ed_within(sides, batch, row, k)? {
                    Some(true) => Tri::True,
                    Some(false) => Tri::False,
                    None => Tri::Null,
                })
            }
            VerifyPlan::EdCheck { sides, k } => {
                // edit-distance-check(unknown, _, k) is false.
                Some(match self.ed_within(sides, batch, row, Some(*k))? {
                    Some(true) => Tri::True,
                    _ => Tri::False,
                })
            }
        }
    }

    /// Whether one row's two edit-distance sides are within `k` (`None`:
    /// accept nothing); `Some(None)` when a side is NULL/MISSING, `None`
    /// to fall back.
    fn ed_within(
        &mut self,
        sides: &Sides<CharProbe>,
        batch: &Batch,
        row: usize,
        k: Option<u32>,
    ) -> Option<Option<bool>> {
        Some(match sides {
            Sides::Probe { col, probe } => match (side_str(col.cell(batch, row))?, probe) {
                (Some(s), Some(p)) => Some(k.is_some_and(|k| self.stream_ed(p, s, k))),
                _ => None,
            },
            Sides::Cols(a, b) => {
                match (side_str(a.cell(batch, row))?, side_str(b.cell(batch, row))?) {
                    (Some(sa), Some(sb)) => Some(k.is_some_and(|k| self.cached_ed(sa, sb, k))),
                    _ => None,
                }
            }
        })
    }

    /// `(|R|, |P ∩ R|)` for the distinct word tokens `R` of the column
    /// string `s` against the prepared probe `P`, with no allocation
    /// beyond interning a token the operator has not seen before.
    fn stream_tokens(&mut self, probe: &mut TokenProbe, s: &str) -> (usize, usize) {
        let ids = &mut self.row_ids;
        ids.clear();
        for_each_word_token(s, &mut self.token_buf, |t| ids.push(intern(&mut probe.ids, t)));
        ids.sort_unstable();
        ids.dedup();
        let inter = ids.partition_point(|&id| (id as usize) < probe.len);
        (ids.len(), inter)
    }

    /// Whether the column string `s` is within edit distance `k` of the
    /// prepared probe chars. The §2.2 length filter runs on byte lengths
    /// first: `s` has between `⌈n/4⌉` and `n` chars for `n` bytes, exactly
    /// `n` when ASCII, so most far-off strings are rejected undecoded.
    fn stream_ed(&mut self, probe: &[char], s: &str, k: u32) -> bool {
        let n = s.len();
        let (lo, hi) = if s.is_ascii() { (n, n) } else { (n.div_ceil(4), n) };
        let (m, k_len) = (probe.len(), k as usize);
        if m > hi.saturating_add(k_len) || lo > m.saturating_add(k_len) {
            return false;
        }
        self.row_chars.clear();
        self.row_chars.extend(s.chars());
        ed_check(self.use_bitparallel, &mut self.scratch, probe, &self.row_chars, k).is_some()
    }

    /// Whether two column strings are within edit distance `k`, through
    /// the decoded-char cache.
    fn cached_ed(&mut self, a: &str, b: &str, k: u32) -> bool {
        let ca = self.cached_chars(a);
        let cb = self.cached_chars(b);
        ed_check(self.use_bitparallel, &mut self.scratch, &ca, &cb, k).is_some()
    }

    /// The cached token set of a column string, empty for NULL/MISSING.
    fn cached_token_set(&mut self, s: Option<&str>) -> Arc<[u32]> {
        match s {
            Some(s) => self.interner.token_set(s, &mut self.token_buf),
            None => Arc::from(Vec::new()),
        }
    }

    /// Distinct-token intersection size. The side that repeated from the
    /// previous row (the outer key of a join) gets a cached bitset;
    /// without a repeating side, a galloping merge answers directly.
    fn intersection(&mut self, a: &Arc<[u32]>, b: &Arc<[u32]>) -> usize {
        let a_repeats = self.prev_a.as_ref().is_some_and(|p| Arc::ptr_eq(p, a));
        let b_repeats = self.prev_b.as_ref().is_some_and(|p| Arc::ptr_eq(p, b));
        self.prev_a = Some(Arc::clone(a));
        self.prev_b = Some(Arc::clone(b));
        let (probe, scan) = if a_repeats {
            (a, b)
        } else if b_repeats {
            (b, a)
        } else {
            return intersection_size_u32(a, b);
        };
        let cached = matches!(&self.probe, Some((p, _)) if Arc::ptr_eq(p, probe));
        if !cached {
            // Ids past the build-time universe cannot be members of the
            // probe set, so a bitset built against today's universe stays
            // correct as the interner grows: `contains` is simply false.
            let bits = TokenBitset::build(probe, self.interner.universe().max(1));
            self.probe = Some((Arc::clone(probe), bits));
        }
        match &self.probe {
            Some((_, bits)) => scan.iter().filter(|&&id| bits.contains(id)).count(),
            None => 0,
        }
    }

    /// Decoded chars of `s`, cached per distinct string (the cache is
    /// cleared when full).
    fn cached_chars(&mut self, s: &str) -> Arc<[char]> {
        if let Some(chars) = self.chars.get(s) {
            return chars.clone();
        }
        let decoded: Arc<[char]> = s.chars().collect();
        if self.chars.len() >= KERNEL_CACHE_CAPACITY {
            self.chars.clear();
        }
        self.chars.insert(s.to_string(), decoded.clone());
        decoded
    }
}

/// Threshold-checked edit distance through the instance scratch: the
/// Myers bit-parallel dispatch, or the scalar banded DP when
/// `use_bitparallel` is off.
fn ed_check(
    use_bitparallel: bool,
    scratch: &mut EdScratch,
    a: &[char],
    b: &[char],
    k: u32,
) -> Option<u32> {
    if use_bitparallel {
        edit_distance_check_chars(a, b, k, scratch)
    } else {
        edit_distance_check_chars_scalar(a, b, k, scratch)
    }
}

/// Result of [`eval_batch_expr`]: borrowed straight from the batch (or
/// the expression's constants) when possible, owned otherwise.
enum EvalOut<'a> {
    Ref(&'a Value),
    Owned(Value),
}

impl EvalOut<'_> {
    fn as_value(&self) -> &Value {
        match self {
            EvalOut::Ref(v) => v,
            EvalOut::Owned(v) => v,
        }
    }

    fn into_value(self) -> Value {
        match self {
            EvalOut::Ref(v) => v.clone(),
            EvalOut::Owned(v) => v,
        }
    }
}

/// Evaluate one expression against one row of a [`Batch`], returning an
/// owned value. Thin wrapper over [`eval_batch_expr`] for operators
/// (assign) that need the result as a cell rather than a predicate.
pub(crate) fn eval_expr_on_batch(
    e: &Expr,
    batch: &Batch,
    row: usize,
    reg: &FunctionRegistry,
) -> Result<Value, String> {
    Ok(eval_batch_expr(e, batch, row, reg)?.into_value())
}

/// Evaluate a predicate against one row of a [`Batch`]: true only for
/// `Boolean(true)`, as `e.eval(&batch.row(row), reg)?.is_true()`.
pub(crate) fn eval_pred_on_batch(
    e: &Expr,
    batch: &Batch,
    row: usize,
    reg: &FunctionRegistry,
) -> Result<bool, String> {
    Ok(eval_batch_expr(e, batch, row, reg)?.as_value().is_true())
}

/// Column-aware mirror of [`Expr::eval`]: evaluates `e` against one row
/// of a [`Batch`] without materializing the row as a tuple, borrowing
/// record cells in place so field access never deep-clones the record.
/// Results and errors are identical to `e.eval(&batch.row(row), reg)`
/// for every expression shape (pinned by the parity tests below).
fn eval_batch_expr<'a>(
    e: &'a Expr,
    batch: &'a Batch,
    row: usize,
    reg: &FunctionRegistry,
) -> Result<EvalOut<'a>, String> {
    Ok(match e {
        Expr::Column(i) => match batch.col(*i) {
            None => {
                return Err(format!(
                    "column {i} out of range (width {})",
                    batch.width()
                ))
            }
            Some(Column::Values(vs)) => EvalOut::Ref(&vs[row]),
            Some(Column::Shared(vs)) => EvalOut::Ref(&vs[row]),
            Some(col) => EvalOut::Owned(col.value(row)),
        },
        Expr::Const(v) => EvalOut::Ref(v),
        Expr::Field(inner, name) => match eval_batch_expr(inner, batch, row, reg)? {
            EvalOut::Ref(v) => EvalOut::Ref(v.field_path(name)),
            EvalOut::Owned(v) => EvalOut::Owned(v.field_path(name).clone()),
        },
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_batch_expr(a, batch, row, reg)?.into_value());
            }
            EvalOut::Owned(reg.call(name, &vals)?)
        }
        Expr::Cmp(op, a, b) => {
            let va = eval_batch_expr(a, batch, row, reg)?;
            let vb = eval_batch_expr(b, batch, row, reg)?;
            EvalOut::Owned(match sql_compare(va.as_value(), vb.as_value()) {
                Some(ord) => Value::Boolean(op.test(ord)),
                None => Value::Null,
            })
        }
        Expr::And(parts) => {
            let mut saw_null = false;
            for p in parts {
                match eval_batch_expr(p, batch, row, reg)?.as_value() {
                    Value::Boolean(false) => return Ok(EvalOut::Owned(Value::Boolean(false))),
                    Value::Boolean(true) => {}
                    _ => saw_null = true,
                }
            }
            EvalOut::Owned(if saw_null {
                Value::Null
            } else {
                Value::Boolean(true)
            })
        }
        Expr::Or(parts) => {
            let mut saw_null = false;
            for p in parts {
                match eval_batch_expr(p, batch, row, reg)?.as_value() {
                    Value::Boolean(true) => return Ok(EvalOut::Owned(Value::Boolean(true))),
                    Value::Boolean(false) => {}
                    _ => saw_null = true,
                }
            }
            EvalOut::Owned(if saw_null {
                Value::Null
            } else {
                Value::Boolean(false)
            })
        }
        Expr::Not(inner) => EvalOut::Owned(
            match eval_batch_expr(inner, batch, row, reg)?.as_value() {
                Value::Boolean(b) => Value::Boolean(!b),
                _ => Value::Null,
            },
        ),
        Expr::RecordCtor(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (k, fe) in fields {
                out.push((k.clone(), eval_batch_expr(fe, batch, row, reg)?.into_value()));
            }
            EvalOut::Owned(Value::record(out))
        }
        Expr::ListCtor(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval_batch_expr(item, batch, row, reg)?.into_value());
            }
            EvalOut::Owned(Value::OrderedList(out))
        }
    })
}

/// Classify one side for the string kernels: `Some(Some(s))` = a string,
/// `Some(None)` = null/missing (handled in-kernel), `None` = fall back.
fn side_str(cell: Cell<'_>) -> Option<Option<&str>> {
    match cell {
        Cell::Str(s) => Some(Some(s)),
        Cell::Val(Value::String(s)) => Some(Some(s)),
        Cell::Val(v) if v.is_unknown() => Some(None),
        Cell::Owned(v) if v.is_unknown() => Some(None),
        // Owned strings would dangle a borrow; they only arise from field
        // paths over scalar columns, which produce Missing anyway. Any
        // other type (lists, records, ints) goes through the row path.
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use asterix_adm::record;
    use std::sync::Arc;

    fn reg() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    fn jaccard_pred(op: CmpOp, delta: f64) -> Expr {
        Expr::cmp(
            op,
            Expr::call(
                "similarity-jaccard",
                vec![
                    Expr::call("word-tokens", vec![Expr::col(0).field("summary")]),
                    Expr::call("word-tokens", vec![Expr::lit("great product value")]),
                ],
            ),
            Expr::lit(delta),
        )
    }

    fn ed_pred(op: CmpOp, k: i64) -> Expr {
        Expr::cmp(
            op,
            Expr::call("edit-distance", vec![Expr::col(1), Expr::lit("marla")]),
            Expr::lit(k),
        )
    }

    fn sample_slice() -> BatchSlice {
        let rows: Vec<Tuple> = vec![
            vec![record! {"summary" => "great product"}, Value::from("maria")],
            vec![record! {"summary" => "bad value"}, Value::from("carla")],
            vec![record! {"summary" => "great product value"}, Value::from("x")],
            vec![Value::Null, Value::Null],
            vec![record! {"other" => 1i64}, Value::from("marla")],
        ];
        slice_of(rows)
    }

    fn slice_of(rows: Vec<Tuple>) -> BatchSlice {
        BatchSlice::full(Arc::new(Batch::from_rows(rows).expect("rectangular")))
    }

    fn row_path(pred: &Expr, slice: &BatchSlice) -> Vec<u32> {
        let reg = reg();
        (0..slice.len())
            .filter(|&p| pred.eval(&slice.row(p), &reg).unwrap().is_true())
            .map(|p| p as u32)
            .collect()
    }

    #[test]
    fn jaccard_kernel_matches_row_path() {
        let slice = sample_slice();
        for (op, delta) in [
            (CmpOp::Ge, 0.5),
            (CmpOp::Ge, 0.0),
            (CmpOp::Gt, 0.0),
            (CmpOp::Ge, 1.0),
        ] {
            let pred = jaccard_pred(op, delta);
            let mut k = VerifyKernel::compile(&pred).expect("compiles");
            let got = k.eval_slice(&slice, &reg()).unwrap();
            assert_eq!(got, row_path(&pred, &slice), "op {op:?} delta {delta}");
        }
    }

    #[test]
    fn edit_distance_kernel_matches_row_path() {
        let slice = sample_slice();
        for (op, k) in [
            (CmpOp::Le, 2),
            (CmpOp::Le, 0),
            (CmpOp::Lt, 3),
            (CmpOp::Lt, 0),
            (CmpOp::Le, -1),
        ] {
            let pred = ed_pred(op, k);
            let mut kern = VerifyKernel::compile(&pred).expect("compiles");
            let got = kern.eval_slice(&slice, &reg()).unwrap();
            assert_eq!(got, row_path(&pred, &slice), "op {op:?} k {k}");
        }
    }

    #[test]
    fn mirrored_constant_on_left_compiles_and_matches() {
        // `0.5 <= similarity-jaccard(...)` is the same predicate mirrored.
        let slice = sample_slice();
        let pred = Expr::cmp(
            CmpOp::Le,
            Expr::lit(0.5),
            Expr::call(
                "similarity-jaccard",
                vec![
                    Expr::call("word-tokens", vec![Expr::col(0).field("summary")]),
                    Expr::call("word-tokens", vec![Expr::lit("great product value")]),
                ],
            ),
        );
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        assert_eq!(got, row_path(&pred, &slice));
    }

    #[test]
    fn edit_distance_check_call_matches_row_path() {
        let slice = sample_slice();
        let pred = Expr::call(
            "edit-distance-check",
            vec![Expr::col(1), Expr::lit("marla"), Expr::lit(1i64)],
        );
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        assert_eq!(got, row_path(&pred, &slice));
        // Negative k must NOT compile: the row path reports a typed error.
        let bad = Expr::call(
            "edit-distance-check",
            vec![Expr::col(1), Expr::lit("marla"), Expr::lit(-1i64)],
        );
        assert!(VerifyKernel::compile(&bad).is_none());
    }

    #[test]
    fn conjunction_with_residual_matches_row_path() {
        // The index-NL join verify shape after pushdown: And(sim >= δ,
        // residual cmp). The sim conjunct vectorizes, the residual is
        // interpreted per row over the batch.
        let slice = sample_slice();
        for residual in [
            Expr::cmp(CmpOp::Ne, Expr::col(1), Expr::lit("maria")),
            Expr::cmp(CmpOp::Lt, Expr::col(0).field("nosuch"), Expr::lit(1i64)), // NULL cmp
            Expr::lit(true),
            Expr::lit(false),
        ] {
            let pred = Expr::And(vec![jaccard_pred(CmpOp::Ge, 0.3), residual.clone()]);
            let mut k = VerifyKernel::compile(&pred).expect("conjunction compiles");
            let got = k.eval_slice(&slice, &reg()).unwrap();
            assert_eq!(got, row_path(&pred, &slice), "residual {residual:?}");
            // Mirror order: residual first, kernel conjunct second.
            let pred = Expr::And(vec![residual.clone(), jaccard_pred(CmpOp::Ge, 0.3)]);
            let mut k = VerifyKernel::compile(&pred).expect("conjunction compiles");
            let got = k.eval_slice(&slice, &reg()).unwrap();
            assert_eq!(got, row_path(&pred, &slice), "residual-first {residual:?}");
        }
    }

    #[test]
    fn conjunction_short_circuits_errors_like_interpreter() {
        // Row 0 fails the sim conjunct; the erroring residual after it
        // must NOT run for that row (And short-circuits on false), but
        // must error on rows that pass the sim conjunct — exactly the
        // interpreter's behaviour.
        let rows: Vec<Tuple> = vec![
            vec![record! {"summary" => "zzz"}, Value::from("x")],
            vec![record! {"summary" => "great product value"}, Value::from("y")],
        ];
        let slice = slice_of(rows);
        let erroring = Expr::call("edit-distance", vec![Expr::col(1), Expr::col(99)]);
        let pred = Expr::And(vec![jaccard_pred(CmpOp::Ge, 0.9), erroring]);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let kernel_result = k.eval_slice(&slice, &reg());
        let mut interp_result = Ok(Vec::new());
        for p in 0..slice.len() {
            match pred.eval(&slice.row(p), &reg()) {
                Ok(v) => {
                    if v.is_true() {
                        interp_result.as_mut().unwrap().push(p as u32);
                    }
                }
                Err(e) => {
                    interp_result = Err(e);
                    break;
                }
            }
        }
        match (kernel_result, interp_result) {
            (Err(_), Err(_)) => {}
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (a, b) => panic!("kernel {a:?} vs interpreter {b:?}"),
        }
        // Only the narrowed first row: the false sim conjunct short
        // circuits, so no error at all.
        let only_first = sample_slice(); // fresh kernel state per slice
        let _ = only_first;
        let rows: Vec<Tuple> = vec![vec![record! {"summary" => "zzz"}, Value::from("x")]];
        let slice = slice_of(rows);
        let erroring = Expr::call("edit-distance", vec![Expr::col(1), Expr::col(99)]);
        let pred = Expr::And(vec![jaccard_pred(CmpOp::Ge, 0.9), erroring]);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        assert_eq!(k.eval_slice(&slice, &reg()).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn all_slow_conjunctions_do_not_compile() {
        let pred = Expr::And(vec![
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5i64)),
            Expr::lit(true),
        ]);
        assert!(VerifyKernel::compile(&pred).is_none());
    }

    #[test]
    fn eval_batch_expr_mirrors_interpreter() {
        // Every Expr variant over every row: the column-aware evaluator
        // must agree with Expr::eval on the materialized tuple, errors
        // included.
        let slice = sample_slice();
        let registry = reg();
        let exprs = vec![
            Expr::col(0),
            Expr::col(1),
            Expr::col(7), // out of range → error
            Expr::lit("const"),
            Expr::col(0).field("summary"),
            Expr::col(0).field("summary").field("deeper"), // field of scalar → Missing
            Expr::col(1).field("nosuch"),
            Expr::call("word-tokens", vec![Expr::col(0).field("summary")]),
            Expr::call("edit-distance", vec![Expr::col(1), Expr::lit("maria")]),
            Expr::call("no-such-fn", vec![]), // unknown function → error
            Expr::cmp(CmpOp::Le, Expr::col(1), Expr::lit("m")),
            Expr::cmp(CmpOp::Eq, Expr::col(0).field("nosuch"), Expr::lit(1i64)),
            Expr::And(vec![
                Expr::cmp(CmpOp::Ne, Expr::col(1), Expr::lit("x")),
                Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit("a")),
            ]),
            Expr::Or(vec![
                Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit("maria")),
                Expr::cmp(CmpOp::Eq, Expr::col(0).field("nosuch"), Expr::lit(1i64)),
            ]),
            Expr::Not(Box::new(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit("x")))),
            Expr::RecordCtor(vec![
                ("a".into(), Expr::col(1)),
                ("b".into(), Expr::col(0).field("summary")),
            ]),
            Expr::ListCtor(vec![Expr::col(1), Expr::lit(1i64)]),
        ];
        for e in &exprs {
            for pos in 0..slice.len() {
                let row = slice.row_index(pos);
                let batch_result =
                    eval_batch_expr(e, slice.batch.as_ref(), row, &registry).map(|o| o.into_value());
                let interp_result = e.eval(&slice.row(pos), &registry);
                assert_eq!(
                    batch_result, interp_result,
                    "divergence for {e:?} at row {row}"
                );
            }
        }
    }

    #[test]
    fn unrecognized_predicates_do_not_compile() {
        assert!(VerifyKernel::compile(&Expr::lit(true)).is_none());
        assert!(VerifyKernel::compile(&Expr::cmp(
            CmpOp::Eq,
            Expr::col(0),
            Expr::lit(1i64)
        ))
        .is_none());
        // Jaccard needs word-tokens() wrapping on both sides.
        assert!(VerifyKernel::compile(&Expr::cmp(
            CmpOp::Ge,
            Expr::call("similarity-jaccard", vec![Expr::col(0), Expr::col(1)]),
            Expr::lit(0.5)
        ))
        .is_none());
    }

    #[test]
    fn mixed_type_rows_fall_back_to_row_errors() {
        // An int where a string is expected: the row path errors; the
        // kernel must surface the same error, not silently reject.
        let rows: Vec<Tuple> = vec![vec![Value::Null, Value::Int64(7)]];
        let slice = slice_of(rows);
        let pred = ed_pred(CmpOp::Le, 1);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        assert!(k.eval_slice(&slice, &reg()).is_err());
    }

    /// `similarity-jaccard(word-tokens($0.summary), word-tokens($1)) >= δ`:
    /// two column sides, the join-verify shape.
    fn jaccard_cols_pred(delta: f64) -> Expr {
        Expr::cmp(
            CmpOp::Ge,
            Expr::call(
                "similarity-jaccard",
                vec![
                    Expr::call("word-tokens", vec![Expr::col(0).field("summary")]),
                    Expr::call("word-tokens", vec![Expr::col(1)]),
                ],
            ),
            Expr::lit(delta),
        )
    }

    /// The bitset a two-column kernel holds for its repeating side.
    fn bitset_side(k: &VerifyKernel) -> &Arc<[u32]> {
        &k.state
            .probe
            .as_ref()
            .expect("a repeating side builds a bitset")
            .0
    }

    #[test]
    fn probe_bitset_reuse_across_rows() {
        // Two columns, the second repeating like a join's outer key: the
        // repeating side gets one bitset, reused for every later row, and
        // acceptance is identical.
        let rows: Vec<Tuple> = (0..200)
            .map(|i| {
                vec![
                    record! {"summary" => format!("great product number {i}")},
                    Value::from("great product value"),
                ]
            })
            .collect();
        let slice = slice_of(rows);
        let pred = jaccard_cols_pred(0.5);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        assert_eq!(got, row_path(&pred, &slice));
        let cached = &k.state.interner.sets["great product value"];
        assert!(Arc::ptr_eq(bitset_side(&k), cached));
    }

    #[test]
    fn narrowed_slice_positions_are_slice_relative() {
        let slice = sample_slice().narrow(vec![2, 4]);
        let pred = jaccard_pred(CmpOp::Ge, 0.5);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        assert_eq!(got, row_path(&pred, &slice));
        assert_eq!(got, vec![0]); // row 2 accepted, now at position 0
    }

    #[test]
    fn arc_from_empty_set_is_safe() {
        // Null summary → empty token set on one side; jaccard(∅, S) = 0,
        // jaccard(∅, ∅) = 1 — same as the interpreted path (word-tokens of
        // null/missing is the empty list).
        let rows: Vec<Tuple> = vec![vec![Value::Null, Value::from("x")]];
        let slice = slice_of(rows);
        let both_null = Expr::cmp(
            CmpOp::Ge,
            Expr::call(
                "similarity-jaccard",
                vec![
                    Expr::call("word-tokens", vec![Expr::col(0)]),
                    Expr::call("word-tokens", vec![Expr::Const(Value::Missing)]),
                ],
            ),
            Expr::lit(0.5),
        );
        let mut k = VerifyKernel::compile(&both_null).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        assert_eq!(got, row_path(&both_null, &slice));
    }

    #[test]
    fn interner_universe_growth_keeps_probe_bitset_correct() {
        // Two columns, the second repeating: its bitset is built on the
        // second row, against a universe of four ids. Later rows intern
        // more than 64 new tokens (ids past every word of that bitset),
        // which must read as non-members.
        let probe = Value::from("great product value");
        let mut rows: Vec<Tuple> = vec![
            vec![record! {"summary" => "great product"}, probe.clone()],
            vec![record! {"summary" => "great gift"}, probe.clone()],
        ];
        rows.extend((0..100).map(|i| {
            let tail = if i % 2 == 0 { "value" } else { "stream" };
            vec![
                record! {"summary" => format!("novel token{i} {tail}")},
                probe.clone(),
            ]
        }));
        let slice = slice_of(rows);
        let pred = jaccard_cols_pred(0.1);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        let want = row_path(&pred, &slice);
        assert!(
            !want.is_empty() && want.len() < slice.len(),
            "rows must split"
        );
        assert_eq!(got, want);
        assert!(k.state.interner.universe() > 64);
        assert_eq!(bitset_side(&k).len(), 3);
    }

    #[test]
    fn probe_membership_ignores_new_column_tokens() {
        // A constant probe's tokens hold ids 0..|P|; column tokens seen
        // later get larger ids and are never members of it.
        let mut rows: Vec<Tuple> = vec![vec![
            record! {"summary" => "great product"},
            Value::from("x"),
        ]];
        rows.extend((0..50).map(|i| {
            vec![
                record! {"summary" => format!("novel token{i} stream")},
                Value::from("x"),
            ]
        }));
        let slice = slice_of(rows);
        let pred = jaccard_pred(CmpOp::Ge, 0.1);
        let mut k = VerifyKernel::compile(&pred).expect("compiles");
        let got = k.eval_slice(&slice, &reg()).unwrap();
        assert_eq!(got, row_path(&pred, &slice));
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn column_caches_stay_bounded_past_capacity() {
        // Two-column verifies cache per distinct string; more distinct
        // strings than the capacity must clear the caches, not grow them,
        // and leave every answer unchanged.
        let n = 2 * KERNEL_CACHE_CAPACITY + 10;
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                vec![
                    Value::from(format!("w{i} great product")),
                    Value::from(format!("w{} great gift", i / 2)),
                ]
            })
            .collect();
        let slice = slice_of(rows);
        let jaccard = Expr::cmp(
            CmpOp::Ge,
            Expr::call(
                "similarity-jaccard",
                vec![
                    Expr::call("word-tokens", vec![Expr::col(0)]),
                    Expr::call("word-tokens", vec![Expr::col(1)]),
                ],
            ),
            Expr::lit(0.5),
        );
        let ed = Expr::cmp(
            CmpOp::Le,
            Expr::call("edit-distance", vec![Expr::col(0), Expr::col(1)]),
            Expr::lit(7i64),
        );
        for pred in [jaccard, ed] {
            let mut k = VerifyKernel::compile(&pred).expect("compiles");
            let got = k.eval_slice(&slice, &reg()).unwrap();
            let want = row_path(&pred, &slice);
            assert!(!want.is_empty() && want.len() < n, "{pred:?} must split the rows");
            assert_eq!(got, want, "{pred:?}");
            assert!(k.state.interner.sets.len() <= KERNEL_CACHE_CAPACITY);
            assert!(k.state.chars.len() <= KERNEL_CACHE_CAPACITY);
            assert!(k.state.interner.sets.len() + k.state.chars.len() > 0);
        }
    }

    mod constant_probe {
        use super::*;
        use proptest::prelude::*;

        /// Strings whose byte and char lengths differ, multi-char
        /// lowercase expansions, non-ASCII letters and digits, empty and
        /// punctuation-only strings, and repeated tokens.
        fn text() -> impl Strategy<Value = String> {
            let words = prop::sample::select(vec![
                "great", "GREAT", "product", "Gift", "a", "ab", "İ", "straße", "٣",
            ]);
            prop_oneof![
                Just(String::new()),
                "[ ,.;!?-]{1,4}",
                prop::collection::vec(words, 0..5).prop_map(|w| w.join(" ")),
                "[a-dA-D0-9 ]{0,8}",
                "[a-cİIıßẞΣσςéÉ\u{301}٣½Ⅻ ,]{0,8}",
                prop::collection::vec(0u32..0x11_0000, 0..8)
                    .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect()),
            ]
        }

        /// A field value: mostly a string, else NULL, MISSING or an
        /// integer.
        fn field() -> impl Strategy<Value = Value> {
            prop_oneof![
                text().prop_map(Value::from),
                text().prop_map(Value::from),
                text().prop_map(Value::from),
                Just(Value::Null),
                Just(Value::Missing),
                (-3i64..3).prop_map(Value::Int64),
            ]
        }

        /// A probe literal: mostly a string, else NULL or MISSING.
        fn literal() -> impl Strategy<Value = Value> {
            prop_oneof![
                text().prop_map(Value::from),
                text().prop_map(Value::from),
                text().prop_map(Value::from),
                Just(Value::Null),
                Just(Value::Missing),
            ]
        }

        /// A record with `summary` (absent when MISSING) and a bare name
        /// column.
        fn row(summary: Value, name: Value) -> Tuple {
            let fields = match summary {
                Value::Missing => vec![],
                v => vec![("summary".to_string(), v)],
            };
            vec![Value::record(fields), name]
        }

        fn pred_strategy() -> impl Strategy<Value = Expr> {
            let either = |col: Expr, lit: Expr, lit_first: bool| {
                if lit_first {
                    vec![lit, col]
                } else {
                    vec![col, lit]
                }
            };
            let jaccard = (
                literal(),
                any::<bool>(),
                any::<bool>(),
                prop::sample::select(vec![0.0, 1e-9, 0.5, 1.0]),
            )
                .prop_map(move |(lit, lit_first, strict, delta)| {
                    let tokens = |e: Expr| Expr::call("word-tokens", vec![e]);
                    let args = either(
                        tokens(Expr::col(0).field("summary")),
                        tokens(Expr::Const(lit)),
                        lit_first,
                    );
                    let op = if strict { CmpOp::Gt } else { CmpOp::Ge };
                    Expr::cmp(op, Expr::call("similarity-jaccard", args), Expr::lit(delta))
                });
            let ed = (
                literal(),
                any::<bool>(),
                any::<bool>(),
                prop::sample::select(vec![-1i64, 0, 1, 2, 1000]),
            )
                .prop_map(move |(lit, lit_first, strict, k)| {
                    let args = either(Expr::col(1), Expr::Const(lit), lit_first);
                    let op = if strict { CmpOp::Lt } else { CmpOp::Le };
                    Expr::cmp(op, Expr::call("edit-distance", args), Expr::lit(k))
                });
            let check = (literal(), any::<bool>(), prop::sample::select(vec![0i64, 1, 2, 1000]))
                .prop_map(move |(lit, lit_first, k)| {
                    let col = Expr::col(0).field("summary");
                    let mut args = either(col, Expr::Const(lit), lit_first);
                    args.push(Expr::lit(k));
                    Expr::call("edit-distance-check", args)
                });
            prop_oneof![jaccard, ed, check]
        }

        /// The interpreter over one slice: accepted positions, or the
        /// first row's error.
        fn reference(pred: &Expr, slice: &BatchSlice) -> Result<Vec<u32>, ()> {
            let reg = reg();
            let mut keep = Vec::new();
            for p in 0..slice.len() {
                if pred.eval(&slice.row(p), &reg).map_err(|_| ())?.is_true() {
                    keep.push(p as u32);
                }
            }
            Ok(keep)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn constant_probe_kernel_matches_interpreter(
                pred in pred_strategy(),
                rows in prop::collection::vec((field(), field()), 0..24),
                chunk in 1usize..6,
                bitparallel in any::<bool>(),
            ) {
                let mut kernel = VerifyKernel::compile_with(&pred, bitparallel)
                    .expect("verify shape compiles");
                let rows: Vec<Tuple> = rows.into_iter().map(|(s, n)| row(s, n)).collect();
                // One kernel over several slices, so the prepared probe
                // is reused across frames.
                for part in rows.chunks(chunk) {
                    let slice = slice_of(part.to_vec());
                    let want = reference(&pred, &slice);
                    let got = kernel.eval_slice(&slice, &reg()).map_err(|_| ());
                    prop_assert_eq!(&got, &want, "{:?}", pred);
                    if got.is_err() {
                        break;
                    }
                }
                // A constant-probe plan never fills the two-column caches.
                prop_assert!(kernel.state.interner.sets.is_empty());
                prop_assert!(kernel.state.chars.is_empty());
            }
        }
    }
}
