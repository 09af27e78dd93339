//! Tuples, frames, batches, and sort-key comparison.
//!
//! The seed runtime moved `Vec<Tuple>` frames tuple-at-a-time. This module
//! adds the batch-at-a-time representation behind the same [`Frame`]
//! channel payload:
//!
//! * [`Batch`] — a rectangular, immutable chunk of rows stored as column
//!   vectors. Fixed-width `Int64` columns and string columns (one shared
//!   arena plus `(start, end)` spans) are stored natively; anything else
//!   falls back to a plain [`Value`] vector per column.
//! * [`BatchSlice`] — an `Arc<Batch>` plus an optional selection vector.
//!   Operators that filter or route rows build a new selection over the
//!   *same* shared batch, so connectors move batches downstream without
//!   copying tuple data.
//! * [`Frame`] — the unit moved over a connector in one send: either a
//!   plain row vector or a batch slice. Row frames are what row-only
//!   operators (nested-loop join, limit, materialize) emit and what every
//!   operator emits under `disable_batching`.
//!
//! Row-at-a-time consumers iterate any frame via [`Frame::into_rows`];
//! batch-native operators re-batch row frames with [`Batch::from_rows`].

use asterix_adm::binary::{hash_int64, hash_str, hash_value};
use crate::expr::sql_compare;
use asterix_adm::{Fnv1a, Value, ValueKind};
use std::cmp::Ordering;
use std::sync::Arc;

/// A tuple is a row of positional columns.
pub type Tuple = Vec<Value>;

/// Tuples per frame. Small enough to keep pipelines responsive, large
/// enough to amortize channel overhead.
pub const FRAME_CAPACITY: usize = 256;

/// One column of a [`Batch`].
#[derive(Clone, Debug)]
pub enum Column {
    /// Every value in the column is `Value::Int64`.
    Int64(Vec<i64>),
    /// Every value in the column is `Value::String`; the bytes live in one
    /// shared arena and each row is a `(start, end)` byte span into it.
    Str {
        /// Concatenated UTF-8 bytes of all rows.
        arena: String,
        /// Per-row `(start, end)` byte offsets into `arena`.
        spans: Vec<(u32, u32)>,
    },
    /// Mixed or non-scalar column; rows are stored as plain values.
    Values(Vec<Value>),
    /// Rows share ownership of their values. Built by operators that fan
    /// one resolved value out to many rows (the primary-index lookup
    /// attaches each fetched record to every candidate row that asked for
    /// its key): rows cost one `Arc` clone instead of a deep record copy,
    /// and downstream batch consumers borrow the cell in place.
    Shared(Vec<Arc<Value>>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Str { spans, .. } => spans.len(),
            Column::Values(v) => v.len(),
            Column::Shared(v) => v.len(),
        }
    }

    /// Materialize one cell as an owned [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[row]),
            Column::Str { arena, spans } => {
                let (a, b) = spans[row];
                Value::String(arena[a as usize..b as usize].to_string())
            }
            Column::Values(v) => v[row].clone(),
            Column::Shared(v) => (*v[row]).clone(),
        }
    }

    /// Borrow one cell as `&str` (only for string-typed columns).
    pub fn get_str(&self, row: usize) -> Option<&str> {
        match self {
            Column::Str { arena, spans } => {
                let (a, b) = *spans.get(row)?;
                Some(&arena[a as usize..b as usize])
            }
            Column::Values(v) => v.get(row)?.as_str(),
            Column::Shared(v) => v.get(row)?.as_str(),
            Column::Int64(_) => None,
        }
    }

    /// Borrow one cell in its native storage (no allocation).
    pub(crate) fn cell(&self, row: usize) -> CellRef<'_> {
        match self {
            Column::Int64(v) => CellRef::Int(v[row]),
            Column::Str { arena, spans } => {
                let (a, b) = spans[row];
                CellRef::Str(&arena[a as usize..b as usize])
            }
            Column::Values(v) => CellRef::Val(&v[row]),
            Column::Shared(v) => CellRef::Val(&v[row]),
        }
    }

    /// Borrow one cell as `&Value` (for [`Column::Values`] and
    /// [`Column::Shared`] columns).
    pub fn get_value(&self, row: usize) -> Option<&Value> {
        match self {
            Column::Values(v) => v.get(row),
            Column::Shared(v) => v.get(row).map(Arc::as_ref),
            _ => None,
        }
    }

    fn heap_bytes(&self) -> u64 {
        match self {
            Column::Int64(v) => 9 * v.len() as u64,
            Column::Str { arena, spans } => arena.len() as u64 + 8 * spans.len() as u64,
            Column::Values(v) => v.iter().map(|x| x.heap_size() as u64).sum(),
            // Conservative: charge every row its full value size, as if the
            // rows were deep copies — sharing is a memory win the budget
            // does not rely on.
            Column::Shared(v) => v.iter().map(|x| x.heap_size() as u64).sum(),
        }
    }

    /// Gather picked rows of aligned source columns (one per source
    /// batch) into one compact column. `picks` entries are pre-validated
    /// `(source, row)` pairs. Column storage is preserved when every
    /// source stores this column the same way; otherwise the gather
    /// degrades to a plain value column.
    fn gather(sources: &[&Column], picks: &[(u32, u32)]) -> Column {
        if sources.iter().all(|c| matches!(c, Column::Int64(_))) {
            let mut out = Vec::with_capacity(picks.len());
            for &(s, r) in picks {
                if let Column::Int64(xs) = sources[s as usize] {
                    out.push(xs[r as usize]);
                }
            }
            return Column::Int64(out);
        }
        if sources.iter().all(|c| matches!(c, Column::Str { .. })) {
            let total: usize = picks
                .iter()
                .map(|&(s, r)| match sources[s as usize] {
                    Column::Str { spans, .. } => {
                        let (a, b) = spans[r as usize];
                        (b - a) as usize
                    }
                    _ => 0,
                })
                .sum();
            if total <= u32::MAX as usize {
                let mut arena = String::with_capacity(total);
                let mut spans = Vec::with_capacity(picks.len());
                for &(s, r) in picks {
                    if let Column::Str {
                        arena: src,
                        spans: sp,
                    } = sources[s as usize]
                    {
                        let (a, b) = sp[r as usize];
                        let start = arena.len() as u32;
                        arena.push_str(&src[a as usize..b as usize]);
                        spans.push((start, arena.len() as u32));
                    }
                }
                return Column::Str { arena, spans };
            }
        }
        if sources.iter().all(|c| matches!(c, Column::Shared(_))) {
            let mut out = Vec::with_capacity(picks.len());
            for &(s, r) in picks {
                if let Column::Shared(xs) = sources[s as usize] {
                    out.push(Arc::clone(&xs[r as usize]));
                }
            }
            return Column::Shared(out);
        }
        Column::Values(
            picks
                .iter()
                .map(|&(s, r)| sources[s as usize].value(r as usize))
                .collect(),
        )
    }

    /// Pick the storage for one column of moved values.
    pub(crate) fn from_values(vals: Vec<Value>) -> Column {
        if vals.iter().all(|v| matches!(v, Value::Int64(_))) {
            return Column::Int64(
                vals.iter()
                    .map(|v| match v {
                        Value::Int64(i) => *i,
                        _ => 0,
                    })
                    .collect(),
            );
        }
        if vals.iter().all(|v| matches!(v, Value::String(_))) {
            let total: usize = vals.iter().map(|v| v.as_str().map_or(0, str::len)).sum();
            if total <= u32::MAX as usize {
                let mut arena = String::with_capacity(total);
                let mut spans = Vec::with_capacity(vals.len());
                for v in &vals {
                    let s = v.as_str().unwrap_or("");
                    let start = arena.len() as u32;
                    arena.push_str(s);
                    spans.push((start, arena.len() as u32));
                }
                return Column::Str { arena, spans };
            }
        }
        // All-record columns go behind `Arc` so downstream gathers (sort,
        // lookup, project, assign) clone a pointer, not the record.
        if vals.iter().all(|v| matches!(v, Value::Record(_))) {
            return Column::Shared(vals.into_iter().map(Arc::new).collect());
        }
        Column::Values(vals)
    }
}

/// One batch cell borrowed in its column's native storage: the unit that
/// batch-native hashing, key comparison and aggregation read, so integer
/// and arena-string cells are never turned into owned [`Value`]s.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CellRef<'a> {
    /// A cell of an [`Column::Int64`] column.
    Int(i64),
    /// A cell of a [`Column::Str`] column.
    Str(&'a str),
    /// A cell of a [`Column::Values`] or [`Column::Shared`] column.
    Val(&'a Value),
}

impl CellRef<'_> {
    /// The owned value this cell stands for.
    pub fn to_value(self) -> Value {
        match self {
            CellRef::Int(i) => Value::Int64(i),
            CellRef::Str(s) => Value::String(s.to_string()),
            CellRef::Val(v) => v.clone(),
        }
    }

    /// Feed the bytes [`asterix_adm::stable_hash`] feeds for the value.
    pub fn hash_into(self, h: &mut Fnv1a) {
        match self {
            CellRef::Int(i) => hash_int64(i, h),
            CellRef::Str(s) => hash_str(s, h),
            CellRef::Val(v) => hash_value(v, h),
        }
    }

    /// True for `Null`/`Missing` cells.
    pub fn is_unknown(self) -> bool {
        matches!(self, CellRef::Val(v) if v.is_unknown())
    }

    /// Numeric view, as [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Str(_) => None,
            CellRef::Val(v) => v.as_f64(),
        }
    }

    /// True for integer cells (`Value::Int64`).
    pub fn is_int(self) -> bool {
        matches!(self, CellRef::Int(_) | CellRef::Val(Value::Int64(_)))
    }

    /// SQL equality, `sql_compare(a, b) == Some(Equal)`: integer and
    /// string pairs compare natively, anything else through
    /// [`sql_compare`] on the borrowed values.
    pub fn sql_eq(self, other: CellRef<'_>) -> bool {
        match (self, other) {
            (CellRef::Int(x), CellRef::Int(y)) => x == y,
            (CellRef::Str(x), CellRef::Str(y)) => x == y,
            (CellRef::Str(s), CellRef::Val(v)) | (CellRef::Val(v), CellRef::Str(s)) => {
                v.as_str() == Some(s)
            }
            (CellRef::Int(i), CellRef::Val(v)) | (CellRef::Val(v), CellRef::Int(i)) => {
                sql_compare(&Value::Int64(i), v) == Some(Ordering::Equal)
            }
            (CellRef::Int(_), CellRef::Str(_)) | (CellRef::Str(_), CellRef::Int(_)) => false,
            (CellRef::Val(x), CellRef::Val(y)) => sql_compare(x, y) == Some(Ordering::Equal),
        }
    }

    /// `Value` equality (`==`) between this cell and `v`.
    pub fn eq_value(self, v: &Value) -> bool {
        match self {
            CellRef::Int(i) => matches!(v, Value::Int64(j) if *j == i),
            CellRef::Str(s) => matches!(v, Value::String(t) if t == s),
            CellRef::Val(x) => x == v,
        }
    }

    /// `Value` total order ([`Ord`]) between this cell and `v`.
    pub fn cmp_value(self, v: &Value) -> Ordering {
        match self {
            CellRef::Int(i) => Value::Int64(i).cmp(v),
            CellRef::Str(s) => match v {
                Value::String(t) => s.cmp(t.as_str()),
                other => ValueKind::String.cmp(&other.kind()),
            },
            CellRef::Val(x) => x.cmp(v),
        }
    }
}

/// Hash one row's cells of the given columns exactly as
/// `stable_hash_many` hashes the same values.
pub(crate) fn hash_cells(cols: &[&Column], row: usize) -> u64 {
    let mut h = Fnv1a::new();
    for col in cols {
        col.cell(row).hash_into(&mut h);
    }
    h.finish()
}

/// A rectangular, immutable chunk of rows stored column-wise.
#[derive(Clone, Debug)]
pub struct Batch {
    len: usize,
    cols: Vec<Column>,
    heap_bytes: u64,
}

impl Batch {
    /// Build a batch from rectangular rows, detecting per-column storage.
    /// Values are moved, not cloned, so batching a freshly scanned frame
    /// costs no record copies.
    ///
    /// Returns the rows back unchanged when they are not rectangular (or
    /// empty); the caller ships those as a plain row frame instead.
    pub fn from_rows(rows: Vec<Tuple>) -> Result<Batch, Vec<Tuple>> {
        let Some(width) = rows.first().map(Vec::len) else {
            return Err(rows);
        };
        if rows.iter().any(|r| r.len() != width) {
            return Err(rows);
        }
        let n = rows.len();
        // Transpose: move every value into its column vector.
        let mut colvecs: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(n)).collect();
        for row in rows {
            for (c, v) in row.into_iter().enumerate() {
                colvecs[c].push(v);
            }
        }
        let cols: Vec<Column> = colvecs.into_iter().map(Column::from_values).collect();
        let heap_bytes = cols.iter().map(Column::heap_bytes).sum();
        Ok(Batch {
            len: n,
            cols,
            heap_bytes,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Approximate heap bytes of the stored values (same accounting as
    /// `Value::heap_size` for value columns; arena bytes for strings).
    pub fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    /// Borrow a column.
    pub fn col(&self, c: usize) -> Option<&Column> {
        self.cols.get(c)
    }

    /// Materialize one row as an owned tuple.
    pub fn row(&self, i: usize) -> Tuple {
        self.cols.iter().map(|c| c.value(i)).collect()
    }

    /// Hash the given columns of one row exactly as the row path hashes
    /// `stable_hash_many(&[&tuple[c], ...])`, reading every cell in place
    /// (no allocation). Returns `None` when a column index is out of
    /// bounds (the caller reports a typed error).
    pub fn hash_row(&self, row: usize, hash_cols: &[usize]) -> Option<u64> {
        let mut h = Fnv1a::new();
        for &c in hash_cols {
            let col = self.cols.get(c)?;
            if col.len() <= row {
                return None;
            }
            col.cell(row).hash_into(&mut h);
        }
        Some(h.finish())
    }

    /// Assemble a batch of `len` rows from whole columns (each must hold
    /// `len` cells).
    pub fn from_columns(len: usize, cols: Vec<Column>) -> Result<Batch, String> {
        let mut b = Batch {
            len,
            cols: Vec::with_capacity(cols.len()),
            heap_bytes: 0,
        };
        for c in cols {
            b.push_col(c)?;
        }
        Ok(b)
    }

    /// Take the batch apart into its columns.
    pub fn into_columns(self) -> Vec<Column> {
        self.cols
    }

    /// Gather the given columns of picked rows from aligned source batches
    /// into one new compact batch. `picks` are `(source index, row index)`
    /// pairs in output order; duplicates are allowed (the same source row
    /// may be emitted many times). Column storage is preserved per column
    /// when the sources agree on it — string cells are copied arena-to-
    /// arena with no per-row allocation, shared cells stay shared.
    ///
    /// Returns `Err` (for the caller's typed operator error) when a pick
    /// or column index is out of bounds or `sources` is empty while
    /// `picks` is not.
    pub fn gather(
        sources: &[&Batch],
        picks: &[(u32, u32)],
        cols: &[usize],
    ) -> Result<Batch, String> {
        for &(s, r) in picks {
            let Some(src) = sources.get(s as usize) else {
                return Err(format!("gather: source {s} out of bounds"));
            };
            if r as usize >= src.len() {
                return Err(format!(
                    "gather: row {r} out of bounds for source of {} rows",
                    src.len()
                ));
            }
        }
        for &c in cols {
            if let Some(narrow) = sources.iter().find(|b| c >= b.width()) {
                return Err(format!(
                    "gather: column {c} out of bounds (source width {})",
                    narrow.width()
                ));
            }
        }
        let out: Vec<Column> = cols
            .iter()
            .map(|&c| {
                let srcs: Vec<&Column> = sources.iter().map(|b| &b.cols[c]).collect();
                Column::gather(&srcs, picks)
            })
            .collect();
        let heap_bytes = out.iter().map(Column::heap_bytes).sum();
        Ok(Batch {
            len: picks.len(),
            cols: out,
            heap_bytes,
        })
    }

    /// Append one column to the batch (its length must match the row
    /// count). Used by operators that emit the input rows plus a computed
    /// column without re-materializing every row.
    pub fn push_col(&mut self, col: Column) -> Result<(), String> {
        if col.len() != self.len {
            return Err(format!(
                "push_col: column of {} rows appended to batch of {} rows",
                col.len(),
                self.len
            ));
        }
        self.heap_bytes += col.heap_bytes();
        self.cols.push(col);
        Ok(())
    }
}

/// Incremental column-wise [`Batch`] builder for operators that fan a few
/// source values out to many rows (the secondary-index search repeats one
/// outer row per candidate). Appending writes each cell straight into
/// column storage — integer cells into an `i64` vector, string cells into
/// the shared arena — so no per-row tuple is ever allocated and no
/// transpose pass is needed. Column storage is decided by the first
/// appended row and degrades per column to plain values on a type
/// mismatch, exactly matching what [`Batch::from_rows`] would have
/// detected for the same rows.
pub struct BatchBuilder {
    cols: Vec<ColBuilder>,
    len: usize,
}

enum ColBuilder {
    /// No rows appended yet; the first cell picks the storage.
    Empty,
    Int64(Vec<i64>),
    Str { arena: String, spans: Vec<(u32, u32)> },
    /// All-record column: one clone into an `Arc` here, pointer clones
    /// at every downstream gather.
    Shared(Vec<Arc<Value>>),
    Values(Vec<Value>),
}

impl ColBuilder {
    fn push(&mut self, v: &Value) {
        match (&mut *self, v) {
            (ColBuilder::Empty, Value::Int64(i)) => *self = ColBuilder::Int64(vec![*i]),
            (ColBuilder::Empty, Value::String(s)) if s.len() <= u32::MAX as usize => {
                *self = ColBuilder::Str {
                    arena: s.clone(),
                    spans: vec![(0, s.len() as u32)],
                }
            }
            (ColBuilder::Empty, v @ Value::Record(_)) => {
                *self = ColBuilder::Shared(vec![Arc::new(v.clone())])
            }
            (ColBuilder::Empty, v) => *self = ColBuilder::Values(vec![v.clone()]),
            (ColBuilder::Int64(xs), Value::Int64(i)) => xs.push(*i),
            (ColBuilder::Str { arena, spans }, Value::String(s))
                if arena.len() + s.len() <= u32::MAX as usize =>
            {
                let start = arena.len() as u32;
                arena.push_str(s);
                spans.push((start, arena.len() as u32));
            }
            (ColBuilder::Shared(xs), v @ Value::Record(_)) => xs.push(Arc::new(v.clone())),
            (ColBuilder::Values(vs), v) => vs.push(v.clone()),
            (_, v) => {
                self.degrade();
                if let ColBuilder::Values(vs) = self {
                    vs.push(v.clone());
                }
            }
        }
    }

    /// Convert the accumulated cells to plain-value storage (type
    /// mismatch or arena overflow).
    fn degrade(&mut self) {
        let vals: Vec<Value> = match std::mem::replace(self, ColBuilder::Empty) {
            ColBuilder::Empty => Vec::new(),
            ColBuilder::Int64(xs) => xs.into_iter().map(Value::Int64).collect(),
            ColBuilder::Str { arena, spans } => spans
                .iter()
                .map(|&(a, b)| Value::String(arena[a as usize..b as usize].to_string()))
                .collect(),
            ColBuilder::Shared(xs) => xs
                .into_iter()
                .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
                .collect(),
            ColBuilder::Values(vs) => vs,
        };
        *self = ColBuilder::Values(vals);
    }

    fn finish(self) -> Column {
        match self {
            ColBuilder::Empty => Column::Values(Vec::new()),
            ColBuilder::Int64(xs) => Column::Int64(xs),
            ColBuilder::Str { arena, spans } => Column::Str { arena, spans },
            ColBuilder::Shared(xs) => Column::Shared(xs),
            ColBuilder::Values(vs) => Column::Values(vs),
        }
    }
}

impl BatchBuilder {
    /// An empty builder for rows of `width` columns.
    pub fn new(width: usize) -> Self {
        BatchBuilder {
            cols: (0..width).map(|_| ColBuilder::Empty).collect(),
            len: 0,
        }
    }

    /// Rows accumulated since the last [`BatchBuilder::take_batch`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of columns each appended row must have.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// True when no rows are accumulated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row given as borrowed cells (in column order). Errors
    /// when the cell count differs from the builder's width.
    pub fn push_row<'a>(
        &mut self,
        cells: impl IntoIterator<Item = &'a Value>,
    ) -> Result<(), String> {
        let mut n = 0usize;
        for v in cells {
            let Some(col) = self.cols.get_mut(n) else {
                return Err(format!(
                    "batch builder: row wider than {} columns",
                    self.cols.len()
                ));
            };
            col.push(v);
            n += 1;
        }
        if n != self.cols.len() {
            return Err(format!(
                "batch builder: row of {n} cells appended to width {}",
                self.cols.len()
            ));
        }
        self.len += 1;
        Ok(())
    }

    /// Drain the accumulated rows as one batch (`None` when empty); the
    /// builder resets and can keep accumulating.
    pub fn take_batch(&mut self) -> Option<Batch> {
        if self.len == 0 {
            return None;
        }
        let width = self.cols.len();
        let built = std::mem::replace(
            &mut self.cols,
            (0..width).map(|_| ColBuilder::Empty).collect(),
        );
        let cols: Vec<Column> = built.into_iter().map(ColBuilder::finish).collect();
        let heap_bytes = cols.iter().map(Column::heap_bytes).sum();
        let len = std::mem::take(&mut self.len);
        Some(Batch {
            len,
            cols,
            heap_bytes,
        })
    }
}

/// A shared batch plus an optional selection vector: the zero-copy unit
/// that filters and connectors pass downstream.
#[derive(Clone, Debug)]
pub struct BatchSlice {
    /// The shared column store.
    pub batch: Arc<Batch>,
    /// Positions of the visible rows, in order; `None` means all rows.
    pub sel: Option<Arc<[u32]>>,
}

impl BatchSlice {
    /// A slice exposing every row of `batch`.
    pub fn full(batch: Arc<Batch>) -> Self {
        BatchSlice { batch, sel: None }
    }

    /// Number of visible rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.batch.len(),
        }
    }

    /// True when no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map a slice position to a row index in the underlying batch.
    pub fn row_index(&self, pos: usize) -> usize {
        match &self.sel {
            Some(s) => s[pos] as usize,
            None => pos,
        }
    }

    /// Materialize the row at slice position `pos` as an owned tuple.
    pub fn row(&self, pos: usize) -> Tuple {
        self.batch.row(self.row_index(pos))
    }

    /// Restrict the slice to the given positions (indices into *this*
    /// slice, in order), composing with any existing selection.
    pub fn narrow(&self, keep: Vec<u32>) -> BatchSlice {
        let sel: Arc<[u32]> = match &self.sel {
            Some(s) => keep.into_iter().map(|p| s[p as usize]).collect(),
            None => keep.into(),
        };
        BatchSlice {
            batch: Arc::clone(&self.batch),
            sel: Some(sel),
        }
    }

    /// Approximate heap bytes attributable to the visible rows
    /// (proportional share of the shared batch plus the selection vector).
    pub fn heap_bytes(&self) -> u64 {
        let visible = self.len() as u64;
        let base = if self.batch.is_empty() {
            0
        } else {
            self.batch.heap_bytes() * visible / self.batch.len() as u64
        };
        base + self.sel.as_ref().map_or(0, |s| 4 * s.len() as u64)
    }
}

/// A frame is the unit moved over a connector in one send: either a plain
/// row vector (the seed representation) or a zero-copy batch slice.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Row-at-a-time payload.
    Rows(Vec<Tuple>),
    /// Batch-at-a-time payload.
    Batch(BatchSlice),
}

impl Frame {
    /// Wrap rows into a batch frame when they are rectangular, otherwise
    /// ship them as a plain row frame.
    pub fn batch_from_rows(rows: Vec<Tuple>) -> Frame {
        match Batch::from_rows(rows) {
            Ok(b) => Frame::Batch(BatchSlice::full(Arc::new(b))),
            Err(rows) => Frame::Rows(rows),
        }
    }

    /// Number of visible rows in the frame.
    pub fn len(&self) -> usize {
        match self {
            Frame::Rows(r) => r.len(),
            Frame::Batch(s) => s.len(),
        }
    }

    /// True when the frame carries no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes shipped with this frame (exact for rows, proportional
    /// for batch slices).
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Frame::Rows(rows) => rows
                .iter()
                .map(|t| t.iter().map(|v| v.heap_size() as u64).sum::<u64>())
                .sum(),
            Frame::Batch(s) => s.heap_bytes(),
        }
    }

    /// Consume the frame as an iterator of owned rows (batch rows are
    /// materialized by cloning).
    pub fn into_rows(self) -> FrameRows {
        match self {
            Frame::Rows(r) => FrameRows::Rows(r.into_iter()),
            Frame::Batch(s) => FrameRows::Batch { slice: s, pos: 0 },
        }
    }
}

/// Owned-row iterator over either [`Frame`] variant.
pub enum FrameRows {
    /// Draining a row frame.
    Rows(std::vec::IntoIter<Tuple>),
    /// Materializing a batch slice row by row.
    Batch {
        /// The slice being drained.
        slice: BatchSlice,
        /// Next slice position to materialize.
        pos: usize,
    },
}

impl FrameRows {
    /// An exhausted iterator (initial state for streaming consumers).
    pub fn empty() -> FrameRows {
        FrameRows::Rows(Vec::new().into_iter())
    }
}

impl Iterator for FrameRows {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match self {
            FrameRows::Rows(it) => it.next(),
            FrameRows::Batch { slice, pos } => {
                if *pos >= slice.len() {
                    return None;
                }
                let t = slice.row(*pos);
                *pos += 1;
                Some(t)
            }
        }
    }
}

/// One sort key: a column index and a direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortKey {
    /// Column index to compare.
    pub col: usize,
    /// Descending order when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending key on `col`.
    pub fn asc(col: usize) -> Self {
        SortKey { col, desc: false }
    }

    /// Descending key on `col`.
    pub fn desc(col: usize) -> Self {
        SortKey { col, desc: true }
    }
}

/// Compare two tuples under a sort-key list.
pub fn compare_tuples(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a[k.col].cmp(&b[k.col]);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::record;

    #[test]
    fn sort_key_compare() {
        let a = vec![Value::Int64(1), Value::from("b")];
        let b = vec![Value::Int64(1), Value::from("a")];
        assert_eq!(compare_tuples(&a, &b, &[SortKey::asc(0)]), Ordering::Equal);
        assert_eq!(
            compare_tuples(&a, &b, &[SortKey::asc(0), SortKey::asc(1)]),
            Ordering::Greater
        );
        assert_eq!(
            compare_tuples(&a, &b, &[SortKey::asc(0), SortKey::desc(1)]),
            Ordering::Less
        );
    }

    fn sample_rows() -> Vec<Tuple> {
        vec![
            vec![
                Value::Int64(1),
                Value::from("ada"),
                record! {"name" => "ada"},
            ],
            vec![
                Value::Int64(2),
                Value::from("bob"),
                record! {"name" => "bob"},
            ],
            vec![Value::Int64(3), Value::from(""), Value::Null],
        ]
    }

    #[test]
    fn from_rows_detects_column_types() {
        let rows = sample_rows();
        let b = Batch::from_rows(rows.clone()).expect("rectangular");
        assert_eq!(b.len(), 3);
        assert_eq!(b.width(), 3);
        assert!(matches!(b.col(0), Some(Column::Int64(_))));
        assert!(matches!(b.col(1), Some(Column::Str { .. })));
        assert!(matches!(b.col(2), Some(Column::Values(_))));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&b.row(i), row);
        }
        assert_eq!(b.col(1).unwrap().get_str(1), Some("bob"));
        assert_eq!(b.col(1).unwrap().get_str(2), Some(""));
        // A column that is records in every row goes behind `Arc`s.
        let recs = vec![
            vec![record! {"name" => "ada"}],
            vec![record! {"name" => "bob"}],
        ];
        let shared = Batch::from_rows(recs.clone()).expect("rectangular");
        assert!(matches!(shared.col(0), Some(Column::Shared(_))));
        for (i, row) in recs.iter().enumerate() {
            assert_eq!(&shared.row(i), row);
        }
    }

    #[test]
    fn batch_builder_matches_from_rows_storage() {
        let rows = sample_rows();
        let mut bb = BatchBuilder::new(3);
        for r in &rows {
            bb.push_row(r.iter()).unwrap();
        }
        let b = bb.take_batch().unwrap();
        assert!(matches!(b.col(0), Some(Column::Int64(_))));
        assert!(matches!(b.col(1), Some(Column::Str { .. })));
        assert!(matches!(b.col(2), Some(Column::Values(_))));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&b.row(i), row);
        }
        let (r1, r2) = (record! {"name" => "ada"}, record! {"name" => "bob"});
        let mut bb = BatchBuilder::new(1);
        bb.push_row([&r1]).unwrap();
        bb.push_row([&r2]).unwrap();
        let b = bb.take_batch().unwrap();
        assert!(matches!(b.col(0), Some(Column::Shared(_))));
        assert_eq!(b.row(0), vec![r1]);
        assert_eq!(b.row(1), vec![r2]);
    }

    #[test]
    fn ragged_rows_fall_back_to_row_frame() {
        let rows = vec![vec![Value::Int64(1)], vec![Value::Int64(2), Value::Null]];
        assert!(Batch::from_rows(rows.clone()).is_err());
        assert!(matches!(Frame::batch_from_rows(rows), Frame::Rows(_)));
        assert!(Batch::from_rows(Vec::new()).is_err());
    }

    #[test]
    fn slice_narrow_composes_selections() {
        let b = Arc::new(Batch::from_rows(sample_rows()).unwrap());
        let all = BatchSlice::full(Arc::clone(&b));
        assert_eq!(all.len(), 3);
        let odd = all.narrow(vec![0, 2]);
        assert_eq!(odd.len(), 2);
        assert_eq!(odd.row(1)[0], Value::Int64(3));
        let last = odd.narrow(vec![1]);
        assert_eq!(last.len(), 1);
        assert_eq!(last.row_index(0), 2);
        assert_eq!(last.row(0), sample_rows()[2]);
    }

    #[test]
    fn hash_row_matches_row_path() {
        use asterix_adm::stable_hash_many;
        // Int64, arena string, shared record and mixed value columns.
        let rows = vec![
            vec![
                Value::Int64(1),
                Value::from("ada"),
                record! {"name" => "ada"},
                Value::double(2.0),
            ],
            vec![
                Value::Int64(-7),
                Value::from(""),
                record! {"name" => "bob", "age" => 3i64},
                Value::from("x"),
            ],
            vec![
                Value::Int64(i64::MAX),
                Value::from("ünïcode"),
                record! {},
                Value::Null,
            ],
        ];
        let b = Batch::from_rows(rows.clone()).unwrap();
        assert!(matches!(b.col(0), Some(Column::Int64(_))));
        assert!(matches!(b.col(1), Some(Column::Str { .. })));
        assert!(matches!(b.col(2), Some(Column::Shared(_))));
        assert!(matches!(b.col(3), Some(Column::Values(_))));
        for r in 0..b.len() {
            let row = b.row(r);
            for cols in [
                vec![0usize],
                vec![1],
                vec![2],
                vec![3],
                vec![1, 0],
                vec![0, 1, 2, 3],
                vec![],
            ] {
                let refs: Vec<&Value> = cols.iter().map(|c| &row[*c]).collect();
                assert_eq!(b.hash_row(r, &cols), Some(stable_hash_many(&refs)));
            }
        }
        assert_eq!(b.hash_row(0, &[7]), None);
    }

    #[test]
    fn cell_ref_matches_value_semantics() {
        let b = Batch::from_rows(sample_rows()).unwrap();
        let vals = [
            Value::Int64(2),
            Value::double(2.0),
            Value::from("bob"),
            Value::Null,
            record! {"name" => "bob"},
        ];
        for r in 0..b.len() {
            for c in 0..b.width() {
                let cell = b.col(c).unwrap().cell(r);
                let owned = b.row(r)[c].clone();
                assert_eq!(cell.to_value(), owned);
                assert_eq!(cell.is_unknown(), owned.is_unknown());
                assert_eq!(cell.as_f64(), owned.as_f64());
                for v in &vals {
                    assert_eq!(cell.eq_value(v), &owned == v);
                    assert_eq!(cell.cmp_value(v), owned.cmp(v));
                    let other = CellRef::Val(v);
                    let want = sql_compare(&owned, v) == Some(Ordering::Equal);
                    assert_eq!(cell.sql_eq(other), want);
                    assert_eq!(other.sql_eq(cell), want);
                }
            }
        }
    }

    #[test]
    fn frame_rows_iterates_both_variants() {
        let rows = sample_rows();
        let row_frame = Frame::Rows(rows.clone());
        assert_eq!(row_frame.into_rows().collect::<Vec<_>>(), rows);
        let batch_frame = Frame::batch_from_rows(rows.clone());
        assert!(matches!(batch_frame, Frame::Batch(_)));
        assert_eq!(batch_frame.len(), 3);
        assert_eq!(batch_frame.into_rows().collect::<Vec<_>>(), rows);
    }

    #[test]
    fn frame_heap_bytes_proportional_for_slices() {
        let rows = sample_rows();
        let full = Frame::batch_from_rows(rows.clone());
        let full_bytes = full.heap_bytes();
        assert!(full_bytes > 0);
        if let Frame::Batch(slice) = full {
            let half = slice.narrow(vec![0]);
            assert!(half.heap_bytes() < full_bytes);
        }
    }
}
