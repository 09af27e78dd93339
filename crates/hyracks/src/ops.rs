//! Operator implementations. Each operator instance runs as one worker-pool
//! task for one partition; `run_operator` is its body.
//!
//! Every receive loop and every connector send is *cancel-aware*: it
//! consults the job's [`CancelToken`] (a receive polls in short intervals
//! instead of blocking indefinitely), so a failure (or deadline) on any
//! partition unwinds the whole job.

use crate::context::ClusterContext;
use crate::error::{CancelToken, ExecError, OpError};
use crate::job::{AggSpec, ConnectorKind, FaultMode, PhysicalOp, PreTokenized, SearchMeasure};
use crate::expr::Expr;
use crate::tuple::{
    hash_cells, Batch, BatchSlice, CellRef, Column, SortKey, Tuple, FRAME_CAPACITY,
};
use crate::vectorized::{eval_expr_on_batch, eval_pred_on_batch, VerifyKernel};
use asterix_adm::{IndexKind, Value};
use asterix_simfn::{edit_distance_t_bound, jaccard_t_bound, FunctionRegistry, FxHashMap};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Distinct probe keys whose token lists one `SecondaryIndexSearch`
/// instance memoizes. Index-nested-loop joins broadcast every outer tuple
/// to every partition, so a modest working set of repeated keys covers
/// most probes; the memo is per operator instance (per thread), so no
/// locking is involved.
const TOKEN_MEMO_CAPACITY: usize = 256;

/// How long a blocked receive waits before re-checking the cancel token.
/// Bounds how stale a cancellation can go unnoticed.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Routes a producer partition's output slices to the consumer partitions
/// of one edge.
pub struct Router {
    kind: ConnectorKind,
    /// One sender per consumer partition.
    senders: Vec<Sender<BatchSlice>>,
    producer_partition: usize,
    cancel: Arc<CancelToken>,
    frames_sent: u64,
    bytes_sent: u64,
}

impl Router {
    /// A router shipping frames to `senders` according to `kind`.
    pub fn new(
        kind: ConnectorKind,
        senders: Vec<Sender<BatchSlice>>,
        producer_partition: usize,
        cancel: Arc<CancelToken>,
    ) -> Self {
        Router {
            kind,
            senders,
            producer_partition,
            cancel,
            frames_sent: 0,
            bytes_sent: 0,
        }
    }

    fn hash_col_error(&self, cols: &[usize], width: usize) -> ExecError {
        ExecError::Operator {
            op: "hash-connector".into(),
            partition: self.producer_partition,
            message: format!("hash column out of bounds: columns {cols:?}, tuple width {width}"),
        }
    }

    /// Route a whole batch slice. Non-hash kinds forward the slice
    /// zero-copy (one `Arc` clone per consumer); hash routing builds one
    /// selection vector per consumer partition over the shared batch.
    fn push_slice(&mut self, slice: &BatchSlice) -> Result<(), ExecError> {
        match &self.kind {
            ConnectorKind::OneToOne => self.send_counted(self.producer_partition, slice.clone()),
            ConnectorKind::ToOne => self.send_counted(0, slice.clone()),
            ConnectorKind::Broadcast => {
                for p in 0..self.senders.len() {
                    self.send_counted(p, slice.clone())?;
                }
                Ok(())
            }
            ConnectorKind::Hash(cols) => {
                let cols = cols.clone();
                let mut parts: Vec<Vec<u32>> = vec![Vec::new(); self.senders.len()];
                for pos in 0..slice.len() {
                    let row = slice.row_index(pos);
                    let h = slice
                        .batch
                        .hash_row(row, &cols)
                        .ok_or_else(|| self.hash_col_error(&cols, slice.batch.width()))?;
                    parts[(h % self.senders.len() as u64) as usize].push(pos as u32);
                }
                for (p, keep) in parts.into_iter().enumerate() {
                    if keep.is_empty() {
                        continue;
                    }
                    let sub = if keep.len() == slice.len() {
                        slice.clone()
                    } else {
                        slice.narrow(keep)
                    };
                    self.send_counted(p, sub)?;
                }
                Ok(())
            }
        }
    }

    /// Count and ship one frame, charging the memory budget.
    fn send_counted(&mut self, partition: usize, frame: BatchSlice) -> Result<(), ExecError> {
        self.frames_sent += 1;
        let frame_bytes = frame.heap_bytes();
        self.bytes_sent += frame_bytes;
        // Charge the frame against the query's memory budget (scoped onto
        // this thread by the executor). Exceeding it is a typed, per-query
        // failure: the error trips the cancel token via the supervisor, so
        // the job unwinds instead of buffering towards OOM.
        if let asterix_storage::budget::ChargeResult::Exceeded { used, limit } =
            asterix_storage::budget::charge_current(frame_bytes)
        {
            return Err(ExecError::MemoryBudgetExceeded { used, limit });
        }
        self.cancel.check()?;
        // Edges are unbounded, so a send never blocks. A disconnected
        // consumer (error or limit downstream) is not an error: dropping
        // the frame is correct either way.
        let _ = self.senders[partition].send(frame);
        Ok(())
    }
}

/// What one operator instance pushed downstream: tuples, frames (channel
/// sends of up to [`FRAME_CAPACITY`] tuples), and their heap bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutCounts {
    /// Tuples pushed downstream.
    pub tuples: u64,
    /// Frames (channel sends) shipped.
    pub frames: u64,
    /// Heap bytes of the shipped tuples.
    pub bytes: u64,
}

/// All outgoing edges of one operator instance.
pub struct Out {
    routers: Vec<Router>,
    /// Tuples pushed so far.
    pub produced: u64,
    /// Live progress slot of the owning operator: pushed tuples count
    /// here as they happen, so observers see mid-execution progress.
    live: Option<std::sync::Arc<crate::progress::OpProgress>>,
}

impl Out {
    /// Wrap this instance's outgoing routers (one per edge).
    pub fn new(routers: Vec<Router>) -> Self {
        Out {
            routers,
            produced: 0,
            live: None,
        }
    }

    /// Attach the operator's live progress counters (see
    /// [`crate::progress::JobProgress`]); `None` leaves counting off.
    pub fn with_live(mut self, live: Option<std::sync::Arc<crate::progress::OpProgress>>) -> Self {
        self.live = live;
        self
    }

    /// The one exit of every operator: push an output slice down every
    /// outgoing edge (zero-copy for non-hash connectors). Empty slices
    /// are dropped.
    fn emit(&mut self, slice: &BatchSlice) -> Result<(), ExecError> {
        if slice.is_empty() {
            return Ok(());
        }
        self.produced += slice.len() as u64;
        if let Some(p) = &self.live {
            p.add_out(slice.len() as u64);
        }
        for r in &mut self.routers {
            r.push_slice(slice)?;
        }
        Ok(())
    }

    /// [`Out::emit`] a batch the operator built.
    fn emit_batch(&mut self, batch: Batch) -> Result<(), ExecError> {
        self.emit(&BatchSlice::full(Arc::new(batch)))
    }

    /// Close the streams, returning counts.
    pub fn finish(self) -> OutCounts {
        OutCounts {
            tuples: self.produced,
            frames: self.routers.iter().map(|r| r.frames_sent).sum(),
            bytes: self.routers.iter().map(|r| r.bytes_sent).sum(),
        }
        // Senders drop here, signalling end-of-stream downstream.
    }
}

/// Cancel-aware slice stream over one input edge. Yields `Err` once the
/// job's cancel token trips; ends cleanly on upstream disconnect.
struct SliceStream<'a> {
    rx: &'a Receiver<BatchSlice>,
    cancel: &'a CancelToken,
    done: bool,
}

impl Iterator for SliceStream<'_> {
    type Item = Result<BatchSlice, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            if let Err(e) = self.cancel.check() {
                self.done = true;
                return Some(Err(e));
            }
            match self.rx.recv_timeout(POLL_INTERVAL) {
                Ok(frame) => return Some(Ok(frame)),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    self.done = true;
                    return None;
                }
            }
        }
    }
}

/// Aggregate state for one group.
enum AggState {
    Count(i64),
    Sum(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    First(Option<Value>),
    Collect(Vec<Value>),
}

impl AggState {
    fn new(spec: &AggSpec) -> AggState {
        match spec {
            AggSpec::Count => AggState::Count(0),
            AggSpec::Sum(_) => AggState::Sum(0.0, true),
            AggSpec::Min(_) => AggState::Min(None),
            AggSpec::Max(_) => AggState::Max(None),
            AggSpec::First(_) => AggState::First(None),
            AggSpec::CollectSortedSet(_) => AggState::Collect(Vec::new()),
        }
    }

    /// Fold one row in. `cell` is the row's cell of the aggregate's column
    /// ([`AggSpec::column`]); `Count` reads none.
    fn update(&mut self, cell: Option<CellRef<'_>>) {
        let Some(v) = cell else {
            if let AggState::Count(n) = self {
                *n += 1;
            }
            return;
        };
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc, int) => {
                if let Some(x) = v.as_f64() {
                    *acc += x;
                    *int &= v.is_int();
                }
            }
            AggState::Min(m) => {
                if !v.is_unknown() && m.as_ref().is_none_or(|cur| v.cmp_value(cur).is_lt()) {
                    *m = Some(v.to_value());
                }
            }
            AggState::Max(m) => {
                if !v.is_unknown() && m.as_ref().is_none_or(|cur| v.cmp_value(cur).is_gt()) {
                    *m = Some(v.to_value());
                }
            }
            AggState::First(f) => {
                if f.is_none() {
                    *f = Some(v.to_value());
                }
            }
            AggState::Collect(items) => items.push(v.to_value()),
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(n),
            AggState::Sum(acc, int) => {
                if int {
                    Value::Int64(acc as i64)
                } else {
                    Value::double(acc)
                }
            }
            AggState::Min(m) | AggState::Max(m) | AggState::First(m) => {
                m.unwrap_or(Value::Null)
            }
            AggState::Collect(mut items) => {
                items.sort();
                items.dedup();
                Value::OrderedList(items)
            }
        }
    }
}

/// Cancel-aware stream of one input edge's batch slices.
fn recv_slices<'a>(rx: &'a Receiver<BatchSlice>, cancel: &'a CancelToken) -> SliceStream<'a> {
    SliceStream {
        rx,
        cancel,
        done: false,
    }
}

/// Every slice of one input edge, for blocking operators.
fn drain_slices(
    rx: &Receiver<BatchSlice>,
    cancel: &CancelToken,
) -> Result<Vec<BatchSlice>, ExecError> {
    recv_slices(rx, cancel).collect()
}

/// `(source 0, row)` picks of a slice's visible rows, for [`Batch::gather`].
fn slice_picks(slice: &BatchSlice) -> Vec<(u32, u32)> {
    (0..slice.len())
        .map(|pos| (0, slice.row_index(pos) as u32))
        .collect()
}

/// The visible rows of a slice as a batch the caller owns: the batch
/// itself when the slice is whole and unshared, otherwise a column-wise
/// gather (record cells as `Arc` clones).
fn owned_rows(slice: BatchSlice) -> Result<Batch, String> {
    let BatchSlice { batch, sel } = slice;
    let batch = match (sel.is_none(), Arc::try_unwrap(batch)) {
        (true, Ok(owned)) => return Ok(owned),
        (_, Ok(owned)) => Arc::new(owned),
        (_, Err(shared)) => shared,
    };
    let slice = BatchSlice { batch, sel };
    let all: Vec<usize> = (0..slice.batch.width()).collect();
    Batch::gather(&[slice.batch.as_ref()], &slice_picks(&slice), &all)
}

/// Resolve an operator's column indices against one input batch; an index
/// past its width is a typed error (malformed plan), never a panic.
fn resolve_cols<'b>(
    batch: &'b Batch,
    cols: &[usize],
    op: &str,
    what: &str,
) -> Result<Vec<&'b Column>, OpError> {
    cols.iter()
        .map(|&c| {
            batch.col(c).ok_or_else(|| {
                OpError::Failed(format!(
                    "{op}: {what} column {c} out of bounds for tuple of width {}",
                    batch.width()
                ))
            })
        })
        .collect()
}

/// Hash chains over entries numbered in insertion order: one map slot per
/// distinct hash, entries of equal hash linked in insertion order, and no
/// allocation per entry.
#[derive(Default)]
struct HashChains {
    /// First and last entry per hash.
    heads: FxHashMap<u64, (u32, u32)>,
    /// Next entry with the same hash (`END` terminates).
    next: Vec<u32>,
}

impl HashChains {
    const END: u32 = u32::MAX;

    /// Append an entry with hash `h`; returns its number.
    fn push(&mut self, h: u64) -> u32 {
        let id = self.next.len() as u32;
        self.next.push(Self::END);
        match self.heads.entry(h) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let tail = &mut e.get_mut().1;
                self.next[*tail as usize] = id;
                *tail = id;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((id, id));
            }
        }
        id
    }

    /// Entries with hash `h`, in insertion order.
    fn chain(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.heads.get(&h).map_or(Self::END, |&(first, _)| first);
        std::iter::from_fn(move || {
            (cur != Self::END).then(|| {
                let id = cur;
                cur = self.next[id as usize];
                id
            })
        })
    }

    fn len(&self) -> usize {
        self.next.len()
    }
}

/// Forward one slice unchanged (zero-copy).
fn forward_slice(out: &mut Out, slice: BatchSlice, consumed: &mut u64) -> Result<(), ExecError> {
    *consumed += slice.len() as u64;
    out.emit(&slice)
}

/// The predicate of a select or nested-loop join, evaluated over batch
/// rows in place: through a [`VerifyKernel`] when the predicate has a
/// recognized similarity shape, row by row on the batch cells otherwise.
struct Filter<'p> {
    predicate: &'p Expr,
    kernel: Option<VerifyKernel>,
}

impl<'p> Filter<'p> {
    fn new(predicate: &'p Expr) -> Self {
        Filter {
            predicate,
            kernel: VerifyKernel::compile(predicate),
        }
    }

    /// Positions (indices into `slice`) of the accepted rows, in order.
    fn keep(&mut self, slice: &BatchSlice, reg: &FunctionRegistry) -> Result<Vec<u32>, OpError> {
        if let Some(k) = self.kernel.as_mut() {
            return k.eval_slice(slice, reg);
        }
        let mut keep = Vec::new();
        for pos in 0..slice.len() {
            if eval_pred_on_batch(self.predicate, &slice.batch, slice.row_index(pos), reg)? {
                keep.push(pos as u32);
            }
        }
        Ok(keep)
    }
}

/// Emit a fan-out of `src`: row `picks[i]` (every column, record cells as
/// `Arc` clones) followed by the `i`-th value of each `extra` column, in
/// frames of at most [`FRAME_CAPACITY`] rows.
fn emit_fanout(
    out: &mut Out,
    src: &Batch,
    picks: &[(u32, u32)],
    extra: Vec<Vec<Value>>,
) -> Result<(), OpError> {
    let all: Vec<usize> = (0..src.width()).collect();
    let mut extra: Vec<_> = extra.into_iter().map(Vec::into_iter).collect();
    for chunk in picks.chunks(FRAME_CAPACITY) {
        let mut b = Batch::gather(&[src], chunk, &all).map_err(OpError::Failed)?;
        for vals in &mut extra {
            b.push_col(Column::from_values(vals.take(chunk.len()).collect()))
                .map_err(OpError::Failed)?;
        }
        out.emit_batch(b)?;
    }
    Ok(())
}

/// Source batches grouped by width, so one output gather never mixes
/// widths (only a ragged upstream produces more than one group).
struct WidthGroups<'b> {
    groups: Vec<Vec<&'b Batch>>,
    /// Per source batch: its group and its index inside the group.
    place: Vec<(usize, u32)>,
}

impl<'b> WidthGroups<'b> {
    fn new(batches: impl IntoIterator<Item = &'b Batch>) -> Self {
        let mut groups: Vec<Vec<&Batch>> = Vec::new();
        let mut place = Vec::new();
        for b in batches {
            let g = match groups.iter().position(|g| g[0].width() == b.width()) {
                Some(g) => g,
                None => {
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            place.push((g, groups[g].len() as u32));
            groups[g].push(b);
        }
        WidthGroups { groups, place }
    }

    /// Every column of `picks` (`(index in group, row)` pairs, non-empty).
    fn gather(&self, group: usize, picks: &[(u32, u32)]) -> Result<Batch, OpError> {
        let srcs = &self.groups[group];
        let cols: Vec<usize> = (0..srcs[0].width()).collect();
        Batch::gather(srcs, picks, &cols).map_err(OpError::Failed)
    }
}

/// Pending join output: build rows (picks into one width group) beside
/// rows of the current probe batch, shipped as one column-wise gather per
/// run of at most [`FRAME_CAPACITY`] rows.
#[derive(Default)]
struct JoinRun {
    group: usize,
    left: Vec<(u32, u32)>,
    right: Vec<(u32, u32)>,
}

impl JoinRun {
    /// Queue build row `row` of source batch `src` beside `probe_row`.
    fn push(
        &mut self,
        out: &mut Out,
        groups: &WidthGroups<'_>,
        probe: &Batch,
        (src, row): (u32, u32),
        probe_row: usize,
    ) -> Result<(), OpError> {
        let (g, i) = groups.place[src as usize];
        if g != self.group || self.left.len() >= FRAME_CAPACITY {
            self.flush(out, groups, probe)?;
            self.group = g;
        }
        self.left.push((i, row));
        self.right.push((0, probe_row as u32));
        Ok(())
    }

    fn flush(
        &mut self,
        out: &mut Out,
        groups: &WidthGroups<'_>,
        probe: &Batch,
    ) -> Result<(), OpError> {
        if self.left.is_empty() {
            return Ok(());
        }
        let rcols: Vec<usize> = (0..probe.width()).collect();
        let mut cols = groups.gather(self.group, &self.left)?.into_columns();
        cols.extend(
            Batch::gather(&[probe], &self.right, &rcols)
                .map_err(OpError::Failed)?
                .into_columns(),
        );
        let b = Batch::from_columns(self.left.len(), cols).map_err(OpError::Failed)?;
        self.left.clear();
        self.right.clear();
        out.emit_batch(b)?;
        Ok(())
    }
}

/// Where the `ResultSink` operator puts the rows it receives.
pub enum SinkTarget<'a> {
    /// Buffer into the job's result vector (the default: `run_job`
    /// returns the full row set).
    Buffer(&'a Mutex<Vec<Tuple>>),
    /// Stream each arriving frame to the caller's sink; the job's
    /// returned vector stays empty.
    Stream(&'a crate::exec::ResultSink),
}

/// Run one operator instance. Returns (input tuples, output counts).
/// Every operator has one body over batch slices.
pub fn run_operator(
    op: &PhysicalOp,
    partition: usize,
    inputs: Vec<Receiver<BatchSlice>>,
    mut out: Out,
    ctx: &ClusterContext,
    cancel: &CancelToken,
    sink: SinkTarget<'_>,
) -> Result<(u64, OutCounts), OpError> {
    let reg = &ctx.registry;
    let mut consumed: u64 = 0;
    match op {
        PhysicalOp::EmptySource => {
            if partition == 0 {
                // One zero-width row: the input constant-source plans
                // assign their constants to.
                out.emit_batch(Batch::from_columns(1, Vec::new()).map_err(OpError::Failed)?)?;
            }
            Ok((0, out.finish()))
        }
        PhysicalOp::DatasetScan { dataset, range } => {
            let set = ctx.partitions[partition].read();
            let store = set
                .store(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
            let mut pks: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
            let mut recs: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
            for item in store.primary().scan_range(range) {
                let (pk, rec) = item?;
                pks.push(pk);
                recs.push(rec);
                if pks.len() >= FRAME_CAPACITY {
                    emit_scanned(&mut out, &mut pks, &mut recs)?;
                }
            }
            emit_scanned(&mut out, &mut pks, &mut recs)?;
            Ok((0, out.finish()))
        }
        PhysicalOp::Select { predicate } => {
            let mut filter = Filter::new(predicate);
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                let keep = filter.keep(&slice, reg)?;
                if keep.len() == slice.len() {
                    out.emit(&slice)?;
                } else {
                    out.emit(&slice.narrow(keep))?;
                }
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Assign { exprs } => {
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                if slice.is_empty() {
                    continue;
                }
                // Keep the input columns shared (record cells stay behind
                // their `Arc`s) and append one value column per
                // expression, evaluated straight against the batch so
                // field access never deep-clones a record.
                let src = slice.batch.as_ref();
                let all: Vec<usize> = (0..src.width()).collect();
                let mut b = Batch::gather(&[src], &slice_picks(&slice), &all)
                    .map_err(|e| OpError::Failed(format!("assign: {e}")))?;
                for e in exprs {
                    let mut vals = Vec::with_capacity(slice.len());
                    for pos in 0..slice.len() {
                        vals.push(eval_expr_on_batch(e, src, slice.row_index(pos), reg)?);
                    }
                    b.push_col(Column::from_values(vals))
                        .map_err(|e| OpError::Failed(format!("assign: {e}")))?;
                }
                out.emit_batch(b)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Project { cols } => {
            // Gather only the projected columns: dropped columns (most
            // importantly the full record after the verify) are never
            // copied at all.
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                if slice.is_empty() {
                    continue;
                }
                let b = Batch::gather(&[slice.batch.as_ref()], &slice_picks(&slice), cols)
                    .map_err(|e| OpError::Failed(format!("project: {e}")))?;
                out.emit_batch(b)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Sort { keys } => run_batch_sort(keys, &inputs[0], out, cancel, &mut consumed),
        PhysicalOp::HashJoin {
            left_keys,
            right_keys,
        } => run_hash_join(left_keys, right_keys, &inputs, out, cancel, &mut consumed),
        PhysicalOp::NestedLoopJoin { predicate } => run_nested_loop_join(
            Filter::new(predicate),
            &inputs,
            out,
            cancel,
            &mut consumed,
            reg,
        ),
        PhysicalOp::HashGroupBy { keys, aggs } => {
            run_hash_group_by(keys, aggs, &inputs[0], out, cancel, &mut consumed)
        }
        PhysicalOp::Unnest { expr, with_pos } => {
            let mut refs = Vec::new();
            expr.referenced_columns(&mut refs);
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                let src = slice.batch.as_ref();
                resolve_cols(src, &refs, "unnest", "expression")?;
                // One output row per list item: the input row repeated by
                // gather, plus the item and, optionally, its position.
                let mut picks: Vec<(u32, u32)> = Vec::new();
                let mut items: Vec<Value> = Vec::new();
                let mut positions: Vec<Value> = Vec::new();
                for pos in 0..slice.len() {
                    let row = slice.row_index(pos);
                    // Non-list (including null/missing): no rows, like
                    // AQL's `for $x in <non-list>`.
                    let list = match eval_expr_on_batch(expr, src, row, reg)? {
                        Value::OrderedList(l) | Value::UnorderedList(l) => l,
                        _ => continue,
                    };
                    for (i, item) in list.into_iter().enumerate() {
                        picks.push((0, row as u32));
                        items.push(item);
                        if *with_pos {
                            positions.push(Value::Int64(i as i64));
                        }
                    }
                }
                let mut extra = vec![items];
                if *with_pos {
                    extra.push(positions);
                }
                emit_fanout(&mut out, src, &picks, extra)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::StreamPos => {
            let mut next: i64 = 0;
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                if slice.is_empty() {
                    continue;
                }
                let mut b = owned_rows(slice).map_err(OpError::Failed)?;
                let n = b.len() as i64;
                b.push_col(Column::Int64((next..next + n).collect()))
                    .map_err(OpError::Failed)?;
                next += n;
                out.emit_batch(b)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::SecondaryIndexSearch {
            dataset,
            index,
            key_col,
            measure,
            pre_tokens,
        } => {
            let set = ctx.partitions[partition].read();
            let store = set
                .store(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
            let mut memo = TokenMemo::new(pre_tokens.as_ref());
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                let src = slice.batch.as_ref();
                let keys = resolve_cols(src, &[*key_col], "secondary-index-search", "key")?[0];
                // One output row per candidate: the probe row repeated by
                // gather, plus the candidate's primary key.
                let mut picks: Vec<(u32, u32)> = Vec::new();
                let mut pks: Vec<Value> = Vec::new();
                for pos in 0..slice.len() {
                    let row = slice.row_index(pos);
                    let candidates =
                        index_candidates(store, index, &keys.value(row), measure, &mut memo)?;
                    picks.extend(std::iter::repeat_n((0, row as u32), candidates.len()));
                    pks.extend(candidates);
                }
                emit_fanout(&mut out, src, &picks, vec![pks])?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::PrimaryIndexLookup { dataset, pk_col } => {
            let set = ctx.partitions[partition].read();
            let store = set
                .store(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
            // Each slice resolves its keys as one sorted, deduped multi-get
            // (one merged pass per LSM component, §4.1.1). The fetched
            // records ride along as a *shared* column: a record referenced
            // by many candidate rows is deep-copied zero times.
            let mut pks: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
            let mut sorted: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                let col = resolve_cols(&slice.batch, &[*pk_col], "primary-index-lookup", "pk")?[0];
                pks.clear();
                pks.extend((0..slice.len()).map(|pos| col.value(slice.row_index(pos))));
                sorted.clear();
                sorted.extend(pks.iter().cloned());
                sorted.sort();
                sorted.dedup();
                let fetched: Vec<Option<Arc<Value>>> = store
                    .primary()
                    .get_many_sorted(&sorted)?
                    .into_iter()
                    .map(|o| o.map(Arc::new))
                    .collect();
                let mut keep: Vec<(u32, u32)> = Vec::with_capacity(pks.len());
                let mut recs: Vec<Arc<Value>> = Vec::with_capacity(pks.len());
                for (pos, pk) in pks.iter().enumerate() {
                    let i = sorted.binary_search(pk).map_err(|_| {
                        OpError::Failed(
                            "primary-index-lookup: key vanished from its own batch".to_string(),
                        )
                    })?;
                    if let Some(rec) = &fetched[i] {
                        keep.push((0, slice.row_index(pos) as u32));
                        recs.push(Arc::clone(rec));
                    }
                }
                if keep.is_empty() {
                    continue;
                }
                let all_cols: Vec<usize> = (0..slice.batch.width()).collect();
                let mut b = Batch::gather(&[slice.batch.as_ref()], &keep, &all_cols)
                    .map_err(OpError::Failed)?;
                b.push_col(Column::Shared(recs)).map_err(OpError::Failed)?;
                out.emit_batch(b)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Union => {
            // A stage starts only once its inputs are complete and closed,
            // so draining them one after another cannot block.
            for rx in &inputs {
                for slice in recv_slices(rx, cancel) {
                    forward_slice(&mut out, slice?, &mut consumed)?;
                }
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Materialize => {
            let all = drain_slices(&inputs[0], cancel)?;
            for slice in &all {
                consumed += slice.len() as u64;
                out.emit(slice)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Limit { n } => {
            let mut left = *n;
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                consumed += slice.len() as u64;
                let head = slice.head(left);
                left -= head.len();
                out.emit(&head)?;
                if left == 0 {
                    break; // stop reading; upstream sends are dropped
                }
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::Throttle { micros_per_tuple } => {
            // Test-support: forward tuples at a bounded rate, re-checking
            // the cancel token every couple of milliseconds so deadlines
            // are honored mid-sleep.
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                for pos in 0..slice.len() {
                    consumed += 1;
                    let mut remaining = *micros_per_tuple;
                    while remaining > 0 {
                        cancel.check()?;
                        let step = remaining.min(2_000);
                        std::thread::sleep(Duration::from_micros(step));
                        remaining -= step;
                    }
                    out.emit(&slice.narrow(vec![pos as u32]))?;
                }
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::FaultInject {
            partition: fail_partition,
            after_tuples,
            mode,
        } => {
            // Test-support: pass tuples through, except on the chosen
            // partition, which always fails — after forwarding at most
            // `after_tuples` tuples, or at end-of-stream if fewer arrive
            // (hash routing may starve it).
            let failing = partition == *fail_partition;
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                let before = consumed;
                consumed += slice.len() as u64;
                if failing && consumed > *after_tuples {
                    out.emit(&slice.head((*after_tuples - before) as usize))?;
                    inject_fault(mode, partition)?;
                }
                out.emit(&slice)?;
            }
            if failing {
                inject_fault(mode, partition)?;
            }
            Ok((consumed, out.finish()))
        }
        PhysicalOp::ResultSink => {
            // The one place rows are built: the client consumes owned
            // tuples.
            let mut collected: Vec<Tuple> = Vec::new();
            for slice in recv_slices(&inputs[0], cancel) {
                let slice = slice?;
                let rows: Vec<Tuple> = (0..slice.len()).map(|pos| slice.row(pos)).collect();
                consumed += rows.len() as u64;
                match sink {
                    SinkTarget::Buffer(_) => collected.extend(rows),
                    // Deliver frame by frame: the client sees rows as
                    // upstream operators produce them, and a delivery
                    // failure (client gone) cancels the job via the normal
                    // operator-error path.
                    SinkTarget::Stream(s) => s.deliver(rows).map_err(OpError::Failed)?,
                }
            }
            if let SinkTarget::Buffer(buf) = sink {
                buf.lock().extend(collected);
            }
            // The sink "emits" its rows to the client, not to a channel.
            Ok((
                consumed,
                OutCounts {
                    tuples: consumed,
                    frames: 0,
                    bytes: 0,
                },
            ))
        }
    }
}

/// Ship scanned `(pk, record)` pairs as one `[pk, rec]` batch.
fn emit_scanned(out: &mut Out, pks: &mut Vec<Value>, recs: &mut Vec<Value>) -> Result<(), OpError> {
    let n = pks.len();
    let cols = vec![
        Column::from_values(std::mem::take(pks)),
        Column::from_values(std::mem::take(recs)),
    ];
    out.emit_batch(Batch::from_columns(n, cols).map_err(OpError::Failed)?)?;
    Ok(())
}

fn inject_fault(mode: &FaultMode, partition: usize) -> Result<(), OpError> {
    match mode {
        FaultMode::Panic => panic!("injected panic on partition {partition}"),
        FaultMode::Error => Err(OpError::Failed(format!(
            "injected operator failure on partition {partition}"
        ))),
    }
}

/// Batch sort: keep the received batches shared, extract only the key
/// columns, sort a row permutation stably (ties keep arrival order), and
/// gather the output column-wise into fresh batch frames. Inputs of mixed
/// widths come out in equal-width runs.
fn run_batch_sort(
    keys: &[SortKey],
    input: &Receiver<BatchSlice>,
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
) -> Result<(u64, OutCounts), OpError> {
    let mut sources: Vec<Arc<Batch>> = Vec::new();
    let mut picks: Vec<(u32, u32)> = Vec::new();
    for slice in recv_slices(input, cancel) {
        let slice = slice?;
        *consumed += slice.len() as u64;
        let src = sources.len() as u32;
        for pos in 0..slice.len() {
            picks.push((src, slice.row_index(pos) as u32));
        }
        sources.push(slice.batch);
    }
    // Validate key columns against the narrowest source: a malformed plan
    // fails typed, never panics.
    if !picks.is_empty() {
        let min_width = sources.iter().map(|b| b.width()).min().unwrap_or(0);
        for k in keys {
            if k.col >= min_width {
                return Err(OpError::Failed(format!(
                    "sort: key column {} out of bounds (narrowest tuple width {min_width})",
                    k.col
                )));
            }
        }
    }
    // Extract the key columns once (flattened, `stride` values per row);
    // fixed-width keys cost no allocation per row. When every key column
    // is a native `Int64` column (the candidate-pk sort of the hot join
    // path), the permutation sorts raw `i64`s — no `Value` enum dispatch
    // per comparison. Ties break on the original position either way, so
    // both orders equal the row path's stable sort.
    let stride = keys.len();
    let mut order: Vec<u32> = (0..picks.len() as u32).collect();
    let all_int = keys.iter().all(|k| {
        sources
            .iter()
            .all(|b| matches!(b.col(k.col), Some(Column::Int64(_))))
    });
    if all_int {
        let mut keyints: Vec<i64> = Vec::with_capacity(picks.len() * stride);
        for &(s, r) in &picks {
            let b = &sources[s as usize];
            for k in keys {
                if let Some(Column::Int64(xs)) = b.col(k.col) {
                    keyints.push(xs[r as usize]);
                }
            }
        }
        order.sort_unstable_by(|&i, &j| {
            let a = &keyints[i as usize * stride..i as usize * stride + stride];
            let b = &keyints[j as usize * stride..j as usize * stride + stride];
            for (slot, k) in keys.iter().enumerate() {
                let ord = a[slot].cmp(&b[slot]);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            i.cmp(&j)
        });
    } else {
        let mut keyvals: Vec<Value> = Vec::with_capacity(picks.len() * stride);
        for &(s, r) in &picks {
            let b = &sources[s as usize];
            for k in keys {
                keyvals.push(
                    b.col(k.col)
                        .expect("key column validated above")
                        .value(r as usize),
                );
            }
        }
        order.sort_unstable_by(|&i, &j| {
            let a = &keyvals[i as usize * stride..i as usize * stride + stride];
            let b = &keyvals[j as usize * stride..j as usize * stride + stride];
            for (slot, k) in keys.iter().enumerate() {
                let ord = a[slot].cmp(&b[slot]);
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            i.cmp(&j)
        });
    }
    let groups = WidthGroups::new(sources.iter().map(Arc::as_ref));
    let mut run: Vec<(u32, u32)> = Vec::with_capacity(FRAME_CAPACITY);
    let mut group = 0usize;
    for &i in &order {
        let (s, r) = picks[i as usize];
        let (g, j) = groups.place[s as usize];
        if !run.is_empty() && (g != group || run.len() >= FRAME_CAPACITY) {
            out.emit_batch(groups.gather(group, &run)?)?;
            run.clear();
        }
        group = g;
        run.push((j, r));
    }
    if !run.is_empty() {
        out.emit_batch(groups.gather(group, &run)?)?;
    }
    Ok((*consumed, out.finish()))
}

/// Batch-native hash join. The build side (input 0) keeps its shared
/// batches and indexes `(batch, row)` pairs by key hash; each probe row
/// compares key cells in place, and matches are emitted as a column-wise
/// gather of the build rows beside a gather of the probe rows, so record
/// cells are `Arc` clones on both sides.
fn run_hash_join(
    left_keys: &[usize],
    right_keys: &[usize],
    inputs: &[Receiver<BatchSlice>],
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
) -> Result<(u64, OutCounts), OpError> {
    let mut build: Vec<Arc<Batch>> = Vec::new();
    let mut entries: Vec<(u32, u32)> = Vec::new();
    let mut chains = HashChains::default();
    for slice in recv_slices(&inputs[0], cancel) {
        let slice = slice?;
        *consumed += slice.len() as u64;
        let keys = resolve_cols(&slice.batch, left_keys, "hash-join", "build key")?;
        let b = build.len() as u32;
        for pos in 0..slice.len() {
            let row = slice.row_index(pos);
            chains.push(hash_cells(&keys, row));
            entries.push((b, row as u32));
        }
        build.push(Arc::clone(&slice.batch));
    }
    let build_keys: Vec<Vec<&Column>> = build
        .iter()
        .map(|b| resolve_cols(b, left_keys, "hash-join", "build key"))
        .collect::<Result<_, _>>()?;
    let groups = WidthGroups::new(build.iter().map(Arc::as_ref));
    let mut run = JoinRun::default();
    for slice in recv_slices(&inputs[1], cancel) {
        let slice = slice?;
        *consumed += slice.len() as u64;
        let probe = slice.batch.as_ref();
        let keys = resolve_cols(probe, right_keys, "hash-join", "probe key")?;
        for pos in 0..slice.len() {
            let row = slice.row_index(pos);
            for e in chains.chain(hash_cells(&keys, row)) {
                let (b, r) = entries[e as usize];
                let equal = build_keys[b as usize]
                    .iter()
                    .zip(&keys)
                    .all(|(lc, rc)| lc.cell(r as usize).sql_eq(rc.cell(row)));
                if equal {
                    run.push(&mut out, &groups, probe, (b, r), row)?;
                }
            }
        }
        run.flush(&mut out, &groups, probe)?;
    }
    Ok((*consumed, out.finish()))
}

/// Batch-native nested-loop join. The build side (input 0, the broadcast
/// corner-case rows of the Fig 14 plan) keeps its shared slices. Each
/// probe slice is tested once per build row: that row repeated beside the
/// probe rows forms one batch the predicate runs over in place. Matches
/// go out as `build ++ probe` rows in probe order, build order within a
/// probe row.
fn run_nested_loop_join(
    mut filter: Filter<'_>,
    inputs: &[Receiver<BatchSlice>],
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
    reg: &FunctionRegistry,
) -> Result<(u64, OutCounts), OpError> {
    let build = drain_slices(&inputs[0], cancel)?;
    let mut entries: Vec<(u32, u32)> = Vec::new();
    for (b, slice) in build.iter().enumerate() {
        *consumed += slice.len() as u64;
        entries.extend((0..slice.len()).map(|pos| (b as u32, slice.row_index(pos) as u32)));
    }
    let groups = WidthGroups::new(build.iter().map(|s| s.batch.as_ref()));
    let mut run = JoinRun::default();
    for slice in recv_slices(&inputs[1], cancel) {
        let slice = slice?;
        *consumed += slice.len() as u64;
        if entries.is_empty() {
            continue;
        }
        let n = slice.len();
        let probe = slice.batch.as_ref();
        let all: Vec<usize> = (0..probe.width()).collect();
        let mut probe_cols = Batch::gather(&[probe], &slice_picks(&slice), &all)
            .map_err(OpError::Failed)?
            .into_columns();
        // `(probe position, build entry)` of every accepted pair.
        let mut matches: Vec<(u32, u32)> = Vec::new();
        for (e, &(b, r)) in entries.iter().enumerate() {
            let left = build[b as usize].batch.as_ref();
            let lcols: Vec<usize> = (0..left.width()).collect();
            let mut cols = Batch::gather(&[left], &vec![(0, r); n], &lcols)
                .map_err(OpError::Failed)?
                .into_columns();
            cols.append(&mut probe_cols);
            let pair = Arc::new(Batch::from_columns(n, cols).map_err(OpError::Failed)?);
            let keep = filter.keep(&BatchSlice::full(Arc::clone(&pair)), reg)?;
            matches.extend(keep.into_iter().map(|pos| (pos, e as u32)));
            // Take the probe columns back for the next build row.
            probe_cols = Arc::try_unwrap(pair)
                .unwrap_or_else(|shared| (*shared).clone())
                .into_columns()
                .split_off(lcols.len());
        }
        // Stable: build order survives within each probe row.
        matches.sort_by_key(|&(pos, _)| pos);
        for (pos, e) in matches {
            run.push(
                &mut out,
                &groups,
                probe,
                entries[e as usize],
                slice.row_index(pos as usize),
            )?;
        }
        run.flush(&mut out, &groups, probe)?;
    }
    Ok((*consumed, out.finish()))
}

/// Batch-native hash group-by: key cells are hashed and compared in place,
/// aggregates fold borrowed cells, and only a group's first-seen key is
/// materialized. Groups are emitted in first-seen order.
fn run_hash_group_by(
    keys: &[usize],
    aggs: &[AggSpec],
    input: &Receiver<BatchSlice>,
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
) -> Result<(u64, OutCounts), OpError> {
    let (nk, na) = (keys.len(), aggs.len());
    let agg_cols: Vec<usize> = aggs.iter().filter_map(AggSpec::column).collect();
    // Per group, in first-seen order: `nk` key values and `na` states.
    let mut group_keys: Vec<Value> = Vec::new();
    let mut states: Vec<AggState> = Vec::new();
    let mut chains = HashChains::default();
    for slice in recv_slices(input, cancel) {
        let slice = slice?;
        *consumed += slice.len() as u64;
        let b = slice.batch.as_ref();
        let key_cols = resolve_cols(b, keys, "hash-group-by", "key")?;
        resolve_cols(b, &agg_cols, "hash-group-by", "aggregate")?;
        let spec_cols: Vec<Option<&Column>> = aggs
            .iter()
            .map(|a| a.column().and_then(|c| b.col(c)))
            .collect();
        for pos in 0..slice.len() {
            let row = slice.row_index(pos);
            let h = hash_cells(&key_cols, row);
            let found = chains.chain(h).find(|&g| {
                let stored = &group_keys[g as usize * nk..][..nk];
                key_cols
                    .iter()
                    .zip(stored)
                    .all(|(c, v)| c.cell(row).eq_value(v))
            });
            let g = match found {
                Some(g) => g as usize,
                None => {
                    group_keys.extend(key_cols.iter().map(|c| c.cell(row).to_value()));
                    states.extend(aggs.iter().map(AggState::new));
                    chains.push(h) as usize
                }
            };
            for (state, col) in states[g * na..][..na].iter_mut().zip(&spec_cols) {
                state.update(col.map(|c| c.cell(row)));
            }
        }
    }
    let ngroups = chains.len();
    let mut group_keys = group_keys.into_iter();
    let mut states = states.into_iter();
    for start in (0..ngroups).step_by(FRAME_CAPACITY) {
        let n = (ngroups - start).min(FRAME_CAPACITY);
        let mut cols: Vec<Vec<Value>> = (0..nk + na).map(|_| Vec::with_capacity(n)).collect();
        for _ in 0..n {
            let row = group_keys
                .by_ref()
                .take(nk)
                .chain(states.by_ref().take(na).map(AggState::finish));
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        let cols = cols.into_iter().map(Column::from_values).collect();
        out.emit_batch(Batch::from_columns(n, cols).map_err(OpError::Failed)?)?;
    }
    Ok((*consumed, out.finish()))
}

/// Per-operator-instance token memoization: compile-time tokens for the
/// constant key (selection plans), plus an LRU of runtime-tokenized probe
/// keys (index-nested-loop joins re-probe the same outer keys on every
/// partition). All paths produce tokens via
/// [`asterix_storage::index_tokens`], so memoized and fresh tokenization
/// can never disagree.
struct TokenMemo<'a> {
    pre: Option<&'a PreTokenized>,
    lru: HashMap<Value, (Arc<[Value]>, u64)>,
    clock: u64,
}

impl<'a> TokenMemo<'a> {
    fn new(pre: Option<&'a PreTokenized>) -> Self {
        TokenMemo {
            pre,
            lru: HashMap::new(),
            clock: 0,
        }
    }

    fn tokens(&mut self, kind: IndexKind, key: &Value) -> Arc<[Value]> {
        if let Some(pre) = self.pre {
            if pre.key == *key {
                return pre.tokens.clone();
            }
        }
        self.clock += 1;
        let stamp = self.clock;
        if let Some(slot) = self.lru.get_mut(key) {
            slot.1 = stamp;
            return slot.0.clone();
        }
        let tokens: Arc<[Value]> = asterix_storage::index_tokens(kind, key).into();
        if self.lru.len() >= TOKEN_MEMO_CAPACITY {
            if let Some(victim) = self
                .lru
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.lru.remove(&victim);
            }
        }
        self.lru.insert(key.clone(), (tokens.clone(), stamp));
        tokens
    }
}

/// Candidate primary keys from a secondary index for one search key.
/// T-occurrence merging runs through
/// [`asterix_storage::PartitionStore::inverted_candidates`]: rank-array
/// counting, with the full-intersection gallop when every token must
/// match.
fn index_candidates(
    store: &asterix_storage::PartitionStore,
    index: &str,
    key: &Value,
    measure: &SearchMeasure,
    memo: &mut TokenMemo<'_>,
) -> Result<Vec<Value>, asterix_storage::StorageError> {
    match measure {
        SearchMeasure::Exact => store.btree_lookup(index, key),
        SearchMeasure::Jaccard { delta } => {
            let idx = store
                .secondary(index)
                .and_then(|s| s.as_inverted())
                .ok_or_else(|| {
                    asterix_adm::AdmError::Schema(format!("no inverted index '{index}'"))
                })?;
            let tokens = memo.tokens(idx.kind, key);
            let t = jaccard_t_bound(tokens.len(), *delta);
            if t <= 0 || tokens.is_empty() {
                return Ok(Vec::new());
            }
            store.inverted_candidates(index, &tokens, t as usize)
        }
        SearchMeasure::Contains => {
            let idx = store
                .secondary(index)
                .and_then(|s| s.as_inverted())
                .ok_or_else(|| {
                    asterix_adm::AdmError::Schema(format!("no inverted index '{index}'"))
                })?;
            let n = match idx.kind {
                IndexKind::NGram(n) => n,
                _ => {
                    return Err(asterix_adm::AdmError::Schema(format!(
                        "contains search requires an ngram index, '{index}' is {}",
                        idx.kind.name()
                    ))
                    .into())
                }
            };
            let s = match key.as_str() {
                Some(s) => s,
                None => return Ok(Vec::new()),
            };
            // Patterns shorter than n produce a truncated gram that full
            // strings do not index: the plan must not reach here for
            // them (compile-time corner case).
            let tokens = memo.tokens(idx.kind, key);
            if s.chars().count() < n || tokens.is_empty() {
                return Ok(Vec::new());
            }
            let t = tokens.len();
            store.inverted_candidates(index, &tokens, t)
        }
        SearchMeasure::EditDistance { k } => {
            let idx = store
                .secondary(index)
                .and_then(|s| s.as_inverted())
                .ok_or_else(|| {
                    asterix_adm::AdmError::Schema(format!("no inverted index '{index}'"))
                })?;
            let n = match idx.kind {
                IndexKind::NGram(n) => n,
                _ => {
                    return Err(asterix_adm::AdmError::Schema(format!(
                        "edit-distance search requires an ngram index, '{index}' is {}",
                        idx.kind.name()
                    ))
                    .into())
                }
            };
            if key.as_str().is_none() {
                return Ok(Vec::new());
            }
            // T over *distinct* grams: each edit operation can remove at
            // most n distinct grams from the intersection.
            let tokens = memo.tokens(idx.kind, key);
            let t = edit_distance_t_bound(tokens.len(), *k, n);
            if t <= 0 {
                // Corner case: the plan must route these keys to a scan
                // path (Fig 14); reaching here means the key emits no
                // candidates from the index.
                return Ok(Vec::new());
            }
            store.inverted_candidates(index, &tokens, t as usize)
        }
    }
}
