//! Operator implementations. Each operator instance runs on its own thread
//! for one partition; `run_operator` is its body.
//!
//! Every receive loop and every connector send is *cancel-aware*: instead
//! of blocking indefinitely it polls in short intervals and consults the
//! job's [`CancelToken`], so a failure (or deadline) on any partition
//! unwinds the whole job instead of deadlocking on full or empty channels.

use crate::context::ClusterContext;
use crate::error::{CancelToken, ExecError, OpError};
use crate::job::{AggSpec, ConnectorKind, FaultMode, PhysicalOp, PreTokenized, SearchMeasure};
use crate::tuple::{
    compare_tuples, hash_cells, Batch, BatchSlice, CellRef, Column, Frame, FrameRows, SortKey,
    Tuple, FRAME_CAPACITY,
};
use crate::vectorized::{eval_expr_on_batch, VerifyKernel};
use asterix_adm::{stable_hash_many, IndexKind, Value};
use asterix_simfn::{edit_distance_t_bound, jaccard_t_bound, FxHashMap};
use crossbeam::channel::{Receiver, RecvTimeoutError, SendTimeoutError, Sender, TryRecvError};
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

/// How long a blocked send/receive waits before re-checking the cancel
/// token. Bounds how stale a cancellation can go unnoticed.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Send a frame, polling the cancel token while the channel is full. A
/// disconnected consumer (error or limit downstream) is not an error:
/// dropping the frame is correct either way.
fn send_frame(
    tx: &Sender<Frame>,
    mut frame: Frame,
    cancel: &CancelToken,
) -> Result<(), ExecError> {
    loop {
        cancel.check()?;
        match tx.send_timeout(frame, POLL_INTERVAL) {
            Ok(()) => return Ok(()),
            Err(SendTimeoutError::Timeout(f)) => frame = f,
            Err(SendTimeoutError::Disconnected(_)) => return Ok(()),
        }
    }
}

/// Routes a producer partition's output tuples to the consumer partitions
/// of one edge.
pub struct Router {
    kind: ConnectorKind,
    /// One sender per consumer partition.
    senders: Vec<Sender<Frame>>,
    buffers: Vec<Vec<Tuple>>,
    producer_partition: usize,
    cancel: Arc<CancelToken>,
    frames_sent: u64,
    batch_frames_sent: u64,
    bytes_sent: u64,
}

impl Router {
    /// A router shipping frames to `senders` according to `kind`.
    pub fn new(
        kind: ConnectorKind,
        senders: Vec<Sender<Frame>>,
        producer_partition: usize,
        cancel: Arc<CancelToken>,
    ) -> Self {
        let n = senders.len();
        Router {
            kind,
            senders,
            buffers: (0..n).map(|_| Vec::new()).collect(),
            producer_partition,
            cancel,
            frames_sent: 0,
            batch_frames_sent: 0,
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

    fn push(&mut self, tuple: &Tuple) -> Result<(), ExecError> {
        match &self.kind {
            ConnectorKind::OneToOne => self.buffer(self.producer_partition, tuple.clone()),
            ConnectorKind::ToOne => self.buffer(0, tuple.clone()),
            ConnectorKind::Broadcast => {
                for p in 0..self.senders.len() {
                    self.buffer(p, tuple.clone())?;
                }
                Ok(())
            }
            ConnectorKind::Hash(cols) => {
                let mut keys: Vec<&Value> = Vec::with_capacity(cols.len());
                for c in cols {
                    match tuple.get(*c) {
                        Some(v) => keys.push(v),
                        None => return Err(self.hash_col_error(cols, tuple.len())),
                    }
                }
                let p = (stable_hash_many(&keys) % self.senders.len() as u64) as usize;
                self.buffer(p, tuple.clone())
            }
        }
    }

    /// Route a whole batch slice. Non-hash kinds forward the slice
    /// zero-copy (one `Arc` clone per consumer); hash routing builds one
    /// selection vector per consumer partition over the shared batch.
    /// Buffered row sends to an affected partition are flushed first so
    /// per-consumer ordering is preserved.
    fn push_slice(&mut self, slice: &BatchSlice) -> Result<(), ExecError> {
        match &self.kind {
            ConnectorKind::OneToOne => {
                let p = self.producer_partition;
                self.flush_partition(p)?;
                self.send_counted(p, Frame::Batch(slice.clone()))
            }
            ConnectorKind::ToOne => {
                self.flush_partition(0)?;
                self.send_counted(0, Frame::Batch(slice.clone()))
            }
            ConnectorKind::Broadcast => {
                for p in 0..self.senders.len() {
                    self.flush_partition(p)?;
                    self.send_counted(p, Frame::Batch(slice.clone()))?;
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
                    self.flush_partition(p)?;
                    let sub = if keep.len() == slice.len() {
                        slice.clone()
                    } else {
                        slice.narrow(keep)
                    };
                    self.send_counted(p, Frame::Batch(sub))?;
                }
                Ok(())
            }
        }
    }

    fn buffer(&mut self, partition: usize, tuple: Tuple) -> Result<(), ExecError> {
        let buf = &mut self.buffers[partition];
        buf.push(tuple);
        if buf.len() >= FRAME_CAPACITY {
            self.send_buffered(partition)?;
        }
        Ok(())
    }

    fn flush_partition(&mut self, partition: usize) -> Result<(), ExecError> {
        if !self.buffers[partition].is_empty() {
            self.send_buffered(partition)?;
        }
        Ok(())
    }

    /// Ship the buffered row frame of one consumer partition.
    fn send_buffered(&mut self, partition: usize) -> Result<(), ExecError> {
        let rows = std::mem::take(&mut self.buffers[partition]);
        self.send_counted(partition, Frame::Rows(rows))
    }

    /// Count and ship one frame, charging the memory budget.
    fn send_counted(&mut self, partition: usize, frame: Frame) -> Result<(), ExecError> {
        self.frames_sent += 1;
        if matches!(frame, Frame::Batch(_)) {
            self.batch_frames_sent += 1;
        }
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
        send_frame(&self.senders[partition], frame, &self.cancel)
    }

    fn flush(&mut self) -> Result<(), ExecError> {
        for p in 0..self.senders.len() {
            self.flush_partition(p)?;
        }
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
    /// Of those, frames carrying a shared batch slice (zero-copy sends).
    pub batch_frames: u64,
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

    /// Push one tuple down every outgoing edge.
    pub fn push(&mut self, tuple: Tuple) -> Result<(), ExecError> {
        self.produced += 1;
        if let Some(p) = &self.live {
            p.add_out(1);
        }
        for r in &mut self.routers {
            r.push(&tuple)?;
        }
        Ok(())
    }

    /// Push a whole batch slice down every outgoing edge (zero-copy for
    /// non-hash connectors).
    pub fn push_slice(&mut self, slice: &BatchSlice) -> Result<(), ExecError> {
        self.produced += slice.len() as u64;
        if let Some(p) = &self.live {
            p.add_out(slice.len() as u64);
        }
        for r in &mut self.routers {
            r.push_slice(slice)?;
        }
        Ok(())
    }

    /// Flush remaining buffers and close the streams, returning counts.
    pub fn finish(mut self) -> Result<OutCounts, ExecError> {
        for r in &mut self.routers {
            r.flush()?;
        }
        Ok(OutCounts {
            tuples: self.produced,
            frames: self.routers.iter().map(|r| r.frames_sent).sum(),
            batch_frames: self.routers.iter().map(|r| r.batch_frames_sent).sum(),
            bytes: self.routers.iter().map(|r| r.bytes_sent).sum(),
        })
        // Senders drop here, signalling end-of-stream downstream.
    }
}

/// Cancel-aware frame stream over one input edge. Yields `Err` once the
/// job's cancel token trips; ends cleanly on upstream disconnect.
struct FrameStream<'a> {
    rx: &'a Receiver<Frame>,
    cancel: &'a CancelToken,
    done: bool,
}

impl Iterator for FrameStream<'_> {
    type Item = Result<Frame, ExecError>;

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

fn recv_frames<'a>(rx: &'a Receiver<Frame>, cancel: &'a CancelToken) -> FrameStream<'a> {
    FrameStream {
        rx,
        cancel,
        done: false,
    }
}

/// Cancel-aware tuple stream over one input edge: frames of either
/// variant, materialized row by row.
struct TupleStream<'a> {
    frames: FrameStream<'a>,
    frame: FrameRows,
}

impl Iterator for TupleStream<'_> {
    type Item = Result<Tuple, ExecError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(t) = self.frame.next() {
                return Some(Ok(t));
            }
            match self.frames.next()? {
                Ok(frame) => self.frame = frame.into_rows(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

fn recv_tuples<'a>(rx: &'a Receiver<Frame>, cancel: &'a CancelToken) -> TupleStream<'a> {
    TupleStream {
        frames: recv_frames(rx, cancel),
        frame: FrameRows::empty(),
    }
}

fn drain_all(rx: &Receiver<Frame>, cancel: &CancelToken) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    for t in recv_tuples(rx, cancel) {
        out.push(t?);
    }
    Ok(out)
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

/// Per-operator feature toggles, threaded from
/// [`crate::exec::JobOptions`]. Both default to off (all optimizations
/// on); the bench harness flips them to measure against true baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpFlags {
    /// Switch the index-search/primary-lookup operators back to their
    /// per-tuple implementations (no batched lookups, no probe-token
    /// memoization). Results are identical either way.
    pub disable_hotpath: bool,
    /// Revert to the seed row-at-a-time execution: no batch frames, no
    /// vectorized verify kernels, no rank-array T-occurrence. Results are
    /// identical either way.
    pub disable_batching: bool,
    /// Keep batch execution but pin the scalar similarity kernels: banded
    /// DP instead of Myers bit-parallel edit distance, rank/count
    /// T-occurrence merging instead of the full-intersection gallop.
    /// Results are identical either way.
    pub disable_kernels: bool,
}

/// Split one input frame into batch slices for a batch-native operator:
/// batch frames pass through; row frames are re-batched by moving their
/// values (no clone), and a ragged row frame becomes one batch per row.
fn frame_slices(frame: Frame) -> Vec<BatchSlice> {
    match frame {
        Frame::Batch(slice) => vec![slice],
        Frame::Rows(rows) => match Batch::from_rows(rows) {
            Ok(b) => vec![BatchSlice::full(Arc::new(b))],
            Err(rows) => rows
                .into_iter()
                .filter_map(|r| Batch::from_rows(vec![r]).ok())
                .map(|b| BatchSlice::full(Arc::new(b)))
                .collect(),
        },
    }
}

/// Hand one output batch of a batch-native operator to `out`: as a
/// zero-copy slice, or — under `disable_batching`, which promises no batch
/// frame on any edge — as materialized rows.
fn emit_batch(out: &mut Out, batch: Batch, as_rows: bool) -> Result<(), ExecError> {
    if batch.is_empty() {
        return Ok(());
    }
    if as_rows {
        for i in 0..batch.len() {
            out.push(batch.row(i))?;
        }
        return Ok(());
    }
    out.push_slice(&BatchSlice::full(Arc::new(batch)))
}

/// `(source 0, row)` picks of a slice's visible rows, for [`Batch::gather`].
fn slice_picks(slice: &BatchSlice) -> Vec<(u32, u32)> {
    (0..slice.len())
        .map(|pos| (0, slice.row_index(pos) as u32))
        .collect()
}

/// The visible rows of a slice as a batch the caller owns: the batch
/// itself when the slice is whole and unshared (a re-batched row frame),
/// otherwise a column-wise gather (record cells as `Arc` clones).
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

/// Emit accumulated rows as one batch frame; ragged rows (never produced
/// by well-formed operators) degrade to a plain row frame.
fn push_rows_batched(out: &mut Out, rows: &mut Vec<Tuple>) -> Result<(), ExecError> {
    if rows.is_empty() {
        return Ok(());
    }
    match Frame::batch_from_rows(std::mem::take(rows)) {
        Frame::Batch(slice) => out.push_slice(&slice),
        Frame::Rows(rows) => {
            for t in rows {
                out.push(t)?;
            }
            Ok(())
        }
    }
}

/// Typed column access for operators (replaces panicking `t[c]`).
fn col_ref<'t>(t: &'t Tuple, c: usize, op: &str) -> Result<&'t Value, OpError> {
    t.get(c).ok_or_else(|| {
        OpError::Failed(format!(
            "{op}: column {c} out of bounds for tuple of width {}",
            t.len()
        ))
    })
}

/// Forward one frame unchanged (batch slices stay zero-copy).
fn forward_frame(out: &mut Out, frame: Frame, consumed: &mut u64) -> Result<(), ExecError> {
    match frame {
        Frame::Batch(slice) => {
            *consumed += slice.len() as u64;
            out.push_slice(&slice)
        }
        Frame::Rows(rows) => {
            for t in rows {
                *consumed += 1;
                out.push(t)?;
            }
            Ok(())
        }
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
/// [`OpFlags`] switches the hot paths and batch execution back to the
/// seed per-tuple implementations (the bench harness's before/after
/// toggles); results are identical either way.
#[allow(clippy::too_many_arguments)]
pub fn run_operator(
    op: &PhysicalOp,
    partition: usize,
    inputs: Vec<Receiver<Frame>>,
    out: Out,
    ctx: &ClusterContext,
    cancel: &CancelToken,
    sink: SinkTarget<'_>,
    flags: OpFlags,
) -> Result<(u64, OutCounts), OpError> {
    let reg = &ctx.registry;
    let mut consumed: u64 = 0;
    match op {
        PhysicalOp::EmptySource => {
            let mut out = out;
            if partition == 0 {
                out.push(Vec::new())?;
            }
            Ok((0, out.finish()?))
        }
        PhysicalOp::DatasetScan { dataset } => {
            let mut out = out;
            let set = ctx.partitions[partition].read();
            let store = set
                .store(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
            if flags.disable_batching {
                for item in store.primary().scan() {
                    let (pk, rec) = item?;
                    out.push(vec![pk, rec])?;
                }
            } else {
                let mut pending: Vec<Tuple> = Vec::with_capacity(FRAME_CAPACITY);
                for item in store.primary().scan() {
                    let (pk, rec) = item?;
                    pending.push(vec![pk, rec]);
                    if pending.len() >= FRAME_CAPACITY {
                        push_rows_batched(&mut out, &mut pending)?;
                    }
                }
                push_rows_batched(&mut out, &mut pending)?;
            }
            Ok((0, out.finish()?))
        }
        PhysicalOp::Select { predicate } => {
            let mut out = out;
            let mut kernel = if flags.disable_batching {
                None
            } else {
                VerifyKernel::compile_with(predicate, !flags.disable_kernels)
            };
            for frame in recv_frames(&inputs[0], cancel) {
                match frame? {
                    Frame::Rows(rows) => {
                        for t in rows {
                            consumed += 1;
                            if predicate.eval(&t, reg)?.is_true() {
                                out.push(t)?;
                            }
                        }
                    }
                    Frame::Batch(slice) => {
                        consumed += slice.len() as u64;
                        let keep = match kernel.as_mut() {
                            Some(k) => k.eval_slice(&slice, reg)?,
                            None => {
                                let mut keep = Vec::new();
                                for pos in 0..slice.len() {
                                    if predicate.eval(&slice.row(pos), reg)?.is_true() {
                                        keep.push(pos as u32);
                                    }
                                }
                                keep
                            }
                        };
                        if !keep.is_empty() {
                            let sub = if keep.len() == slice.len() {
                                slice
                            } else {
                                slice.narrow(keep)
                            };
                            out.push_slice(&sub)?;
                        }
                    }
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Assign { exprs } => {
            let mut out = out;
            if flags.disable_batching {
                for t in recv_tuples(&inputs[0], cancel) {
                    let mut t = t?;
                    consumed += 1;
                    let vals: Vec<Value> = exprs
                        .iter()
                        .map(|e| e.eval(&t, reg))
                        .collect::<Result<_, _>>()?;
                    t.extend(vals);
                    out.push(t)?;
                }
                return Ok((consumed, out.finish()?));
            }
            for frame in recv_frames(&inputs[0], cancel) {
                match frame? {
                    Frame::Batch(slice) => {
                        consumed += slice.len() as u64;
                        if slice.is_empty() {
                            continue;
                        }
                        // Keep the input columns shared (record cells stay
                        // behind their `Arc`s) and append one value column
                        // per expression, evaluated straight against the
                        // batch so field access never deep-clones a record.
                        let src = slice.batch.as_ref();
                        let all: Vec<usize> = (0..src.width()).collect();
                        let mut b = Batch::gather(&[src], &slice_picks(&slice), &all)
                            .map_err(|e| OpError::Failed(format!("assign: {e}")))?;
                        for e in exprs {
                            let mut vals = Vec::with_capacity(slice.len());
                            for pos in 0..slice.len() {
                                vals.push(eval_expr_on_batch(
                                    e,
                                    src,
                                    slice.row_index(pos),
                                    reg,
                                )?);
                            }
                            b.push_col(Column::from_values(vals))
                                .map_err(|e| OpError::Failed(format!("assign: {e}")))?;
                        }
                        out.push_slice(&BatchSlice::full(Arc::new(b)))?;
                    }
                    Frame::Rows(rows) => {
                        for mut t in rows {
                            consumed += 1;
                            let vals: Vec<Value> = exprs
                                .iter()
                                .map(|e| e.eval(&t, reg))
                                .collect::<Result<_, _>>()?;
                            t.extend(vals);
                            out.push(t)?;
                        }
                    }
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Project { cols } => {
            let mut out = out;
            if flags.disable_batching {
                for t in recv_tuples(&inputs[0], cancel) {
                    let t = t?;
                    consumed += 1;
                    let mut row = Vec::with_capacity(cols.len());
                    for c in cols {
                        row.push(col_ref(&t, *c, "project")?.clone());
                    }
                    out.push(row)?;
                }
                return Ok((consumed, out.finish()?));
            }
            // Batch path: gather only the projected columns — dropped
            // columns (most importantly the full record after the verify)
            // are never materialized row-wise at all.
            for frame in recv_frames(&inputs[0], cancel) {
                match frame? {
                    Frame::Batch(slice) => {
                        consumed += slice.len() as u64;
                        if slice.is_empty() {
                            continue;
                        }
                        let b = Batch::gather(&[slice.batch.as_ref()], &slice_picks(&slice), cols)
                            .map_err(|e| OpError::Failed(format!("project: {e}")))?;
                        out.push_slice(&BatchSlice::full(Arc::new(b)))?;
                    }
                    Frame::Rows(rows) => {
                        for t in rows {
                            consumed += 1;
                            let mut row = Vec::with_capacity(cols.len());
                            for c in cols {
                                row.push(col_ref(&t, *c, "project")?.clone());
                            }
                            out.push(row)?;
                        }
                    }
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Sort { keys } => {
            let mut out = out;
            if flags.disable_batching {
                let mut all = drain_all(&inputs[0], cancel)?;
                consumed = all.len() as u64;
                // Validate key columns up front: `compare_tuples` indexes
                // directly, so a malformed plan must fail typed, not panic.
                let min_width = all.iter().map(Vec::len).min().unwrap_or(0);
                if !all.is_empty() {
                    for k in keys {
                        if k.col >= min_width {
                            return Err(OpError::Failed(format!(
                                "sort: key column {} out of bounds (narrowest tuple width {min_width})",
                                k.col
                            )));
                        }
                    }
                }
                all.sort_by(|a, b| compare_tuples(a, b, keys));
                for t in all {
                    out.push(t)?;
                }
                return Ok((consumed, out.finish()?));
            }
            run_batch_sort(keys, &inputs[0], out, cancel, &mut consumed)
        }
        PhysicalOp::HashJoin {
            left_keys,
            right_keys,
        } => run_hash_join(
            left_keys,
            right_keys,
            &inputs,
            out,
            cancel,
            &mut consumed,
            flags.disable_batching,
        ),
        PhysicalOp::NestedLoopJoin { predicate } => {
            let mut out = out;
            let left = drain_all(&inputs[0], cancel)?;
            consumed += left.len() as u64;
            for rt in recv_tuples(&inputs[1], cancel) {
                let rt = rt?;
                consumed += 1;
                for lt in &left {
                    let mut combined = lt.clone();
                    combined.extend(rt.iter().cloned());
                    if predicate.eval(&combined, reg)?.is_true() {
                        out.push(combined)?;
                    }
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::HashGroupBy { keys, aggs } => run_hash_group_by(
            keys,
            aggs,
            &inputs[0],
            out,
            cancel,
            &mut consumed,
            flags.disable_batching,
        ),
        PhysicalOp::Unnest { expr, with_pos } => {
            let mut out = out;
            let mut refs = Vec::new();
            expr.referenced_columns(&mut refs);
            for frame in recv_frames(&inputs[0], cancel) {
                for slice in frame_slices(frame?) {
                    consumed += slice.len() as u64;
                    let src = slice.batch.as_ref();
                    resolve_cols(src, &refs, "unnest", "expression")?;
                    // One output row per list item: the input row repeated
                    // by gather (record cells stay behind their `Arc`s),
                    // plus the item and, optionally, its position.
                    let mut picks: Vec<(u32, u32)> = Vec::new();
                    let mut items: Vec<Value> = Vec::new();
                    let mut positions: Vec<i64> = Vec::new();
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
                                positions.push(i as i64);
                            }
                        }
                    }
                    let all: Vec<usize> = (0..src.width()).collect();
                    let mut items = items.into_iter();
                    let mut positions = positions.into_iter();
                    for chunk in picks.chunks(FRAME_CAPACITY) {
                        let mut b = Batch::gather(&[src], chunk, &all).map_err(OpError::Failed)?;
                        b.push_col(Column::from_values(
                            items.by_ref().take(chunk.len()).collect(),
                        ))
                        .map_err(OpError::Failed)?;
                        if *with_pos {
                            b.push_col(Column::Int64(
                                positions.by_ref().take(chunk.len()).collect(),
                            ))
                            .map_err(OpError::Failed)?;
                        }
                        emit_batch(&mut out, b, flags.disable_batching)?;
                    }
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::StreamPos => {
            let mut out = out;
            let mut next: i64 = 0;
            for frame in recv_frames(&inputs[0], cancel) {
                for slice in frame_slices(frame?) {
                    consumed += slice.len() as u64;
                    if slice.is_empty() {
                        continue;
                    }
                    let mut b = owned_rows(slice).map_err(OpError::Failed)?;
                    let n = b.len() as i64;
                    b.push_col(Column::Int64((next..next + n).collect()))
                        .map_err(OpError::Failed)?;
                    next += n;
                    emit_batch(&mut out, b, flags.disable_batching)?;
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::SecondaryIndexSearch {
            dataset,
            index,
            key_col,
            measure,
            pre_tokens,
        } => {
            let mut out = out;
            let set = ctx.partitions[partition].read();
            let store = set
                .store(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
            let mut memo = TokenMemo::new(
                pre_tokens.as_ref(),
                if flags.disable_hotpath {
                    0
                } else {
                    TOKEN_MEMO_CAPACITY
                },
            );
            // The ranked candidate path delivers postings as interned
            // `u32` rank arrays merged by the vectorized T-occurrence
            // kernels; candidates (and their order) are identical.
            let ranked = !flags.disable_batching;
            // Candidate rows repeat the probe tuple once per candidate:
            // build them column-wise, so each repeat costs arena/vector
            // appends instead of a cloned tuple plus a transpose.
            let mut builder: Option<crate::tuple::BatchBuilder> = None;
            for t in recv_tuples(&inputs[0], cancel) {
                let t = t?;
                consumed += 1;
                let key = col_ref(&t, *key_col, "secondary-index-search")?;
                let candidates = index_candidates(
                    store,
                    index,
                    key,
                    measure,
                    &mut memo,
                    ranked,
                    !flags.disable_kernels,
                )?;
                if flags.disable_batching {
                    for pk in candidates {
                        let mut row = t.clone();
                        row.push(pk);
                        out.push(row)?;
                    }
                    continue;
                }
                // A probe width change (ragged upstream) flushes the
                // accumulated batch and restarts at the new width.
                if let Some(prev) = builder
                    .as_mut()
                    .filter(|b| b.width() != t.len() + 1)
                    .and_then(|b| b.take_batch())
                {
                    out.push_slice(&BatchSlice::full(Arc::new(prev)))?;
                }
                if builder.as_ref().is_some_and(|b| b.width() != t.len() + 1) {
                    builder = None;
                }
                let b = builder
                    .get_or_insert_with(|| crate::tuple::BatchBuilder::new(t.len() + 1));
                for pk in candidates {
                    b.push_row(t.iter().chain(std::iter::once(&pk)))
                        .map_err(OpError::Failed)?;
                    if b.len() >= FRAME_CAPACITY {
                        if let Some(batch) = b.take_batch() {
                            out.push_slice(&BatchSlice::full(Arc::new(batch)))?;
                        }
                    }
                }
            }
            if let Some(batch) = builder.as_mut().and_then(|b| b.take_batch()) {
                out.push_slice(&BatchSlice::full(Arc::new(batch)))?;
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::PrimaryIndexLookup { dataset, pk_col } => {
            let mut out = out;
            let set = ctx.partitions[partition].read();
            let store = set
                .store(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
            if flags.disable_hotpath {
                // Per-tuple point lookups (the pre-batching behavior).
                for t in recv_tuples(&inputs[0], cancel) {
                    let t = t?;
                    consumed += 1;
                    if let Some(rec) = store.primary().get(col_ref(&t, *pk_col, "primary-index-lookup")?)? {
                        let mut row = t;
                        row.push(rec);
                        out.push(row)?;
                    }
                }
                return Ok((consumed, out.finish()?));
            }
            if flags.disable_batching {
                // Drain a frame's worth of candidates, resolve their pks
                // as one sorted deduped batch (one merged pass per LSM
                // component, §4.1.1), then re-emit in input order.
                let mut stream = recv_tuples(&inputs[0], cancel);
                let mut batch: Vec<Tuple> = Vec::with_capacity(FRAME_CAPACITY);
                // Operator-lifetime sort scratch: `batch` drains in place
                // and `pks` clears, so steady-state batches reuse both
                // allocations instead of growing fresh buffers per batch.
                let mut pks: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
                loop {
                    let mut ended = true;
                    for t in stream.by_ref() {
                        batch.push(t?);
                        consumed += 1;
                        if batch.len() >= FRAME_CAPACITY {
                            ended = false;
                            break;
                        }
                    }
                    if !batch.is_empty() {
                        pks.clear();
                        for t in &batch {
                            pks.push(col_ref(t, *pk_col, "primary-index-lookup")?.clone());
                        }
                        pks.sort();
                        pks.dedup();
                        let records = store.primary().get_many_sorted(&pks)?;
                        for mut t in batch.drain(..) {
                            let i = match pks.binary_search(&t[*pk_col]) {
                                Ok(i) => i,
                                Err(_) => {
                                    return Err(OpError::Failed(
                                        "primary-index-lookup: key vanished from its own batch"
                                            .to_string(),
                                    ))
                                }
                            };
                            if let Some(rec) = &records[i] {
                                t.push(rec.clone());
                                out.push(t)?;
                            }
                        }
                    }
                    if ended {
                        break;
                    }
                }
                return Ok((consumed, out.finish()?));
            }
            // Batch path: each incoming slice is one sorted, deduped
            // multi-get (same merged pass per LSM component, §4.1.1); the
            // fetched records ride along as a *shared* column, so a record
            // referenced by many candidate rows is deep-copied zero times
            // — every row holds an `Arc` to the single fetched value.
            let mut pks: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
            let mut sorted: Vec<Value> = Vec::with_capacity(FRAME_CAPACITY);
            let mut pending: Vec<Tuple> = Vec::new();
            for frame in recv_frames(&inputs[0], cancel) {
                match frame? {
                    Frame::Batch(slice) => {
                        consumed += slice.len() as u64;
                        if slice.is_empty() {
                            continue;
                        }
                        let col = slice.batch.col(*pk_col).ok_or_else(|| {
                            OpError::Failed(format!(
                                "primary-index-lookup: column {pk_col} out of bounds for batch of width {}",
                                slice.batch.width()
                            ))
                        })?;
                        pks.clear();
                        for pos in 0..slice.len() {
                            pks.push(col.value(slice.row_index(pos)));
                        }
                        sorted.clear();
                        sorted.extend(pks.iter().cloned());
                        sorted.sort();
                        sorted.dedup();
                        let records = store.primary().get_many_sorted(&sorted)?;
                        let shared: Vec<Option<Arc<Value>>> =
                            records.into_iter().map(|o| o.map(Arc::new)).collect();
                        let mut keep: Vec<(u32, u32)> = Vec::with_capacity(pks.len());
                        let mut recs: Vec<Arc<Value>> = Vec::with_capacity(pks.len());
                        for (pos, pk) in pks.iter().enumerate() {
                            let i = sorted.binary_search(pk).map_err(|_| {
                                OpError::Failed(
                                    "primary-index-lookup: key vanished from its own batch"
                                        .to_string(),
                                )
                            })?;
                            if let Some(rec) = &shared[i] {
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
                        out.push_slice(&BatchSlice::full(Arc::new(b)))?;
                    }
                    Frame::Rows(rows) => {
                        // Row frames (non-rectangular upstreams) still get
                        // the one-multi-get-per-frame treatment.
                        consumed += rows.len() as u64;
                        sorted.clear();
                        for t in &rows {
                            sorted.push(col_ref(t, *pk_col, "primary-index-lookup")?.clone());
                        }
                        sorted.sort();
                        sorted.dedup();
                        let records = store.primary().get_many_sorted(&sorted)?;
                        for mut t in rows {
                            let i = sorted.binary_search(&t[*pk_col]).map_err(|_| {
                                OpError::Failed(
                                    "primary-index-lookup: key vanished from its own batch"
                                        .to_string(),
                                )
                            })?;
                            if let Some(rec) = &records[i] {
                                t.push(rec.clone());
                                pending.push(t);
                                if pending.len() >= FRAME_CAPACITY {
                                    push_rows_batched(&mut out, &mut pending)?;
                                }
                            }
                        }
                    }
                }
            }
            push_rows_batched(&mut out, &mut pending)?;
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Union => {
            // Round-robin over all open inputs rather than draining them in
            // order: with bounded edge channels, sequential draining can
            // deadlock when several inputs share an upstream producer (the
            // producer blocks on the un-drained branch).
            let mut out = out;
            let mut open: Vec<Option<&Receiver<Frame>>> = inputs.iter().map(Some).collect();
            let mut remaining = open.len();
            while remaining > 0 {
                cancel.check()?;
                let mut received = false;
                for slot in open.iter_mut() {
                    let Some(rx) = slot else { continue };
                    match rx.try_recv() {
                        Ok(frame) => {
                            received = true;
                            forward_frame(&mut out, frame, &mut consumed)?;
                        }
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => {
                            *slot = None;
                            remaining -= 1;
                        }
                    }
                }
                if !received && remaining > 0 {
                    // Nothing ready on any input: park briefly on the first
                    // open one instead of spinning.
                    if let Some(rx) = open.iter().flatten().next() {
                        match rx.recv_timeout(POLL_INTERVAL) {
                            Ok(frame) => {
                                forward_frame(&mut out, frame, &mut consumed)?;
                            }
                            Err(RecvTimeoutError::Timeout)
                            | Err(RecvTimeoutError::Disconnected) => {}
                        }
                    }
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Materialize => {
            let mut out = out;
            let all = drain_all(&inputs[0], cancel)?;
            consumed = all.len() as u64;
            for t in all {
                out.push(t)?;
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Limit { n } => {
            let mut out = out;
            let mut taken = 0usize;
            for t in recv_tuples(&inputs[0], cancel) {
                let t = t?;
                consumed += 1;
                if taken < *n {
                    taken += 1;
                    out.push(t)?;
                }
                if taken >= *n {
                    break; // stop reading; upstream sends are dropped
                }
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::Throttle { micros_per_tuple } => {
            // Test-support: forward tuples at a bounded rate, re-checking
            // the cancel token every couple of milliseconds so deadlines
            // are honored mid-sleep.
            let mut out = out;
            for t in recv_tuples(&inputs[0], cancel) {
                let t = t?;
                consumed += 1;
                let mut remaining = *micros_per_tuple;
                while remaining > 0 {
                    cancel.check()?;
                    let slice = remaining.min(2_000);
                    std::thread::sleep(Duration::from_micros(slice));
                    remaining -= slice;
                }
                out.push(t)?;
            }
            Ok((consumed, out.finish()?))
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
            let mut out = out;
            for t in recv_tuples(&inputs[0], cancel) {
                let t = t?;
                consumed += 1;
                if partition == *fail_partition && consumed > *after_tuples {
                    inject_fault(mode, partition)?;
                }
                out.push(t)?;
            }
            if partition == *fail_partition {
                inject_fault(mode, partition)?;
            }
            Ok((consumed, out.finish()?))
        }
        PhysicalOp::ResultSink => {
            match sink {
                SinkTarget::Buffer(buf) => {
                    let collected = drain_all(&inputs[0], cancel)?;
                    consumed = collected.len() as u64;
                    buf.lock().extend(collected);
                }
                SinkTarget::Stream(s) => {
                    // Deliver frame by frame: the client sees rows as
                    // upstream operators produce them, and a delivery
                    // failure (client gone) cancels the job via the
                    // normal operator-error path.
                    for frame in recv_frames(&inputs[0], cancel) {
                        let rows: Vec<Tuple> = frame?.into_rows().collect();
                        consumed += rows.len() as u64;
                        s.deliver(rows).map_err(OpError::Failed)?;
                    }
                }
            }
            out.finish()?;
            // The sink "emits" its rows to the client, not to a channel.
            Ok((
                consumed,
                OutCounts {
                    tuples: consumed,
                    frames: 0,
                    batch_frames: 0,
                    bytes: 0,
                },
            ))
        }
    }
}

fn inject_fault(mode: &FaultMode, partition: usize) -> Result<(), OpError> {
    match mode {
        FaultMode::Panic => panic!("injected panic on partition {partition}"),
        FaultMode::Error => Err(OpError::Failed(format!(
            "injected operator failure on partition {partition}"
        ))),
    }
}

/// Batch-aware sort: instead of materializing every batch row as an owned
/// tuple, keep the received batches shared, extract only the key columns,
/// sort a row permutation, and gather the output column-wise into fresh
/// batch frames. Output rows and their order are identical to the row
/// path: both sort stably by the same key columns, so ties keep arrival
/// order.
///
/// Row frames (and ragged ones) degrade gracefully: rectangular row
/// frames are re-batched in place, anything else falls back to the fully
/// materialized row sort.
fn run_batch_sort(
    keys: &[SortKey],
    input: &Receiver<Frame>,
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
) -> Result<(u64, OutCounts), OpError> {
    let mut sources: Vec<Arc<Batch>> = Vec::new();
    let mut picks: Vec<(u32, u32)> = Vec::new();
    // Engaged on the first ragged row frame: everything seen so far is
    // materialized and the operator continues row-at-a-time.
    let mut fallback: Option<Vec<Tuple>> = None;
    for frame in recv_frames(input, cancel) {
        let frame = frame?;
        *consumed += frame.len() as u64;
        if let Some(rows) = fallback.as_mut() {
            rows.extend(frame.into_rows());
            continue;
        }
        let slice = match frame {
            Frame::Batch(slice) => slice,
            Frame::Rows(rows) => match Batch::from_rows(rows) {
                Ok(b) => BatchSlice::full(Arc::new(b)),
                Err(rows) => {
                    let mut all: Vec<Tuple> = picks
                        .iter()
                        .map(|&(s, r)| sources[s as usize].row(r as usize))
                        .collect();
                    all.extend(rows);
                    fallback = Some(all);
                    continue;
                }
            },
        };
        if sources
            .first()
            .is_some_and(|b| b.width() != slice.batch.width())
        {
            // Mixed widths across frames: the row sort handles these (it
            // only indexes the key columns), so degrade to it.
            let mut all: Vec<Tuple> = picks
                .iter()
                .map(|&(s, r)| sources[s as usize].row(r as usize))
                .collect();
            all.extend((0..slice.len()).map(|pos| slice.row(pos)));
            fallback = Some(all);
            continue;
        }
        let src = sources.len() as u32;
        for pos in 0..slice.len() {
            picks.push((src, slice.row_index(pos) as u32));
        }
        sources.push(Arc::clone(&slice.batch));
    }
    if let Some(mut all) = fallback {
        let min_width = all.iter().map(Vec::len).min().unwrap_or(0);
        if !all.is_empty() {
            for k in keys {
                if k.col >= min_width {
                    return Err(OpError::Failed(format!(
                        "sort: key column {} out of bounds (narrowest tuple width {min_width})",
                        k.col
                    )));
                }
            }
        }
        all.sort_by(|a, b| compare_tuples(a, b, keys));
        for t in all {
            out.push(t)?;
        }
        return Ok((*consumed, out.finish()?));
    }
    // Validate key columns once per source batch, mirroring the row
    // path's typed error for malformed plans.
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
    let srcs: Vec<&Batch> = sources.iter().map(Arc::as_ref).collect();
    let width = srcs.first().map_or(0, |b| b.width());
    let all_cols: Vec<usize> = (0..width).collect();
    let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(FRAME_CAPACITY);
    for part in order.chunks(FRAME_CAPACITY) {
        chunk.clear();
        chunk.extend(part.iter().map(|&i| picks[i as usize]));
        let b = Batch::gather(&srcs, &chunk, &all_cols).map_err(OpError::Failed)?;
        out.push_slice(&BatchSlice::full(Arc::new(b)))?;
    }
    Ok((*consumed, out.finish()?))
}

/// Batch-native hash join. The build side (input 0) keeps its shared
/// batches and indexes `(batch, row)` pairs by key hash; each probe row
/// compares key cells in place, and matches are emitted as a column-wise
/// gather of the build rows beside a gather of the probe rows, so record
/// cells are `Arc` clones on both sides.
fn run_hash_join(
    left_keys: &[usize],
    right_keys: &[usize],
    inputs: &[Receiver<Frame>],
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
    rows_out: bool,
) -> Result<(u64, OutCounts), OpError> {
    let mut build: Vec<Arc<Batch>> = Vec::new();
    let mut entries: Vec<(u32, u32)> = Vec::new();
    let mut chains = HashChains::default();
    for frame in recv_frames(&inputs[0], cancel) {
        for slice in frame_slices(frame?) {
            *consumed += slice.len() as u64;
            if slice.is_empty() {
                continue;
            }
            let keys = resolve_cols(&slice.batch, left_keys, "hash-join", "build key")?;
            let b = build.len() as u32;
            for pos in 0..slice.len() {
                let row = slice.row_index(pos);
                chains.push(hash_cells(&keys, row));
                entries.push((b, row as u32));
            }
            build.push(Arc::clone(&slice.batch));
        }
    }
    let build_keys: Vec<Vec<&Column>> = build
        .iter()
        .map(|b| resolve_cols(b, left_keys, "hash-join", "build key"))
        .collect::<Result<_, _>>()?;
    // Build batches grouped by width, so one output gather never mixes
    // widths (only a ragged upstream produces more than one group).
    let mut groups: Vec<Vec<&Batch>> = Vec::new();
    let mut place: Vec<(usize, u32)> = Vec::with_capacity(build.len());
    for b in &build {
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
    let mut left: Vec<(u32, u32)> = Vec::with_capacity(FRAME_CAPACITY);
    let mut right: Vec<(u32, u32)> = Vec::with_capacity(FRAME_CAPACITY);
    let mut group = 0usize;
    for frame in recv_frames(&inputs[1], cancel) {
        for slice in frame_slices(frame?) {
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
                    if !equal {
                        continue;
                    }
                    let (g, i) = place[b as usize];
                    if g != group || left.len() >= FRAME_CAPACITY {
                        emit_join(&mut out, &groups, group, &mut left, probe, &mut right, rows_out)?;
                        group = g;
                    }
                    left.push((i, r));
                    right.push((0, row as u32));
                }
            }
            emit_join(&mut out, &groups, group, &mut left, probe, &mut right, rows_out)?;
        }
    }
    Ok((*consumed, out.finish()?))
}

/// Emit the pending hash-join matches: build rows `left` (picks into
/// `groups[group]`) beside probe rows `right`, concatenated column-wise.
fn emit_join(
    out: &mut Out,
    groups: &[Vec<&Batch>],
    group: usize,
    left: &mut Vec<(u32, u32)>,
    probe: &Batch,
    right: &mut Vec<(u32, u32)>,
    rows_out: bool,
) -> Result<(), OpError> {
    if left.is_empty() {
        return Ok(());
    }
    let srcs = &groups[group];
    let lcols: Vec<usize> = (0..srcs[0].width()).collect();
    let rcols: Vec<usize> = (0..probe.width()).collect();
    let mut cols = Batch::gather(srcs, left, &lcols)
        .map_err(OpError::Failed)?
        .into_columns();
    cols.extend(
        Batch::gather(&[probe], right, &rcols)
            .map_err(OpError::Failed)?
            .into_columns(),
    );
    let b = Batch::from_columns(left.len(), cols).map_err(OpError::Failed)?;
    left.clear();
    right.clear();
    emit_batch(out, b, rows_out)?;
    Ok(())
}

/// Batch-native hash group-by: key cells are hashed and compared in place,
/// aggregates fold borrowed cells, and only a group's first-seen key is
/// materialized. Groups are emitted in first-seen order.
fn run_hash_group_by(
    keys: &[usize],
    aggs: &[AggSpec],
    input: &Receiver<Frame>,
    mut out: Out,
    cancel: &CancelToken,
    consumed: &mut u64,
    rows_out: bool,
) -> Result<(u64, OutCounts), OpError> {
    let (nk, na) = (keys.len(), aggs.len());
    let agg_cols: Vec<usize> = aggs.iter().filter_map(AggSpec::column).collect();
    // Per group, in first-seen order: `nk` key values and `na` states.
    let mut group_keys: Vec<Value> = Vec::new();
    let mut states: Vec<AggState> = Vec::new();
    let mut chains = HashChains::default();
    for frame in recv_frames(input, cancel) {
        for slice in frame_slices(frame?) {
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
        emit_batch(
            &mut out,
            Batch::from_columns(n, cols).map_err(OpError::Failed)?,
            rows_out,
        )?;
    }
    Ok((*consumed, out.finish()?))
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
    capacity: usize,
}

impl<'a> TokenMemo<'a> {
    fn new(pre: Option<&'a PreTokenized>, capacity: usize) -> Self {
        TokenMemo {
            pre,
            lru: HashMap::new(),
            clock: 0,
            capacity,
        }
    }

    fn tokens(&mut self, kind: IndexKind, key: &Value) -> Arc<[Value]> {
        if let Some(pre) = self.pre {
            if pre.key == *key {
                return pre.tokens.clone();
            }
        }
        if self.capacity == 0 {
            return asterix_storage::index_tokens(kind, key).into();
        }
        self.clock += 1;
        let stamp = self.clock;
        if let Some(slot) = self.lru.get_mut(key) {
            slot.1 = stamp;
            return slot.0.clone();
        }
        let tokens: Arc<[Value]> = asterix_storage::index_tokens(kind, key).into();
        if self.lru.len() >= self.capacity {
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
/// With `ranked`, T-occurrence merging runs on interned `u32` rank arrays
/// (the vectorized kernels); `use_kernels` additionally enables the
/// full-intersection gallop fast path. Candidates and their order are
/// identical to the scalar merge in every combination.
fn index_candidates(
    store: &asterix_storage::PartitionStore,
    index: &str,
    key: &Value,
    measure: &SearchMeasure,
    memo: &mut TokenMemo<'_>,
    ranked: bool,
    use_kernels: bool,
) -> Result<Vec<Value>, asterix_storage::StorageError> {
    let merge = |tokens: &[Value], t: usize| {
        if ranked {
            store.inverted_candidates_ranked_opts(index, tokens, t, use_kernels)
        } else {
            store.inverted_candidates(index, tokens, t)
        }
    };
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
            merge(&tokens, t as usize)
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
            merge(&tokens, t)
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
            merge(&tokens, t as usize)
        }
    }
}
