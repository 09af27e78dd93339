//! Job specification: the DAG of physical operators and connectors that
//! the executor instantiates per partition.

use crate::expr::Expr;
use crate::tuple::SortKey;
use asterix_adm::Value;
use asterix_storage::KeyRange;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Operator identifier within a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// How tuples travel from a producer's partitions to a consumer's.
#[derive(Clone, Debug, PartialEq)]
pub enum ConnectorKind {
    /// Partition-local pipeline edge ("Local").
    OneToOne,
    /// Replicate every producer partition's stream to all consumer
    /// partitions ("Broadcast to all nodes").
    Broadcast,
    /// Route each tuple by the stable hash of the given columns ("Hash
    /// repartition").
    Hash(Vec<usize>),
    /// Gather everything at consumer partition 0 (coordinator collection).
    ToOne,
}

/// Aggregate functions for group-by.
#[derive(Clone, Debug, PartialEq)]
pub enum AggSpec {
    /// COUNT(*)
    Count,
    /// SUM of an integer/double column.
    Sum(usize),
    /// Minimum of a column.
    Min(usize),
    /// Maximum of a column.
    Max(usize),
    /// First value seen (used to pick a representative, e.g. `$sim[0]` in
    /// Fig 11 line 49).
    First(usize),
    /// Collect the distinct values of a column into a sorted ordered list
    /// (used to assemble ranked token lists in the three-stage join).
    CollectSortedSet(usize),
}

impl AggSpec {
    /// The input column the aggregate reads (`None` for `Count`).
    pub fn column(&self) -> Option<usize> {
        match self {
            AggSpec::Count => None,
            AggSpec::Sum(c)
            | AggSpec::Min(c)
            | AggSpec::Max(c)
            | AggSpec::First(c)
            | AggSpec::CollectSortedSet(c) => Some(*c),
        }
    }
}

/// What a secondary-index search verifies enough of to emit candidates
/// (the residual SELECT removes false positives, §4.1.1).
#[derive(Clone, Debug, PartialEq)]
pub enum SearchMeasure {
    /// Jaccard with threshold δ: tokenize the key, T = ceil(δ·|tokens|).
    Jaccard {
        /// Similarity threshold δ ∈ (0, 1].
        delta: f64,
    },
    /// Edit distance with threshold k on an `ngram(n)` index:
    /// T = |grams| − k·n. Corner-case keys (T ≤ 0) emit nothing here —
    /// plans route them to a scan path (Fig 14).
    EditDistance {
        /// Maximum edit distance.
        k: u32,
    },
    /// Exact lookup against a secondary B+-tree (the baseline).
    Exact,
    /// Substring containment on an `ngram(n)` index: a string containing
    /// the pattern must contain every distinct gram of the pattern
    /// (T = number of distinct pattern grams). Fig 13 lists `contains()`
    /// as the second function an n-gram index supports.
    Contains,
}

/// A search key tokenized once at job-build time (§3.3's tokenizers run at
/// compile time for query *constants*): when a probe tuple's key equals
/// `key`, the search uses `tokens` instead of re-tokenizing per partition
/// per tuple. Tokens are produced by `asterix_storage::index_tokens`, the
/// same function the runtime fallback uses, so the two can never disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct PreTokenized {
    /// The constant search key the tokens were derived from.
    pub key: Value,
    /// Its index tokens, shared without copying across partitions.
    pub tokens: Arc<[Value]>,
}

/// How a [`PhysicalOp::FaultInject`] operator fails (test support for the
/// fault-tolerance matrix: both paths must surface as typed errors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// `panic!` inside the operator body; the executor must catch it.
    Panic,
    /// Return an operator error through the normal error path.
    Error,
}

/// A physical operator. Column indices refer to the operator's input
/// tuple; operators that add columns append them on the right.
#[derive(Clone, Debug)]
pub enum PhysicalOp {
    /// Emit a single empty tuple on partition 0 (the constant source that
    /// starts selection plans).
    EmptySource,
    /// Scan the local partition of a dataset → `[pk, record]`, reading
    /// only the records whose primary key lies in `range`.
    DatasetScan {
        /// Dataset to scan.
        dataset: String,
        /// Primary keys to read ([`KeyRange::FULL`] for every record).
        range: KeyRange,
    },
    /// Keep tuples whose predicate is true.
    Select {
        /// Filter predicate over the input tuple.
        predicate: Expr,
    },
    /// Append one computed column per expression.
    Assign {
        /// One appended column per expression, in order.
        exprs: Vec<Expr>,
    },
    /// Keep only the given columns, in order.
    Project {
        /// Input column indices to keep.
        cols: Vec<usize>,
    },
    /// Partition-local sort.
    Sort {
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Hash join: input 0 is built, input 1 probes. Output = left ++ right
    /// (left = input 0).
    HashJoin {
        /// Join-key columns of the build (left) input.
        left_keys: Vec<usize>,
        /// Join-key columns of the probe (right) input.
        right_keys: Vec<usize>,
    },
    /// Nested-loop join: input 0 is materialized, input 1 streams; the
    /// predicate sees left ++ right.
    NestedLoopJoin {
        /// Join predicate over the concatenated tuple.
        predicate: Expr,
    },
    /// Hash group-by: output = group columns ++ aggregate columns.
    HashGroupBy {
        /// Grouping columns.
        keys: Vec<usize>,
        /// Aggregates computed per group.
        aggs: Vec<AggSpec>,
    },
    /// For each input tuple, evaluate `expr` to a list and emit one output
    /// tuple per element: input ++ `[element]` (++ `[position]` if requested —
    /// AQL's `at $i`, 0-based).
    Unnest {
        /// List-valued expression to flatten.
        expr: Expr,
        /// Also append the element's 0-based position.
        with_pos: bool,
    },
    /// Append a running 0-based position per partition (meaningful after a
    /// `ToOne` gather: a global rank).
    StreamPos,
    /// Search a secondary index of `dataset` with the key taken from
    /// `key_col` of each input tuple; emits input ++ `[candidate pk]` per
    /// candidate.
    SecondaryIndexSearch {
        /// Dataset that owns the index.
        dataset: String,
        /// Name of the secondary index to search.
        index: String,
        /// Input column holding the search key.
        key_col: usize,
        /// What the index search verifies before emitting candidates.
        measure: SearchMeasure,
        /// Compile-time tokenization of a constant search key, when the
        /// optimizer could prove the key constant (selection plans).
        pre_tokens: Option<PreTokenized>,
    },
    /// Look up `pk_col` in the dataset's primary index; emits input ++
    /// `[record]` for found keys.
    PrimaryIndexLookup {
        /// Dataset whose primary index is probed.
        dataset: String,
        /// Input column holding the primary key.
        pk_col: usize,
    },
    /// Concatenate all input streams (same arity).
    Union,
    /// Buffer the whole input, then emit (used to materialize shared
    /// subplans, §5.4.2).
    Materialize,
    /// Keep the first `n` tuples per partition.
    Limit {
        /// Per-partition tuple cap.
        n: usize,
    },
    /// Test support: forward tuples, sleeping `micros_per_tuple` per tuple
    /// (a deterministic slow operator for deadline/cancellation tests).
    Throttle {
        /// Sleep per forwarded tuple, in microseconds.
        micros_per_tuple: u64,
    },
    /// Test support: forward tuples, except on `partition`, which fails
    /// (per `mode`) after forwarding at most `after_tuples` tuples.
    FaultInject {
        /// Partition index that fails.
        partition: usize,
        /// Tuples forwarded before the failure triggers.
        after_tuples: u64,
        /// Whether the failure is a panic or a typed error.
        mode: FaultMode,
    },
    /// Collect tuples at the coordinator; a job has exactly one sink.
    ResultSink,
}

impl PhysicalOp {
    /// Short name used in explain output and stats.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::EmptySource => "empty-source",
            PhysicalOp::DatasetScan { .. } => "dataset-scan",
            PhysicalOp::Select { .. } => "select",
            PhysicalOp::Assign { .. } => "assign",
            PhysicalOp::Project { .. } => "project",
            PhysicalOp::Sort { .. } => "sort",
            PhysicalOp::HashJoin { .. } => "hash-join",
            PhysicalOp::NestedLoopJoin { .. } => "nested-loop-join",
            PhysicalOp::HashGroupBy { .. } => "hash-group-by",
            PhysicalOp::Unnest { .. } => "unnest",
            PhysicalOp::StreamPos => "stream-pos",
            PhysicalOp::SecondaryIndexSearch { .. } => "secondary-index-search",
            PhysicalOp::PrimaryIndexLookup { .. } => "primary-index-lookup",
            PhysicalOp::Union => "union",
            PhysicalOp::Materialize => "materialize",
            PhysicalOp::Limit { .. } => "limit",
            PhysicalOp::Throttle { .. } => "throttle",
            PhysicalOp::FaultInject { .. } => "fault-inject",
            PhysicalOp::ResultSink => "result-sink",
        }
    }

    /// How many inputs this operator requires (`None` = one or more).
    pub fn arity(&self) -> Option<usize> {
        match self {
            PhysicalOp::EmptySource | PhysicalOp::DatasetScan { .. } => Some(0),
            PhysicalOp::HashJoin { .. } | PhysicalOp::NestedLoopJoin { .. } => Some(2),
            PhysicalOp::Union => None,
            _ => Some(1),
        }
    }
}

/// An edge: producer → consumer through a connector.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Producer operator.
    pub from: OpId,
    /// Consumer operator.
    pub to: OpId,
    /// Input slot on the consumer (0 = left/build, 1 = right/probe).
    pub input: usize,
    /// How tuples are routed between partitions along this edge.
    pub connector: ConnectorKind,
}

/// A complete job DAG.
#[derive(Clone, Debug, Default)]
pub struct JobSpec {
    /// Operators in insertion order, keyed by id.
    pub ops: Vec<(OpId, PhysicalOp)>,
    /// Edges connecting producers to consumer input slots.
    pub edges: Vec<Edge>,
}

impl JobSpec {
    /// An empty job DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an operator, returning its id.
    pub fn add(&mut self, op: PhysicalOp) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push((id, op));
        id
    }

    /// Connect `from` to input slot `input` of `to`.
    pub fn connect(&mut self, from: OpId, to: OpId, input: usize, connector: ConnectorKind) {
        self.edges.push(Edge {
            from,
            to,
            input,
            connector,
        });
    }

    /// Convenience: one-to-one local edge into slot 0.
    pub fn pipe(&mut self, from: OpId, to: OpId) {
        self.connect(from, to, 0, ConnectorKind::OneToOne);
    }

    /// The operator with id `id`.
    pub fn op(&self, id: OpId) -> &PhysicalOp {
        &self.ops[id.0].1
    }

    /// Incoming edges of `id`, sorted by input slot.
    pub fn inputs_of(&self, id: OpId) -> Vec<&Edge> {
        let mut edges: Vec<&Edge> = self.edges.iter().filter(|e| e.to == id).collect();
        edges.sort_by_key(|e| e.input);
        edges
    }

    /// Outgoing edges of `id`.
    pub fn outputs_of(&self, id: OpId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.from == id).collect()
    }

    /// The single result sink.
    pub fn sink(&self) -> Option<OpId> {
        self.ops
            .iter()
            .find(|(_, op)| matches!(op, PhysicalOp::ResultSink))
            .map(|(id, _)| *id)
    }

    /// Validate the DAG: one sink, correct input arities, contiguous input
    /// slots, acyclicity.
    pub fn validate(&self) -> Result<(), String> {
        let sinks = self
            .ops
            .iter()
            .filter(|(_, op)| matches!(op, PhysicalOp::ResultSink))
            .count();
        if sinks != 1 {
            return Err(format!("job must have exactly one result sink, found {sinks}"));
        }
        // Two edges feeding the same (consumer, slot) would contend for one
        // receiver at runtime; reject the plan up front.
        let mut seen_slots: HashMap<(OpId, usize), ()> = HashMap::new();
        for e in &self.edges {
            if seen_slots.insert((e.to, e.input), ()).is_some() {
                return Err(format!(
                    "{} input slot {} is fed by more than one edge",
                    e.to, e.input
                ));
            }
        }
        for (id, op) in &self.ops {
            let inputs = self.inputs_of(*id);
            match op.arity() {
                Some(n) if inputs.len() != n => {
                    return Err(format!(
                        "{} ({}) requires {n} inputs, has {}",
                        id,
                        op.name(),
                        inputs.len()
                    ))
                }
                None if inputs.is_empty() => {
                    return Err(format!("{} ({}) requires at least one input", id, op.name()))
                }
                _ => {}
            }
            for (slot, e) in inputs.iter().enumerate() {
                if e.input != slot {
                    return Err(format!(
                        "{} input slots must be contiguous from 0, got {}",
                        id, e.input
                    ));
                }
            }
            if !matches!(op, PhysicalOp::ResultSink) && self.outputs_of(*id).is_empty() {
                return Err(format!("{} ({}) output is not consumed", id, op.name()));
            }
        }
        // Cycle check via Kahn's algorithm.
        let mut indeg: HashMap<OpId, usize> = self.ops.iter().map(|(id, _)| (*id, 0)).collect();
        for e in &self.edges {
            *indeg.get_mut(&e.to).ok_or("edge to unknown op")? += 1;
            if !indeg.contains_key(&e.from) {
                return Err("edge from unknown op".into());
            }
        }
        let mut queue: Vec<OpId> = indeg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut seen = 0;
        while let Some(id) = queue.pop() {
            seen += 1;
            for e in self.outputs_of(id) {
                let d = indeg.get_mut(&e.to).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(e.to);
                }
            }
        }
        if seen != self.ops.len() {
            return Err("job graph contains a cycle".into());
        }
        Ok(())
    }

    /// Count operators by name (Fig 15's operator-count comparison).
    pub fn operator_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for (_, op) in &self.ops {
            *counts.entry(op.name()).or_insert(0) += 1;
        }
        let mut out: Vec<(&'static str, usize)> = counts.into_iter().collect();
        out.sort();
        out
    }
}

/// Build the constant tuple source for selection plans: EmptySource →
/// Assign(constants). Returns (source id, assign id).
pub fn constant_source(job: &mut JobSpec, constants: Vec<Value>) -> (OpId, OpId) {
    let src = job.add(PhysicalOp::EmptySource);
    let assign = job.add(PhysicalOp::Assign {
        exprs: constants.into_iter().map(Expr::Const).collect(),
    });
    job.pipe(src, assign);
    (src, assign)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_job() -> JobSpec {
        let mut j = JobSpec::new();
        let scan = j.add(PhysicalOp::DatasetScan {
            dataset: "d".into(),
            range: Default::default(),
        });
        let sink = j.add(PhysicalOp::ResultSink);
        j.connect(scan, sink, 0, ConnectorKind::ToOne);
        j
    }

    #[test]
    fn valid_minimal_job() {
        assert_eq!(mini_job().validate(), Ok(()));
    }

    #[test]
    fn missing_sink_rejected() {
        let mut j = JobSpec::new();
        j.add(PhysicalOp::EmptySource);
        assert!(j.validate().is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut j = JobSpec::new();
        let scan = j.add(PhysicalOp::DatasetScan {
            dataset: "d".into(),
            range: Default::default(),
        });
        let join = j.add(PhysicalOp::HashJoin {
            left_keys: vec![0],
            right_keys: vec![0],
        });
        let sink = j.add(PhysicalOp::ResultSink);
        j.pipe(scan, join);
        j.connect(join, sink, 0, ConnectorKind::ToOne);
        assert!(j.validate().unwrap_err().contains("requires 2 inputs"));
    }

    #[test]
    fn unconsumed_output_rejected() {
        let mut j = mini_job();
        j.add(PhysicalOp::EmptySource);
        assert!(j.validate().unwrap_err().contains("not consumed"));
    }

    #[test]
    fn cycle_rejected() {
        let mut j = JobSpec::new();
        let a = j.add(PhysicalOp::Select {
            predicate: Expr::lit(true),
        });
        let b = j.add(PhysicalOp::Select {
            predicate: Expr::lit(true),
        });
        let sink = j.add(PhysicalOp::ResultSink);
        j.pipe(a, b);
        j.pipe(b, a);
        j.connect(b, sink, 0, ConnectorKind::ToOne);
        assert!(j.validate().is_err());
    }

    #[test]
    fn double_consumed_slot_rejected() {
        let mut j = JobSpec::new();
        let a = j.add(PhysicalOp::EmptySource);
        let b = j.add(PhysicalOp::EmptySource);
        let sink = j.add(PhysicalOp::ResultSink);
        j.connect(a, sink, 0, ConnectorKind::ToOne);
        j.connect(b, sink, 0, ConnectorKind::ToOne);
        assert!(j.validate().unwrap_err().contains("more than one edge"));
    }

    #[test]
    fn operator_counts() {
        let j = mini_job();
        let counts = j.operator_counts();
        assert!(counts.contains(&("dataset-scan", 1)));
        assert!(counts.contains(&("result-sink", 1)));
    }
}
