//! # asterix-hyracks
//!
//! The parallel dataflow runtime substrate (the paper's §2.3: "AsterixDB
//! translates a computation into a directed-acyclic graph (DAG) of
//! operators and connectors, and sends it to Hyracks for execution").
//!
//! A [`job::JobSpec`] is a DAG of physical operators connected by
//! [`job::ConnectorKind`]s. The executor ([`exec`]) instantiates every
//! operator once per partition (the simulated cluster's node × partition
//! grid), runs each instance as a task on a shared [`WorkerPool`], and
//! moves frames (shared batch slices) between instances over channels
//! according to the connector:
//!
//! * `OneToOne` — partition-local pipeline edge ("Local" in the paper's
//!   plan figures),
//! * `Broadcast` — every producer partition replicates its stream to all
//!   consumer partitions ("Broadcast to all nodes"),
//! * `Hash(keys)` — route each tuple by the stable hash of its key columns
//!   ("Hash repartition"),
//! * `ToOne` — gather every partition's stream at partition 0 (the
//!   coordinator step that combines local results).
//!
//! Operators cover everything the paper's plans need: dataset scans,
//! secondary-inverted-index search solving the T-occurrence problem,
//! primary-index lookup, select/assign/project, sort, hash join,
//! (block-)nested-loop join, hash group-by with aggregates, unnest,
//! stream-position (global rank), union, limit, materialize, and a result
//! sink. Per-operator runtime statistics (input/output tuple counts,
//! wall time) feed the paper's candidate-set measurements (Table 6).
//!
//! Jobs run stage-at-a-time on the instance-lifetime [`WorkerPool`] —
//! see [`exec::run_job_with`] and [`pool`].

#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod exec;
pub mod expr;
pub mod job;
pub mod ops;
pub mod pool;
pub mod progress;
pub mod tuple;
pub mod vectorized;

pub use context::{ClusterContext, PartitionSet};
pub use error::{CancelToken, ExecError};
pub use exec::{run_job, run_job_with, JobOptions, JobStats, OpStats, ResultSink};
pub use expr::{CmpOp, Expr};
pub use job::{
    AggSpec, ConnectorKind, FaultMode, JobSpec, OpId, PhysicalOp, PreTokenized, SearchMeasure,
};
pub use ops::OutCounts;
pub use pool::{PoolScope, SchedulerConfig, WorkerPool};
pub use progress::{JobProgress, OpProgress, OpProgressSnapshot};
pub use tuple::{Batch, BatchSlice, Column, SortKey, Tuple, FRAME_CAPACITY};
pub use vectorized::VerifyKernel;
