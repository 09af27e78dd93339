//! # asterix-algebricks
//!
//! The rule-based query compiler substrate — the reproduction of the
//! Algebricks layer (§2.3, [8]) plus all of the paper's similarity
//! rewrites (§5):
//!
//! * [`plan`] — the logical algebra: a DAG of [`plan::LogicalNode`]s, where
//!   every column is a *variable* ([`plan::VarId`]) and shared subplans are
//!   literal shared `Arc`s (which is exactly the materialize/reuse of
//!   §5.4.2: the job generator emits a shared subplan once and replicates
//!   its output),
//! * [`catalog`] — dataset/index metadata the rules consult (including the
//!   index-function compatibility table of Fig 13),
//! * [`analysis`] — predicate analysis: conjunct splitting, similarity
//!   predicate recognition (`similarity-jaccard(...) >= δ`,
//!   `edit-distance(...) <= k`, `edit-distance-check`), constant-side
//!   detection, and compile-time corner-case detection (§5.1.1),
//! * [`rules`] — the rewrite rules: index-based selection (Fig 7),
//!   index-nested-loop similarity join with the runtime corner-case
//!   split/union plan (Figs 10, 14), the surrogate variant (Fig 19), and
//!   the three-stage similarity join (Figs 11, 12) instantiated through
//!   the AQL+-style template of §5.2, and primary-key range access for a
//!   select above a dataset scan,
//! * [`optimizer`] — the sequential-rule-set driver with the dedicated
//!   similarity rule set of §5.3,
//! * [`jobgen`] — physical plan selection + Hyracks job generation
//!   (equi-join → hash join with hash repartitioning; other joins →
//!   broadcast nested-loop; index searches behind broadcast connectors;
//!   local pk sorts before primary-index lookups, §4.1.1).

pub mod analysis;
pub mod catalog;
pub mod jobgen;
pub mod optimizer;
pub mod plan;
pub mod rules;

pub use catalog::{Catalog, SimpleCatalog};
pub use jobgen::generate_job;
pub use optimizer::{optimize, OptimizerConfig};
pub use plan::{LogicalNode, LogicalOp, PlanRef, VarGen, VarId};
