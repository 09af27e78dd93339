//! # asterix-core
//!
//! The end-to-end engine of the reproduction: a single-process simulated
//! shared-nothing cluster offering the whole lifecycle of a similarity
//! query that the paper describes — DDL (datasets and `keyword` /
//! `ngram(n)` / B+-tree indexes), hash-partitioned loading, AQL queries
//! with the `~=` operator and `set simfunction`/`simthreshold`, rule-based
//! optimization (index selections, index-nested-loop joins with
//! corner-case handling, surrogate joins, the AQL+-driven three-stage
//! similarity join), parallel execution, and per-operator statistics.
//!
//! ```
//! use asterix_core::{Instance, InstanceConfig};
//! use asterix_adm::{record, IndexKind, Value};
//!
//! let mut db = Instance::new(InstanceConfig::default());
//! db.create_dataset("ARevs", "id").unwrap();
//! db.insert("ARevs", record! {"id" => 1i64, "summary" => "great product"}).unwrap();
//! db.insert("ARevs", record! {"id" => 2i64, "summary" => "great product value"}).unwrap();
//! let result = db.query(r#"
//!     for $t in dataset ARevs
//!     where similarity-jaccard(word-tokens($t.summary),
//!                              word-tokens('great product')) >= 0.5
//!     return $t.id
//! "#).unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod admin;
pub mod builder;
pub mod config;
pub mod durability;
pub mod error;
pub mod http;
pub mod instance;
pub mod profile;
pub mod registry;
pub mod result;
pub mod scheduler;
pub mod telemetry;

pub use admin::admin_response;
pub use http::{HttpLimits, HttpServer};
pub use builder::{ExprBuilder, PreparedQuery, QueryBuilder, RowRef};
pub use config::{DurabilityConfig, InstanceConfig, TelemetryConfig};
pub use durability::{DurabilityGauges, PartitionDurability, RecoveryStats, WalOp};
pub use error::CoreError;
pub use instance::{IndexBuildStats, Instance};
pub use profile::{
    CacheProfile, IndexSearchProfile, KernelProfile, LsmProfile, OpProfile, QueryProfile,
};
pub use registry::{QueryRegistry, QueryState, RunningQuery};
pub use result::{PlanInfo, QueryOptions, QueryResult};
pub use scheduler::{AdmissionPermit, AdmissionRecord, QueryScheduler, SchedulerSnapshot};
pub use telemetry::{
    chrome_trace_json, Histogram, HistogramSnapshot, InstanceGauges, MetricsSnapshot, QueryClass,
    QueryOutcome, SlowQuery, Telemetry,
};

pub use asterix_hyracks::SchedulerConfig;
