//! # asterix-server
//!
//! The client-facing HTTP/JSON service of the engine: the process a user
//! talks to with `curl` instead of linking `asterix-core` as a library.
//! Everything rides on the dependency-free [`asterix_core::HttpServer`]
//! foundation (bounded request parsing, chunked responses, one thread
//! per `Connection: close` connection).
//!
//! Surface (see `docs/API.md` for the full reference):
//!
//! * `POST /query` — run an AQL statement. Result rows stream back as
//!   chunked NDJSON in production order; a large similarity-join result
//!   is never materialized server-side. Compile-time and admission
//!   failures map to stable HTTP statuses ([`error_parts`]); failures
//!   after the first row arrive as a final in-band `{"error": ...}`
//!   line.
//! * `POST /ingest/<dataset>` — bulk NDJSON ingestion with
//!   backpressure: in-flight batch bytes are bounded by the same
//!   per-query memory budget queries run under ([`FeedController`]),
//!   and a saturated feed answers `429` + `Retry-After` instead of
//!   buffering without bound. On a durable instance, `200` means every
//!   record in the batch is on disk (WAL group-commit), so an acked
//!   batch survives `kill -9`.
//! * `POST /datasets`, `POST /datasets/<dataset>/indexes`,
//!   `GET /datasets` — DDL (the AQL dialect has no DDL statements).
//! * `GET /feed` — ingestion feed counters.
//! * `/admin/*` — the read-only admin surface: the complete
//!   [`asterix_core::admin_response`] route table, mounted under one
//!   prefix. It is the engine's only admin listener.
//!
//! ```no_run
//! use asterix_core::{Instance, InstanceConfig};
//! use asterix_server::{AsterixServer, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Instance::new(InstanceConfig::default()));
//! let server = AsterixServer::start(db, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.url());
//! ```

#![warn(missing_docs)]

mod errors;
mod feed;
mod router;

pub use errors::{error_parts, error_response, ndjson_error_line};
pub use feed::{FeedController, FeedPermit, FeedRejection, FeedSnapshot};

use asterix_core::{HttpLimits, HttpServer, Instance};
use router::Router;
use std::sync::Arc;
use std::time::Duration;

/// Every route the service dispatches, as `(method, path, summary)`.
///
/// `<...>` segments are path parameters; the `/admin/*` entry stands for
/// the whole mounted admin table. `tests/docs.rs` checks `docs/API.md`
/// documents every row, so the reference cannot silently fall behind
/// the router.
pub const ROUTES: &[(&str, &str, &str)] = &[
    ("GET", "/", "service index: name, version, route table"),
    (
        "POST",
        "/query",
        "run an AQL statement; result rows stream back as chunked NDJSON",
    ),
    (
        "POST",
        "/ingest/<dataset>",
        "bulk NDJSON ingestion with backpressure (429 + Retry-After when saturated)",
    ),
    ("GET", "/datasets", "list datasets, record counts, and indexes"),
    ("POST", "/datasets", "create a dataset"),
    (
        "POST",
        "/datasets/<dataset>/indexes",
        "create and backfill a secondary index (keyword / ngram / btree)",
    ),
    ("GET", "/feed", "ingestion feed counters and in-flight bytes"),
    (
        "*",
        "/admin/*",
        "read-only admin surface (health, metrics, queries, slow log, traces, cancel)",
    ),
];

/// Configuration of one [`AsterixServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7654"`; port `0` asks the OS.
    pub listen: String,
    /// HTTP parsing limits. The body bound is what caps a single ingest
    /// batch (default 8 MiB).
    pub http: HttpLimits,
    /// Ceiling on ingest batch bytes admitted but not yet durable,
    /// across all concurrent feed connections. `None` uses the
    /// instance's per-query memory budget
    /// ([`asterix_hyracks::SchedulerConfig::memory_budget_bytes`]), or
    /// 64 MiB when that is unlimited — ingest buffers what one query is
    /// allowed to hold, no more.
    pub max_inflight_ingest_bytes: Option<u64>,
    /// `Retry-After` value sent with `429`/`503` rejections.
    pub retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:7654".to_string(),
            http: HttpLimits::default(),
            max_inflight_ingest_bytes: None,
            retry_after: Duration::from_secs(1),
        }
    }
}

impl ServerConfig {
    /// A config binding an OS-assigned port — what tests use.
    pub fn ephemeral() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        }
    }
}

/// The running service: a bound [`HttpServer`] routing to one
/// [`Instance`].
pub struct AsterixServer {
    server: HttpServer,
    db: Arc<Instance>,
}

impl AsterixServer {
    /// Bind `config.listen` and serve `db`. Queries, ingestion, DDL and
    /// admin requests all run against this one instance, concurrently —
    /// admission control (PR 5's scheduler) arbitrates between them.
    pub fn start(db: Arc<Instance>, config: ServerConfig) -> std::io::Result<AsterixServer> {
        let router = Arc::new(Router::new(Arc::clone(&db), &config));
        let server = HttpServer::bind(
            &config.listen,
            "asterix-server",
            config.http.clone(),
            move |req, w| router.handle(req, w),
        )?;
        Ok(AsterixServer { server, db })
    }

    /// The bound socket address (resolves port-`0` binds).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Base URL, e.g. `http://127.0.0.1:7654`.
    pub fn url(&self) -> String {
        self.server.url()
    }

    /// The instance this server fronts.
    pub fn instance(&self) -> &Arc<Instance> {
        &self.db
    }

    /// Stop accepting connections. In-flight handler threads finish
    /// their current request. Called automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}
