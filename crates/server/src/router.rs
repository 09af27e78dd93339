//! The route table and handlers of the service.
//!
//! Routing is a plain match over `(method, path)` — the full table is
//! [`crate::ROUTES`]. Every handler except `POST /query` returns a
//! complete [`Response`]; the query handler streams chunked NDJSON
//! through the [`ResponseWriter`] so result sets never materialize
//! server-side.

use crate::errors::{error_parts, error_response, ndjson_error_line};
use crate::feed::{FeedController, FeedRejection};
use crate::ServerConfig;
use asterix_adm::{json, IndexKind, Value};
use asterix_core::http::{Request, Response, ResponseWriter};
use asterix_core::{admin_response, CoreError, Instance, QueryClass, QueryOptions, QueryResult};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub(crate) struct Router {
    db: Arc<Instance>,
    feed: FeedController,
    retry_after: Duration,
}

impl Router {
    pub(crate) fn new(db: Arc<Instance>, config: &ServerConfig) -> Router {
        let cap = config.max_inflight_ingest_bytes.unwrap_or_else(|| {
            // Ingest may hold in flight what one query is allowed to
            // hold under the admission controller's memory budget.
            match db.config().scheduler.memory_budget_bytes {
                0 => 64 * 1024 * 1024,
                budget => budget,
            }
        });
        Router {
            db,
            feed: FeedController::new(cap),
            retry_after: config.retry_after,
        }
    }

    /// Dispatch one request. `Some` is a complete response; `None`
    /// means the handler streamed the body itself.
    pub(crate) fn handle(&self, req: &Request, w: &mut ResponseWriter<'_>) -> Option<Response> {
        let path = req.route_path().to_string();

        // The whole admin surface mounts under /admin/*.
        if let Some(rest) = path.strip_prefix("/admin") {
            if rest.is_empty() || rest.starts_with('/') {
                let sub = if rest.is_empty() { "/" } else { rest };
                return Some(admin_response(&self.db, &req.method, sub));
            }
        }

        match (req.method.as_str(), path.as_str()) {
            ("GET", "/") => Some(self.index_response()),
            ("POST", "/query") => self.handle_query(req, w),
            ("GET", "/datasets") => Some(self.list_datasets()),
            ("POST", "/datasets") => Some(self.create_dataset(req)),
            ("GET", "/feed") => Some(self.feed_response()),
            (method, p) => {
                if let Some(ds) = p.strip_prefix("/ingest/") {
                    if !ds.is_empty() && !ds.contains('/') {
                        return Some(match method {
                            "POST" => self.handle_ingest(ds, req),
                            _ => method_not_allowed("POST"),
                        });
                    }
                }
                if let Some(ds) = p
                    .strip_prefix("/datasets/")
                    .and_then(|rest| rest.strip_suffix("/indexes"))
                {
                    if !ds.is_empty() && !ds.contains('/') {
                        return Some(match method {
                            "POST" => self.create_index(ds, req),
                            _ => method_not_allowed("POST"),
                        });
                    }
                }
                Some(match p {
                    "/" | "/datasets" | "/feed" => method_not_allowed("GET, POST"),
                    "/query" => method_not_allowed("POST"),
                    _ => Response::error(404, &format!("no route {method} {p}")),
                })
            }
        }
    }

    /// `GET /` — service name, version, and the route table.
    fn index_response(&self) -> Response {
        let routes: Vec<Value> = crate::ROUTES
            .iter()
            .map(|(method, path, summary)| {
                Value::record(vec![
                    ("method".to_string(), Value::from(*method)),
                    ("path".to_string(), Value::from(*path)),
                    ("summary".to_string(), Value::from(*summary)),
                ])
            })
            .collect();
        Response::json(
            200,
            Value::record(vec![
                ("service".to_string(), Value::from("asterix-server")),
                (
                    "version".to_string(),
                    Value::from(env!("CARGO_PKG_VERSION")),
                ),
                ("routes".to_string(), Value::OrderedList(routes)),
            ]),
        )
    }

    /// `POST /query` — body `{"statement": "...", "options": {...}}`.
    ///
    /// The statement runs on this connection's thread; the executor's
    /// result sink writes each frame straight to the socket through a
    /// detached [`asterix_core::http::StreamHandle`] whose status line
    /// goes out lazily with the first frame. That decides the status
    /// honestly with no extra thread or queue per query: an error
    /// *before* the first result frame (parse, schema, admission
    /// rejection, ...) still has the full HTTP status vocabulary; an
    /// error *after* rows have streamed arrives as the final in-band
    /// NDJSON line. A client that disconnects mid-stream fails the
    /// sink's socket write, which cancels the query cooperatively —
    /// and a slow client backpressures the executor naturally.
    fn handle_query(&self, req: &Request, w: &mut ResponseWriter<'_>) -> Option<Response> {
        let body = match json::parse(&req.body_str()) {
            Ok(v) => v,
            Err(e) => return Some(Response::error(400, &format!("invalid JSON body: {e}"))),
        };
        let statement = match body.field("statement").as_str() {
            Some(s) => s.to_string(),
            None => {
                return Some(Response::error(
                    400,
                    "body must be {\"statement\": \"<AQL>\", \"options\": {...}?}",
                ))
            }
        };
        let mut options = QueryOptions::default();
        let opts = body.field("options");
        if let Some(ms) = opts.field("timeout_ms").as_i64() {
            options.timeout = Some(Duration::from_millis(ms.max(0) as u64));
        }
        if let Some(profile) = opts.field("profile").as_bool() {
            options.profile = profile;
        }
        if let Some(class) = opts.field("class").as_str() {
            match QueryClass::from_name(class) {
                Some(c) => options.admission_class = Some(c),
                None => {
                    return Some(Response::error(
                        400,
                        &format!("unknown query class '{class}' (scan, index-select, index-join)"),
                    ))
                }
            }
        }

        let handle = match w.detach(200, "application/x-ndjson", &[]) {
            Ok(h) => h,
            Err(e) => return Some(Response::error(500, &format!("cannot stream: {e}"))),
        };
        let shared = Arc::new(Mutex::new(handle));
        let sink = Arc::clone(&shared);
        let outcome = self.db.query_streaming(&statement, &options, move |rows| {
            let mut buf = String::new();
            for row in rows {
                buf.push_str("{\"row\":");
                buf.push_str(&json::to_string(&row));
                buf.push_str("}\n");
            }
            sink.lock()
                .unwrap()
                .write_chunk(buf.as_bytes())
                .map_err(|_| "client disconnected".to_string())
        });

        // The executor is done delivering; this lock cannot contend.
        let mut handle = shared.lock().unwrap();
        match outcome {
            Ok(result) => {
                // A zero-row result still streams: 200, done line only.
                let _ = handle.write_chunk(done_line(&result).as_bytes());
                let _ = handle.finish();
                w.mark_streamed();
                None
            }
            Err(e) if handle.started() => {
                // Rows are already on the wire under a 200 status; the
                // error becomes the final in-band NDJSON line.
                let _ = handle.write_chunk(ndjson_error_line(&e).as_bytes());
                let _ = handle.finish();
                w.mark_streamed();
                None
            }
            Err(e) => Some(error_response(&e, self.retry_after)),
        }
    }

    /// `POST /ingest/<dataset>` — NDJSON body, one record per line.
    ///
    /// The whole batch parses up front (line-precise `400`s, nothing
    /// half-applied on malformed input), is admitted against the
    /// in-flight byte cap, then goes in as one
    /// [`Instance::insert_batch`]: one WAL group commit per partition
    /// touched, and on a durable instance a return only after those
    /// fsyncs — so `200` means every record survives `kill -9`. A failed
    /// batch acknowledges nothing (`"ingested": 0`).
    fn handle_ingest(&self, dataset: &str, req: &Request) -> Response {
        let text = req.body_str();
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match json::parse(line) {
                Ok(v) => records.push(v),
                Err(e) => return Response::error(400, &format!("line {}: {e}", i + 1)),
            }
        }
        if records.is_empty() {
            return Response::error(400, "empty batch: body must be NDJSON, one record per line");
        }

        let permit = match self.feed.try_admit(req.body.len() as u64) {
            Ok(p) => p,
            Err(FeedRejection::Saturated) => {
                let snap = self.feed.snapshot();
                return Response::json(
                    429,
                    Value::record(vec![(
                        "error".to_string(),
                        Value::record(vec![
                            ("code".to_string(), Value::from("feed_saturated")),
                            (
                                "message".to_string(),
                                Value::from(format!(
                                    "ingest feed saturated: {} of {} in-flight bytes",
                                    snap.inflight_bytes, snap.max_inflight_bytes
                                )),
                            ),
                            ("status".to_string(), Value::from(429i64)),
                            ("retryable".to_string(), Value::from(true)),
                        ]),
                    )]),
                )
                .with_header("Retry-After", self.retry_after.as_secs().max(1).to_string());
            }
            Err(FeedRejection::TooLarge) => {
                return Response::error(
                    413,
                    &format!(
                        "batch of {} bytes exceeds the {}-byte in-flight cap; split it",
                        req.body.len(),
                        self.feed.snapshot().max_inflight_bytes
                    ),
                )
            }
        };

        let ingested = records.len() as u64;
        if let Err(e) = self.db.insert_batch(dataset, records) {
            drop(permit);
            // Nothing of a failed batch is acknowledged.
            let (status, code, retryable) = error_parts(&e);
            return Response::json(
                status,
                Value::record(vec![
                    (
                        "error".to_string(),
                        Value::record(vec![
                            ("code".to_string(), Value::from(code)),
                            ("message".to_string(), Value::from(e.to_string())),
                            ("status".to_string(), Value::from(status as i64)),
                            ("retryable".to_string(), Value::from(retryable)),
                        ]),
                    ),
                    ("ingested".to_string(), Value::from(0i64)),
                ]),
            );
        }
        self.feed.record_ingested(ingested);
        drop(permit);
        Response::json(
            200,
            Value::record(vec![
                ("dataset".to_string(), Value::from(dataset)),
                ("ingested".to_string(), Value::from(ingested as i64)),
                ("batch".to_string(), Value::from(ingested as i64)),
                ("durable".to_string(), Value::from(self.db.is_durable())),
            ]),
        )
    }

    /// `GET /datasets` — names, primary keys, record counts, indexes.
    fn list_datasets(&self) -> Response {
        let catalog = self.db.catalog();
        let mut defs: Vec<_> = catalog.datasets().cloned().collect();
        defs.sort_by(|a, b| a.name.cmp(&b.name));
        let datasets: Vec<Value> = defs
            .iter()
            .map(|ds| {
                let indexes: Vec<Value> = ds
                    .indexes
                    .iter()
                    .map(|ix| {
                        Value::record(vec![
                            ("name".to_string(), Value::from(ix.name.as_str())),
                            ("field".to_string(), Value::from(ix.field.as_str())),
                            ("kind".to_string(), Value::from(ix.kind.name())),
                        ])
                    })
                    .collect();
                Value::record(vec![
                    ("name".to_string(), Value::from(ds.name.as_str())),
                    (
                        "primary_key".to_string(),
                        Value::from(ds.primary_key.as_str()),
                    ),
                    (
                        "records".to_string(),
                        Value::from(self.db.count_records(&ds.name).unwrap_or(0) as i64),
                    ),
                    ("indexes".to_string(), Value::OrderedList(indexes)),
                ])
            })
            .collect();
        Response::json(
            200,
            Value::record(vec![(
                "datasets".to_string(),
                Value::OrderedList(datasets),
            )]),
        )
    }

    /// `POST /datasets` — body `{"name": "...", "primary_key": "..."}`.
    fn create_dataset(&self, req: &Request) -> Response {
        let body = match json::parse(&req.body_str()) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
        };
        let (name, pk) = match (
            body.field("name").as_str(),
            body.field("primary_key").as_str(),
        ) {
            (Some(n), Some(k)) => (n.to_string(), k.to_string()),
            _ => {
                return Response::error(
                    400,
                    "body must be {\"name\": \"...\", \"primary_key\": \"...\"}",
                )
            }
        };
        match self.db.create_dataset(&name, &pk) {
            Ok(()) => Response::json(
                201,
                Value::record(vec![
                    ("dataset".to_string(), Value::from(name)),
                    ("primary_key".to_string(), Value::from(pk)),
                ]),
            ),
            Err(e) => ddl_error(&e),
        }
    }

    /// `POST /datasets/<dataset>/indexes` — body
    /// `{"name": "...", "field": "...", "kind": "keyword"|"ngram"|"btree", "gram": n?}`.
    fn create_index(&self, dataset: &str, req: &Request) -> Response {
        let body = match json::parse(&req.body_str()) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("invalid JSON body: {e}")),
        };
        let (name, field) = match (body.field("name").as_str(), body.field("field").as_str()) {
            (Some(n), Some(f)) => (n.to_string(), f.to_string()),
            _ => {
                return Response::error(
                    400,
                    "body must be {\"name\", \"field\", \"kind\": \"keyword\"|\"ngram\"|\"btree\", \"gram\"?}",
                )
            }
        };
        let kind = match body.field("kind").as_str() {
            Some("keyword") => IndexKind::Keyword,
            Some("btree") => IndexKind::BTree,
            Some("ngram") => {
                let gram = body.field("gram").as_i64().unwrap_or(2);
                if !(1..=8).contains(&gram) {
                    return Response::error(400, "\"gram\" must be between 1 and 8");
                }
                IndexKind::NGram(gram as usize)
            }
            Some(other) => {
                return Response::error(
                    400,
                    &format!("unknown index kind '{other}' (keyword, ngram, btree)"),
                )
            }
            None => return Response::error(400, "missing \"kind\" (keyword, ngram, btree)"),
        };
        match self.db.create_index(dataset, &name, &field, kind) {
            Ok(stats) => Response::json(
                201,
                Value::record(vec![
                    ("index".to_string(), Value::from(stats.index)),
                    (
                        "records_indexed".to_string(),
                        Value::from(stats.records_indexed as i64),
                    ),
                    (
                        "build_us".to_string(),
                        Value::from(stats.build_time.as_micros() as i64),
                    ),
                    (
                        "size_bytes".to_string(),
                        Value::from(stats.size_bytes as i64),
                    ),
                ]),
            ),
            Err(e) => ddl_error(&e),
        }
    }

    /// `GET /feed` — the [`FeedController`] counters.
    fn feed_response(&self) -> Response {
        let snap = self.feed.snapshot();
        Response::json(
            200,
            Value::record(vec![
                (
                    "max_inflight_bytes".to_string(),
                    Value::from(snap.max_inflight_bytes as i64),
                ),
                (
                    "inflight_bytes".to_string(),
                    Value::from(snap.inflight_bytes as i64),
                ),
                (
                    "inflight_batches".to_string(),
                    Value::from(snap.inflight_batches as i64),
                ),
                (
                    "accepted_batches".to_string(),
                    Value::from(snap.accepted_batches as i64),
                ),
                (
                    "rejected_batches".to_string(),
                    Value::from(snap.rejected_batches as i64),
                ),
                (
                    "ingested_records".to_string(),
                    Value::from(snap.ingested_records as i64),
                ),
            ]),
        )
    }
}

/// The final `{"done": {...}}` NDJSON line of a successful stream.
fn done_line(result: &QueryResult) -> String {
    let mut fields = vec![
        (
            "query_id".to_string(),
            Value::from(result.query_id as i64),
        ),
        (
            "rows".to_string(),
            Value::from(result.streamed_rows as i64),
        ),
        (
            "class".to_string(),
            Value::from(QueryClass::classify(&result.plan).name()),
        ),
        (
            "compile_us".to_string(),
            Value::from(result.compile_time.as_micros() as i64),
        ),
        (
            "execute_us".to_string(),
            Value::from(result.execution_time.as_micros() as i64),
        ),
    ];
    if let Some(profile) = &result.profile {
        fields.push(("profile".to_string(), profile.to_json()));
    }
    let mut line = json::to_string(&Value::record(vec![(
        "done".to_string(),
        Value::record(fields),
    )]));
    line.push('\n');
    line
}

/// DDL-specific error mapping: "already exists" schema violations are
/// conflicts (`409`), everything else follows [`error_parts`].
fn ddl_error(e: &CoreError) -> Response {
    if let CoreError::Schema(message) = e {
        if message.contains("already exists") {
            return Response::error(409, message);
        }
    }
    error_response(e, Duration::from_secs(1))
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, "method not allowed").with_header("Allow", allow.to_string())
}
