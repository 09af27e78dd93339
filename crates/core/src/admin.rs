//! The admin HTTP endpoint: live introspection over plain TCP.
//!
//! A dependency-free HTTP/1.1 server (`std::net::TcpListener`, one
//! thread per connection, `Connection: close`) exposing the instance's
//! observability surfaces:
//!
//! | route | method | payload |
//! |---|---|---|
//! | `/health` | GET | liveness + scheduler/durability gauges; `degraded` when a WAL is poisoned |
//! | `/metrics` | GET | Prometheus text exposition ([`crate::Instance::metrics_prometheus`]) |
//! | `/metrics.json` | GET | the full metrics snapshot as JSON |
//! | `/queries` | GET | the running-query registry: in-flight queries with live per-operator progress |
//! | `/queries/<id>/cancel` | POST | cancel an in-flight query by `query_id` |
//! | `/lsm` | GET | per-dataset LSM component tree + WAL/manifest stats |
//! | `/slow` | GET | the slow-query log (summaries) |
//! | `/trace/<id>` | GET | Chrome trace-event JSON of a slow-logged query (Perfetto-loadable) |
//! | `/trace/recovery` | GET | Chrome trace-event JSON of the startup recovery pass |
//!
//! Request parsing is bounded by the shared [`crate::http`] foundation:
//! request heads larger than 8 KiB are rejected with `431` before any
//! allocation proportional to attacker input. The accept loop blocks in
//! `accept()`; dropping the [`AdminServer`] wakes it with one loopback
//! connect, so it shuts down promptly.
//!
//! The route dispatcher is exported as [`admin_response`] so other HTTP
//! surfaces (the `asterix-server` query/ingest service) can mount the
//! same introspection routes under a path prefix (`/admin/*`).

use crate::http::{HttpLimits, HttpServer, Response};
use crate::instance::Instance;
use crate::registry::RunningQuery;
use asterix_adm::Value;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running admin HTTP server bound to one [`Instance`].
///
/// Binds eagerly in [`AdminServer::start`] (so `127.0.0.1:0` port
/// assignment is visible immediately via [`AdminServer::local_addr`])
/// and serves until dropped.
///
/// ```
/// use asterix_core::{AdminServer, Instance, InstanceConfig};
/// use std::sync::Arc;
///
/// let db = Arc::new(Instance::new(InstanceConfig::default()));
/// let admin = AdminServer::start(db, "127.0.0.1:0").unwrap();
/// println!("admin endpoint at {}", admin.url());
/// // ... curl http://<addr>/health, /metrics, /queries ...
/// drop(admin); // unbinds promptly
/// ```
pub struct AdminServer {
    server: HttpServer,
}

impl AdminServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7900"`, or port `0` for an
    /// OS-assigned port) and start serving `instance`'s introspection
    /// routes in a background thread.
    pub fn start(instance: Arc<Instance>, addr: &str) -> std::io::Result<AdminServer> {
        let limits = HttpLimits {
            // The admin routes take no request bodies.
            max_body_bytes: 4 * 1024,
            ..HttpLimits::default()
        };
        let server = HttpServer::bind(addr, "asterix-admin", limits, move |req, _w| {
            Some(admin_response(&instance, &req.method, req.route_path()))
        })?;
        Ok(AdminServer { server })
    }

    /// The bound socket address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The server's base URL, e.g. `http://127.0.0.1:7900`.
    pub fn url(&self) -> String {
        self.server.url()
    }

    /// Stop accepting connections and join the accept thread. Called
    /// automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Dispatch one admin request (path must already be stripped of any
/// query string and of any mount prefix such as `/admin`). This is the
/// complete admin route table; [`AdminServer`] serves it at the root
/// and `asterix-server` mounts it under `/admin/*`.
pub fn admin_response(db: &Instance, method: &str, path: &str) -> Response {
    match (method, path) {
        ("GET", "/") => index_response(),
        ("GET", "/health") => health_response(db),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: db.metrics_prometheus(),
            extra_headers: Vec::new(),
        },
        ("GET", "/metrics.json") => {
            Response::raw_json(200, asterix_adm::json::to_string(&db.metrics_snapshot()))
        }
        ("GET", "/queries") => queries_response(db),
        ("GET", "/lsm") => lsm_response(db),
        ("GET", "/slow") => slow_response(db),
        ("GET", "/trace/recovery") => match db.recovery_trace_chrome_json() {
            Some(json) => Response::raw_json(200, json),
            None => Response::error(404, "instance is not durable (no recovery trace)"),
        },
        ("GET", p) if p.starts_with("/trace/") => match p["/trace/".len()..].parse::<u64>() {
            Ok(id) => match db.slow_query_trace_chrome_json(id) {
                Some(json) => Response::raw_json(200, json),
                None => Response::error(404, "query_id not in the slow-query log"),
            },
            Err(_) => Response::error(404, "trace id must be a query_id or 'recovery'"),
        },
        ("POST", p) if p.starts_with("/queries/") && p.ends_with("/cancel") => {
            let id_str = &p["/queries/".len()..p.len() - "/cancel".len()];
            match id_str.parse::<u64>() {
                Ok(id) if db.cancel(id) => Response::json(
                    200,
                    Value::record(vec![
                        ("query_id".into(), Value::Int64(id as i64)),
                        ("cancelled".into(), Value::Boolean(true)),
                    ]),
                ),
                Ok(_) => Response::error(404, "no in-flight query with that id"),
                Err(_) => Response::error(404, "query id must be an integer"),
            }
        }
        // Known paths with the wrong method → 405 (tells scrapers the
        // route exists); everything else → 404.
        (_, "/" | "/health" | "/metrics" | "/metrics.json" | "/queries" | "/lsm" | "/slow") => {
            Response::error(405, "method not allowed")
        }
        (_, p) if p.starts_with("/trace/") => Response::error(405, "method not allowed"),
        (_, p) if p.starts_with("/queries/") && p.ends_with("/cancel") => {
            Response::error(405, "cancel requires POST")
        }
        _ => Response::error(404, "not found"),
    }
}

fn index_response() -> Response {
    let routes = [
        "/health",
        "/metrics",
        "/metrics.json",
        "/queries",
        "/queries/<id>/cancel (POST)",
        "/lsm",
        "/slow",
        "/trace/<id>",
        "/trace/recovery",
    ];
    Response::json(
        200,
        Value::record(vec![(
            "routes".into(),
            Value::OrderedList(routes.iter().map(|r| Value::from(*r)).collect()),
        )]),
    )
}

fn health_response(db: &Instance) -> Response {
    let m = db.metrics();
    let wal_poisoned = db.wal_poisoned();
    let status = if wal_poisoned { "degraded" } else { "ok" };
    let s = &m.gauges.scheduler;
    let d = &m.gauges.durability;
    let body = Value::record(vec![
        ("status".into(), Value::from(status)),
        ("uptime_us".into(), Value::Int64(m.uptime_us as i64)),
        ("telemetry_enabled".into(), Value::Boolean(m.enabled)),
        (
            "running_queries".into(),
            Value::Int64(db.running_queries().len() as i64),
        ),
        (
            "scheduler".into(),
            Value::record(vec![
                ("enabled".into(), Value::Boolean(s.enabled)),
                ("workers".into(), Value::Int64(s.workers as i64)),
                ("busy_workers".into(), Value::Int64(s.busy_workers as i64)),
                ("inflight".into(), Value::Int64(s.inflight as i64)),
                ("queued".into(), Value::Int64(s.queued as i64)),
                (
                    "rejected_queue_full".into(),
                    Value::Int64(s.rejected_queue_full as i64),
                ),
            ]),
        ),
        (
            "durability".into(),
            Value::record(vec![
                ("enabled".into(), Value::Boolean(d.enabled)),
                ("wal_poisoned".into(), Value::Boolean(wal_poisoned)),
                (
                    "replayed_records".into(),
                    Value::Int64(d.replayed_records as i64),
                ),
                ("recovery_us".into(), Value::Int64(d.recovery_us as i64)),
                (
                    "wal_live_bytes".into(),
                    Value::Int64(d.wal_live_bytes as i64),
                ),
            ]),
        ),
    ]);
    Response::json(200, body)
}

fn running_query_to_json(q: &RunningQuery) -> Value {
    Value::record(vec![
        ("query_id".into(), Value::Int64(q.query_id as i64)),
        ("state".into(), Value::from(q.state.as_str())),
        ("class".into(), Value::from(q.class.name())),
        (
            "elapsed_us".into(),
            Value::Int64(q.elapsed.as_micros() as i64),
        ),
        ("query".into(), Value::from(q.query.as_str())),
        (
            "tuples_out".into(),
            Value::Int64(q.total_tuples_out() as i64),
        ),
        (
            "operators".into(),
            Value::OrderedList(
                q.operators
                    .iter()
                    .map(|o| {
                        Value::record(vec![
                            ("op".into(), Value::Int64(o.op as i64)),
                            ("name".into(), Value::from(o.name)),
                            ("tuples_in".into(), Value::Int64(o.tuples_in as i64)),
                            ("tuples_out".into(), Value::Int64(o.tuples_out as i64)),
                            (
                                "partitions_started".into(),
                                Value::Int64(o.partitions_started as i64),
                            ),
                            (
                                "partitions_finished".into(),
                                Value::Int64(o.partitions_finished as i64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn queries_response(db: &Instance) -> Response {
    let queries = db.running_queries();
    Response::json(
        200,
        Value::record(vec![
            ("count".into(), Value::Int64(queries.len() as i64)),
            (
                "queries".into(),
                Value::OrderedList(queries.iter().map(running_query_to_json).collect()),
            ),
        ]),
    )
}

fn lsm_response(db: &Instance) -> Response {
    let m = db.metrics();
    let g = &m.gauges;
    let d = &g.durability;
    let datasets = g
        .datasets
        .iter()
        .map(|ds| {
            Value::record(vec![
                ("dataset".into(), Value::from(ds.dataset.as_str())),
                (
                    "indexes".into(),
                    Value::OrderedList(
                        ds.indexes
                            .iter()
                            .map(|i| {
                                Value::record(vec![
                                    ("name".into(), Value::from(i.name.as_str())),
                                    ("components".into(), Value::Int64(i.components as i64)),
                                    ("size_bytes".into(), Value::Int64(i.size_bytes as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let body = Value::record(vec![
        ("lsm_flushes".into(), Value::Int64(g.lsm_flushes as i64)),
        ("lsm_merges".into(), Value::Int64(g.lsm_merges as i64)),
        ("datasets".into(), Value::OrderedList(datasets)),
        (
            "wal".into(),
            Value::record(vec![
                ("enabled".into(), Value::Boolean(d.enabled)),
                ("appends".into(), Value::Int64(d.wal_appends as i64)),
                ("bytes_appended".into(), Value::Int64(d.wal_bytes as i64)),
                ("live_bytes".into(), Value::Int64(d.wal_live_bytes as i64)),
                ("fsyncs".into(), Value::Int64(d.wal_fsyncs as i64)),
                (
                    "group_commits".into(),
                    Value::Int64(d.wal_group_commits as i64),
                ),
            ]),
        ),
        (
            "recovery".into(),
            Value::record(vec![
                (
                    "replayed_records".into(),
                    Value::Int64(d.replayed_records as i64),
                ),
                ("recovery_us".into(), Value::Int64(d.recovery_us as i64)),
            ]),
        ),
    ]);
    Response::json(200, body)
}

fn slow_response(db: &Instance) -> Response {
    let m = db.metrics();
    let entries = m
        .slow_queries
        .iter()
        .map(|s| {
            Value::record(vec![
                ("seq".into(), Value::Int64(s.seq as i64)),
                ("query_id".into(), Value::Int64(s.query_id as i64)),
                ("class".into(), Value::from(s.class.name())),
                ("query".into(), Value::from(s.query.as_str())),
                (
                    "compile_us".into(),
                    Value::Int64(s.compile_time.as_micros() as i64),
                ),
                (
                    "execution_us".into(),
                    Value::Int64(s.execution_time.as_micros() as i64),
                ),
                ("rows".into(), Value::Int64(s.rows as i64)),
                (
                    "trace".into(),
                    Value::from(format!("/trace/{}", s.query_id).as_str()),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        Value::record(vec![
            (
                "threshold_us".into(),
                Value::Int64(m.slow_query_threshold_us as i64),
            ),
            ("captured".into(), Value::Int64(m.slow_captured as i64)),
            ("entries".into(), Value::OrderedList(entries)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreError, InstanceConfig};
    use asterix_adm::record;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::thread;
    use std::time::Duration;

    /// Minimal HTTP/1.1 client: send one request, read the whole
    /// response, return `(status, body)`.
    fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        let req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw).to_string();
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn demo_instance() -> Arc<Instance> {
        let db = Instance::new(InstanceConfig::tiny(2));
        db.create_dataset("ARevs", "id").unwrap();
        for i in 0..8i64 {
            db.insert(
                "ARevs",
                record! {"id" => i, "summary" => format!("great product number {i}")},
            )
            .unwrap();
        }
        Arc::new(db)
    }

    #[test]
    fn serves_health_metrics_and_queries() {
        let db = demo_instance();
        db.query("for $t in dataset ARevs return $t.id").unwrap();
        let admin = AdminServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
        let addr = admin.local_addr();

        let (status, body) = http(addr, "GET", "/health");
        assert_eq!(status, 200);
        let v = asterix_adm::json::parse(&body).unwrap();
        assert_eq!(v.field("status").as_str(), Some("ok"));
        assert_eq!(
            v.field_path("durability.wal_poisoned").as_bool(),
            Some(false)
        );

        let (status, prom) = http(addr, "GET", "/metrics");
        assert_eq!(status, 200);
        assert!(prom.contains("# TYPE"));
        assert!(prom.contains("asterix_"));

        let (status, body) = http(addr, "GET", "/metrics.json");
        assert_eq!(status, 200);
        let v = asterix_adm::json::parse(&body).unwrap();
        assert_eq!(v.field("telemetry_enabled").as_bool(), Some(true));

        // No query in flight right now.
        let (status, body) = http(addr, "GET", "/queries");
        assert_eq!(status, 200);
        let v = asterix_adm::json::parse(&body).unwrap();
        assert_eq!(v.field("count").as_i64(), Some(0));

        let (status, body) = http(addr, "GET", "/lsm");
        assert_eq!(status, 200);
        let v = asterix_adm::json::parse(&body).unwrap();
        let datasets = v.field("datasets").as_list().unwrap();
        assert_eq!(datasets[0].field("dataset").as_str(), Some("ARevs"));

        let (status, body) = http(addr, "GET", "/slow");
        assert_eq!(status, 200);
        asterix_adm::json::parse(&body).unwrap();

        let (status, _) = http(addr, "GET", "/");
        assert_eq!(status, 200);
    }

    #[test]
    fn error_paths_404_405_431_and_bad_requests() {
        let db = demo_instance();
        let admin = AdminServer::start(db, "127.0.0.1:0").unwrap();
        let addr = admin.local_addr();

        assert_eq!(http(addr, "GET", "/nope").0, 404);
        assert_eq!(http(addr, "POST", "/metrics").0, 405);
        assert_eq!(http(addr, "GET", "/queries/1/cancel").0, 405);
        // Cancel of an id that is not in flight.
        assert_eq!(http(addr, "POST", "/queries/999/cancel").0, 404);
        assert_eq!(http(addr, "POST", "/queries/abc/cancel").0, 404);
        // Trace of an id not in the slow log; bogus trace id.
        assert_eq!(http(addr, "GET", "/trace/12345").0, 404);
        assert_eq!(http(addr, "GET", "/trace/xyz").0, 404);
        // In-memory instance has no recovery trace.
        assert_eq!(http(addr, "GET", "/trace/recovery").0, 404);

        // Oversized request head → 431. The server stops reading at the
        // cap and may reset the connection with our padding unread, so
        // both the write and the tail of the read tolerate errors.
        let mut stream = TcpStream::connect(addr).unwrap();
        let huge = format!(
            "GET /health HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(2 * 8 * 1024)
        );
        let _ = stream.write_all(huge.as_bytes());
        let mut raw = Vec::new();
        let mut chunk = [0u8; 512];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => raw.extend_from_slice(&chunk[..n]),
            }
        }
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 431"));

        // Garbage request line → 400.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn concurrent_clients_all_succeed() {
        let db = demo_instance();
        let admin = AdminServer::start(db, "127.0.0.1:0").unwrap();
        let addr = admin.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                thread::spawn(move || {
                    let path = match i % 4 {
                        0 => "/health",
                        1 => "/metrics",
                        2 => "/metrics.json",
                        _ => "/queries",
                    };
                    for _ in 0..5 {
                        let (status, body) = http(addr, "GET", path);
                        assert_eq!(status, 200);
                        assert!(!body.is_empty());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// The acceptance path: an in-flight query shows up in `/queries`
    /// with non-zero live operator progress, and `POST
    /// /queries/<id>/cancel` terminates it with a cancelled outcome.
    #[test]
    fn queries_route_sees_in_flight_query_and_cancel_terminates_it() {
        let db = Arc::new(Instance::new(InstanceConfig::tiny(2)));
        db.create_dataset("Big", "id").unwrap();
        for i in 0..1500i64 {
            db.insert(
                "Big",
                record! {
                    "id" => i,
                    "summary" => format!("review text number {i} with shared words {}", i % 7)
                },
            )
            .unwrap();
        }
        let admin = AdminServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
        let addr = admin.local_addr();

        // A similarity self-join with no index: a nested-loop pass over
        // 1500×1500 pairs, long enough to observe and cancel.
        let runner = {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                db.query(
                    r#"
                    for $a in dataset Big
                    for $b in dataset Big
                    where similarity-jaccard(word-tokens($a.summary),
                                             word-tokens($b.summary)) >= 0.95
                    return $a.id
                "#,
                )
            })
        };

        // Poll until the query is visible with live progress.
        let mut seen = None;
        for _ in 0..2000 {
            let (status, body) = http(addr, "GET", "/queries");
            assert_eq!(status, 200);
            let v = asterix_adm::json::parse(&body).unwrap();
            let queries = v.field("queries").as_list().unwrap();
            if let Some(q) = queries
                .iter()
                .find(|q| q.field("state").as_str() == Some("running"))
            {
                if q.field("tuples_out").as_i64().unwrap_or(0) > 0 {
                    seen = Some(q.field("query_id").as_i64().unwrap());
                    break;
                }
            }
            thread::sleep(Duration::from_millis(2));
        }
        let query_id = seen.expect("in-flight query never showed live progress in /queries");

        let (status, body) = http(addr, "POST", &format!("/queries/{query_id}/cancel"));
        assert_eq!(status, 200);
        let v = asterix_adm::json::parse(&body).unwrap();
        assert_eq!(v.field("cancelled").as_bool(), Some(true));

        match runner.join().unwrap() {
            Err(CoreError::Cancelled) => {}
            other => panic!("expected CoreError::Cancelled, got {other:?}"),
        }
        // The registry forgets the query once it finishes.
        let (_, body) = http(addr, "GET", "/queries");
        let v = asterix_adm::json::parse(&body).unwrap();
        assert_eq!(v.field("count").as_i64(), Some(0));
    }

    /// `QueryResult::trace_chrome_json` emits valid trace-event JSON:
    /// a `traceEvents` list of complete (`"ph": "X"`) events whose
    /// `pid` is the query id.
    #[test]
    fn trace_chrome_json_is_valid_trace_event_json() {
        let db = demo_instance();
        let r = db.query("for $t in dataset ARevs return $t.id").unwrap();
        assert!(r.query_id >= 1);
        let v = asterix_adm::json::parse(&r.trace_chrome_json()).unwrap();
        assert_eq!(v.field("displayTimeUnit").as_str(), Some("ms"));
        let events = v.field("traceEvents").as_list().unwrap();
        assert!(!events.is_empty(), "telemetry-on query must emit spans");
        for e in events {
            assert_eq!(e.field("ph").as_str(), Some("X"));
            assert_eq!(e.field("pid").as_i64(), Some(r.query_id as i64));
            assert!(e.field("ts").as_i64().is_some());
            assert!(e.field("dur").as_i64().is_some());
            assert!(e.field("name").as_str().is_some());
        }
        // The span set includes the execute phase.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.field("name").as_str())
            .collect();
        assert!(names.contains(&"execute"), "names: {names:?}");
    }
}
