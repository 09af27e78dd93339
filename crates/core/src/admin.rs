//! The admin routes: live introspection of one [`Instance`].
//!
//! [`admin_response`] is the complete route table; `asterix-server`
//! mounts it under `/admin/*`:
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
//! Request parsing and its bounds belong to the server that mounts the
//! table (the shared [`crate::http`] foundation).

use crate::http::Response;
use crate::instance::Instance;
use crate::registry::RunningQuery;
use asterix_adm::Value;

/// Dispatch one admin request (path must already be stripped of any
/// query string and of any mount prefix such as `/admin`). This is the
/// complete admin route table; `asterix-server` mounts it under
/// `/admin/*`.
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
    use crate::{CoreError, InstanceConfig, QueryOptions};
    use asterix_adm::record;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Dispatch one request and return `(status, body)`.
    fn call(db: &Instance, method: &str, path: &str) -> (u16, String) {
        let r = admin_response(db, method, path);
        (r.status, r.body)
    }

    fn json(body: &str) -> Value {
        asterix_adm::json::parse(body).unwrap()
    }

    fn demo_instance() -> Instance {
        let db = Instance::new(InstanceConfig::tiny(2));
        db.create_dataset("ARevs", "id").unwrap();
        for i in 0..8i64 {
            db.insert(
                "ARevs",
                record! {"id" => i, "summary" => format!("great product number {i}")},
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn serves_health_metrics_and_queries() {
        let db = demo_instance();
        db.query("for $t in dataset ARevs return $t.id").unwrap();

        let (status, body) = call(&db, "GET", "/health");
        assert_eq!(status, 200);
        let v = json(&body);
        assert_eq!(v.field("status").as_str(), Some("ok"));
        assert_eq!(
            v.field_path("durability.wal_poisoned").as_bool(),
            Some(false)
        );

        let (status, prom) = call(&db, "GET", "/metrics");
        assert_eq!(status, 200);
        assert!(prom.contains("asterix_"));
        let families = prom.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert!(families > 10, "only {families} metric families");

        let (status, body) = call(&db, "GET", "/metrics.json");
        assert_eq!(status, 200);
        assert_eq!(json(&body).field("telemetry_enabled").as_bool(), Some(true));

        // No query in flight right now.
        let (status, body) = call(&db, "GET", "/queries");
        assert_eq!(status, 200);
        assert_eq!(json(&body).field("count").as_i64(), Some(0));

        let (status, body) = call(&db, "GET", "/lsm");
        assert_eq!(status, 200);
        let v = json(&body);
        let datasets = v.field("datasets").as_list().unwrap();
        assert_eq!(datasets[0].field("dataset").as_str(), Some("ARevs"));

        assert_eq!(call(&db, "GET", "/").0, 200);

        // A captured slow query is listed in `/slow`, and the trace link
        // of the newest entry serves a non-empty Chrome trace.
        let force_capture = QueryOptions {
            slow_query_threshold: Some(Duration::ZERO),
            ..QueryOptions::default()
        };
        db.query_with("for $t in dataset ARevs return $t.summary", &force_capture)
            .unwrap();
        let (status, body) = call(&db, "GET", "/slow");
        assert_eq!(status, 200);
        let v = json(&body);
        let entries = v.field("entries").as_list().unwrap();
        let newest = entries.last().expect("slow log populated");
        let (status, body) = call(&db, "GET", newest.field("trace").as_str().unwrap());
        assert_eq!(status, 200);
        let trace = json(&body);
        assert!(!trace.field("traceEvents").as_list().unwrap().is_empty());
    }

    #[test]
    fn error_paths_404_and_405() {
        let db = demo_instance();
        assert_eq!(call(&db, "GET", "/nope").0, 404);
        assert_eq!(call(&db, "POST", "/metrics").0, 405);
        assert_eq!(call(&db, "GET", "/queries/1/cancel").0, 405);
        // Cancel of an id that is not in flight.
        assert_eq!(call(&db, "POST", "/queries/999/cancel").0, 404);
        assert_eq!(call(&db, "POST", "/queries/abc/cancel").0, 404);
        // Trace of an id not in the slow log; bogus trace id.
        assert_eq!(call(&db, "GET", "/trace/12345").0, 404);
        assert_eq!(call(&db, "GET", "/trace/xyz").0, 404);
        // In-memory instance has no recovery trace.
        assert_eq!(call(&db, "GET", "/trace/recovery").0, 404);
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
            let (status, body) = call(&db, "GET", "/queries");
            assert_eq!(status, 200);
            let v = json(&body);
            let queries = v.field("queries").as_list().unwrap();
            assert_eq!(v.field("count").as_i64(), Some(queries.len() as i64));
            if let Some(q) = queries
                .iter()
                .find(|q| q.field("state").as_str() == Some("running"))
            {
                if q.field("tuples_out").as_i64().unwrap_or(0) > 0 {
                    assert!(!q.field("operators").as_list().unwrap().is_empty());
                    seen = Some(q.field("query_id").as_i64().unwrap());
                    break;
                }
            }
            thread::sleep(Duration::from_millis(2));
        }
        let query_id = seen.expect("in-flight query never showed live progress in /queries");

        let (status, body) = call(&db, "POST", &format!("/queries/{query_id}/cancel"));
        assert_eq!(status, 200);
        assert_eq!(json(&body).field("cancelled").as_bool(), Some(true));

        match runner.join().unwrap() {
            Err(CoreError::Cancelled) => {}
            other => panic!("expected CoreError::Cancelled, got {other:?}"),
        }
        // The registry forgets the query once it finishes.
        let (_, body) = call(&db, "GET", "/queries");
        assert_eq!(json(&body).field("count").as_i64(), Some(0));
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
