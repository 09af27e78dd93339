//! The admin routes: live introspection of one [`Instance`].
//!
//! [`admin_response`] is the complete route table; `asterix-server`
//! mounts it under `/admin/*`:
//!
//! | route | method | payload |
//! |---|---|---|
//! | `/health` | GET | liveness + the snapshot's `scheduler`/`durability`; `degraded` when a WAL is poisoned |
//! | `/metrics` | GET | Prometheus text exposition ([`crate::Instance::metrics_prometheus`]) |
//! | `/metrics.json` | GET | the full metrics snapshot as JSON |
//! | `/queries` | GET | the running-query registry: in-flight queries with live per-operator progress |
//! | `/queries/<id>/cancel` | POST | cancel an in-flight query by `query_id` |
//! | `/lsm` | GET | the snapshot's `lsm` subtree (components, sizes, event ring) + `durability` |
//! | `/slow` | GET | the snapshot's slow-query log (summaries with trace links) |
//! | `/trace/<id>` | GET | Chrome trace-event JSON of a slow-logged query (Perfetto-loadable) |
//! | `/trace/recovery` | GET | Chrome trace-event JSON of the startup recovery pass |
//!
//! `/health`, `/lsm` and `/slow` are views of the one rendered metrics
//! snapshot ([`crate::telemetry::METRICS`]), so a counter has the same
//! name on every route. Request parsing and its bounds belong to the
//! server that mounts the table (the shared [`crate::http`] foundation).

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

/// Liveness: `status` (`degraded` when a WAL is poisoned), the number of
/// running queries, and the snapshot's uptime, `scheduler` and
/// `durability` (plus `wal_poisoned`).
fn health_response(db: &Instance) -> Response {
    let m = db.metrics_snapshot();
    let wal_poisoned = db.wal_poisoned();
    let status = if wal_poisoned { "degraded" } else { "ok" };
    let poisoned = ("wal_poisoned".into(), Value::Boolean(wal_poisoned));
    let body = Value::record(vec![
        ("status".into(), Value::from(status)),
        (
            "running_queries".into(),
            Value::Int64(db.running_queries().len() as i64),
        ),
        ("uptime_us".into(), m.field("uptime_us").clone()),
        ("scheduler".into(), m.field("scheduler").clone()),
        ("durability".into(), with_fields(m.field("durability"), vec![poisoned])),
    ]);
    Response::json(200, body)
}

/// The record `v` with `extra` fields added (an `extra` field replaces
/// one of the same name).
fn with_fields(v: &Value, extra: Vec<(String, Value)>) -> Value {
    let mut fields = match v {
        Value::Record(fields) => fields.clone(),
        _ => Vec::new(),
    };
    fields.extend(extra);
    Value::record(fields)
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

/// The snapshot's `lsm` subtree plus its `durability` (WAL and recovery).
fn lsm_response(db: &Instance) -> Response {
    let m = db.metrics_snapshot();
    let durability = ("durability".into(), m.field("durability").clone());
    Response::json(200, with_fields(m.field("lsm"), vec![durability]))
}

/// The snapshot's `slow_queries` subtree with each entry summarised: its
/// plan, profile and spans give way to a link to its trace.
fn slow_response(db: &Instance) -> Response {
    let m = db.metrics_snapshot();
    let slow = m.field("slow_queries");
    let entries = slow.field("entries").as_list().into_iter().flatten().map(|e| {
        let trace = format!("/trace/{}", e.field("query_id").as_i64().unwrap_or_default());
        let mut summary = match e {
            Value::Record(fields) => fields.clone(),
            _ => Vec::new(),
        };
        summary.retain(|(k, _)| !matches!(k.as_str(), "plan" | "profile" | "spans"));
        summary.push(("trace".into(), Value::from(trace.as_str())));
        Value::record(summary)
    });
    let entries = ("entries".into(), Value::OrderedList(entries.collect()));
    Response::json(200, with_fields(slow, vec![entries]))
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
        assert!(json(&body).field("uptime_us").as_i64().is_some());

        // No query in flight right now.
        let (status, body) = call(&db, "GET", "/queries");
        assert_eq!(status, 200);
        assert_eq!(json(&body).field("count").as_i64(), Some(0));

        let (status, body) = call(&db, "GET", "/lsm");
        assert_eq!(status, 200);
        let v = json(&body);
        let datasets = v.field("datasets").as_list().unwrap();
        assert_eq!(datasets[0].field("dataset").as_str(), Some("ARevs"));

        // `/lsm` and `/health` are views of the snapshot: a counter keeps
        // its snapshot name and value on every route.
        let snapshot = json(&call(&db, "GET", "/metrics.json").1);
        assert_eq!(v.field("datasets"), snapshot.field_path("lsm.datasets"));
        assert_eq!(v.field("flushes"), snapshot.field_path("lsm.flushes"));
        assert!(v.field_path("durability.wal_bytes").as_i64().is_some());
        assert!(v.field("event_ring").as_list().is_some());
        let health = json(&call(&db, "GET", "/health").1);
        assert_eq!(
            health.field_path("scheduler.workers"),
            snapshot.field_path("scheduler.workers")
        );

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
