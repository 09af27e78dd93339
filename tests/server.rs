//! Integration tests of the `asterix-server` HTTP service: streamed
//! results must match library execution exactly, engine errors must map
//! to their documented statuses, ingestion must backpressure instead of
//! buffering without bound, and the admin surface must ride along under
//! `/admin/*`.

use asterix_adm::{json, record, IndexKind, Value};
use asterix_core::{Instance, InstanceConfig, QueryClass, SchedulerConfig};
use asterix_hyracks::CancelToken;
use asterix_server::{AsterixServer, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const ADJECTIVES: [&str; 8] = [
    "great", "awful", "decent", "fantastic", "cheap", "sturdy", "fragile", "reliable",
];
const NOUNS: [&str; 8] = [
    "product", "charger", "cable", "speaker", "keyboard", "monitor", "backpack", "bottle",
];

fn seeded_instance(n: i64, with_index: bool) -> Instance {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    db.create_dataset("Reviews", "id").unwrap();
    for i in 0..n {
        let a = ADJECTIVES[(i % 8) as usize];
        let b = ADJECTIVES[((i / 8) % 8) as usize];
        let noun = NOUNS[((i / 64) % 8) as usize];
        db.insert(
            "Reviews",
            record! {
                "id" => i,
                "reviewerName" => format!("reviewer{}", i % 37),
                "summary" => format!("{a} {b} {noun} number {i}")
            },
        )
        .unwrap();
    }
    if with_index {
        db.create_index("Reviews", "smix", "summary", IndexKind::Keyword)
            .unwrap();
    }
    db
}

fn serve(db: Instance) -> AsterixServer {
    AsterixServer::start(Arc::new(db), ServerConfig::ephemeral()).unwrap()
}

/// One full HTTP exchange; the response body is chunked-decoded when the
/// server streamed it.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, String, String) {
    let text = String::from_utf8_lossy(raw).to_string();
    let head_end = text.find("\r\n\r\n").expect("response head");
    let head = &text[..head_end];
    let body_raw = &text[head_end + 4..];
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        decode_chunked(body_raw)
    } else {
        body_raw.to_string()
    };
    (status, head.to_string(), body)
}

fn decode_chunked(mut raw: &str) -> String {
    let mut out = String::new();
    while let Some(line_end) = raw.find("\r\n") {
        let size = usize::from_str_radix(raw[..line_end].trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        let start = line_end + 2;
        out.push_str(&raw[start..start + size]);
        raw = &raw[start + size + 2..];
    }
    out
}

/// Run a statement over HTTP; returns (status, rows-as-json-strings,
/// final protocol line).
fn http_query(addr: SocketAddr, statement: &str, options: &str) -> (u16, Vec<String>, Value) {
    let body = format!("{{\"statement\": {}, \"options\": {options}}}", json_string(statement));
    let (status, _head, text) = http(addr, "POST", "/query", &body);
    if status != 200 {
        return (status, Vec::new(), json::parse(&text).unwrap());
    }
    let mut rows = Vec::new();
    let mut last = Value::Missing;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
        if !matches!(v.field("row"), Value::Missing) {
            rows.push(json::to_string(v.field("row")));
        } else {
            last = v;
        }
    }
    (status, rows, last)
}

fn json_string(s: &str) -> String {
    json::to_string(&Value::from(s))
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn streamed_results_match_library_execution() {
    let db = seeded_instance(256, true);
    let cases = [
        // Scan class: no similarity predicate.
        "for $r in dataset Reviews return $r.id",
        // Index-accelerated selection.
        "for $r in dataset Reviews \
         where similarity-jaccard(word-tokens($r.summary), \
                                  word-tokens('great fantastic product')) >= 0.5 \
         return $r.id",
        // Similarity self-join.
        "for $a in dataset Reviews for $b in dataset Reviews \
         where similarity-jaccard(word-tokens($a.summary), \
                                  word-tokens($b.summary)) >= 0.8 \
         return $b.id",
    ];
    let expected: Vec<Vec<String>> = cases
        .iter()
        .map(|aql| {
            let result = db.query(aql).unwrap();
            sorted(result.rows.iter().map(json::to_string).collect())
        })
        .collect();

    let server = serve(db);
    for (aql, want) in cases.iter().zip(&expected) {
        let (status, rows, last) = http_query(server.local_addr(), aql, "{}");
        assert_eq!(status, 200, "{aql}");
        assert_eq!(&sorted(rows.clone()), want, "{aql}");
        let done = last.field("done");
        assert_eq!(done.field("rows").as_i64(), Some(rows.len() as i64), "{aql}");
        assert!(done.field("query_id").as_i64().is_some(), "{aql}");
    }
}

#[test]
fn query_options_class_profile_and_empty_results() {
    let db = seeded_instance(64, true);
    let server = serve(db);
    let addr = server.local_addr();

    // Pinned admission class is echoed back through the done line.
    let (status, rows, last) = http_query(
        addr,
        "for $r in dataset Reviews return $r.id",
        "{\"class\": \"index-join\", \"profile\": true}",
    );
    assert_eq!(status, 200);
    assert_eq!(rows.len(), 64);
    assert!(!matches!(last.field("done").field("profile"), Value::Missing));

    // Zero rows still produce a well-formed stream: just the done line.
    let (status, rows, last) = http_query(
        addr,
        "for $r in dataset Reviews where $r.id = 123456 return $r.id",
        "{}",
    );
    assert_eq!(status, 200);
    assert!(rows.is_empty());
    assert_eq!(last.field("done").field("rows").as_i64(), Some(0));

    // Unknown class is a 400 before anything runs.
    let (status, _, err) = http_query(
        addr,
        "for $r in dataset Reviews return $r.id",
        "{\"class\": \"warp-speed\"}",
    );
    assert_eq!(status, 400);
    assert!(err.field("error").as_str().unwrap().contains("warp-speed"));
}

#[test]
fn typed_errors_map_to_documented_statuses() {
    let db = seeded_instance(200, false);
    let server = serve(db);
    let addr = server.local_addr();

    // Parse failure → 400 parse_error.
    let (status, _, err) = http_query(addr, "for $$ nonsense", "{}");
    assert_eq!(status, 400);
    assert_eq!(
        err.field("error").field("code").as_str(),
        Some("parse_error")
    );

    // Unknown dataset: this engine resolves datasets at run time, so it
    // surfaces as an operator failure → 500 execution_error.
    let (status, _, err) = http_query(addr, "for $r in dataset Nope return $r.id", "{}");
    assert_eq!(status, 500);
    assert_eq!(
        err.field("error").field("code").as_str(),
        Some("execution_error")
    );

    // Timeout on an expensive unindexed self-join → 504 timeout.
    let join = "for $a in dataset Reviews for $b in dataset Reviews \
                where similarity-jaccard(word-tokens($a.summary), \
                                         word-tokens($b.summary)) >= 0.9 \
                return $b.id";
    let (status, _, err) = http_query(addr, join, "{\"timeout_ms\": 1}");
    assert_eq!(status, 504, "{err:?}");
    assert_eq!(err.field("error").field("code").as_str(), Some("timeout"));
    assert_eq!(err.field("error").field("status").as_i64(), Some(504));

    // Malformed request envelopes.
    let (status, _head, _) = http(addr, "POST", "/query", "this is not json");
    assert_eq!(status, 400);
    let (status, _head, _) = http(addr, "POST", "/query", "{\"no_statement\": 1}");
    assert_eq!(status, 400);

    // Unknown route and wrong method.
    let (status, _head, _) = http(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    let (status, head, _) = http(addr, "GET", "/query", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "{head}");
}

#[test]
fn admission_rejection_maps_to_429_with_retry_after() {
    let config = InstanceConfig {
        scheduler: SchedulerConfig {
            workers: 2,
            max_concurrent_queries: 1,
            queue_depth: 1,
            ..SchedulerConfig::default()
        },
        ..InstanceConfig::with_partitions(2)
    };
    let db = Instance::new(config);
    db.create_dataset("Reviews", "id").unwrap();
    db.insert("Reviews", record! {"id" => 1i64, "summary" => "one record"})
        .unwrap();
    let server = serve(db);
    let addr = server.local_addr();

    // Hold the single execution slot through the scheduler directly...
    let hold_token = CancelToken::new();
    let permit = server
        .instance()
        .scheduler()
        .unwrap()
        .admit(QueryClass::Scan, &hold_token, 9001)
        .unwrap();
    // ...and park a waiter in the single queue slot behind it.
    let queued_instance = Arc::clone(server.instance());
    let queued_token = Arc::new(CancelToken::new());
    let waiter_token = Arc::clone(&queued_token);
    let waiter = thread::spawn(move || {
        let _ = queued_instance
            .scheduler()
            .unwrap()
            .admit(QueryClass::Scan, &waiter_token, 9002);
    });
    thread::sleep(Duration::from_millis(200));

    // A third arrival in the same class must be rejected immediately.
    let body = format!(
        "{{\"statement\": {}, \"options\": {{\"class\": \"scan\"}}}}",
        json_string("for $r in dataset Reviews return $r.id")
    );
    let (status, head, text) = http(addr, "POST", "/query", &body);
    assert_eq!(status, 429, "{text}");
    assert!(head.contains("Retry-After:"), "{head}");
    let err = json::parse(&text).unwrap();
    assert_eq!(
        err.field("error").field("code").as_str(),
        Some("queue_full")
    );
    assert_eq!(err.field("error").field("retryable").as_bool(), Some(true));

    queued_token.cancel();
    waiter.join().unwrap();
    drop(permit);

    // With the slot free again the same request succeeds.
    let (status, _head, _text) = http(addr, "POST", "/query", &body);
    assert_eq!(status, 200);
}

#[test]
fn ingest_feeds_apply_backpressure_and_bounds() {
    let db = seeded_instance(0, false);
    let config = ServerConfig {
        max_inflight_ingest_bytes: Some(256),
        ..ServerConfig::ephemeral()
    };
    let server = AsterixServer::start(Arc::new(db), config).unwrap();
    let addr = server.local_addr();

    // A batch that fits is ingested.
    let batch = "{\"id\": 1000, \"summary\": \"fresh record one\"}\n\
                 {\"id\": 1001, \"summary\": \"fresh record two\"}\n";
    let (status, _head, body) = http(addr, "POST", "/ingest/Reviews", batch);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.field("ingested").as_i64(), Some(2));

    // A batch that can never fit the in-flight cap → 413, not a retry loop.
    let huge: String = (0..40)
        .map(|i| format!("{{\"id\": {}, \"summary\": \"padding padding padding\"}}\n", 2000 + i))
        .collect();
    assert!(huge.len() > 256);
    let (status, _head, _body) = http(addr, "POST", "/ingest/Reviews", &huge);
    assert_eq!(status, 413);

    // Malformed NDJSON is rejected with the offending line, nothing applied.
    let before = server.instance().count_records("Reviews").unwrap();
    let (status, _head, body) = http(
        addr,
        "POST",
        "/ingest/Reviews",
        "{\"id\": 3000}\nnot json at all\n",
    );
    assert_eq!(status, 400);
    assert!(body.contains("line 2"), "{body}");
    assert_eq!(server.instance().count_records("Reviews").unwrap(), before);

    // A failed batch acknowledges nothing: a record without the primary
    // key fails it before anything is written, the good record before it
    // included.
    let (status, _head, body) = http(
        addr,
        "POST",
        "/ingest/Reviews",
        "{\"id\": 4000, \"summary\": \"has a key\"}\n{\"summary\": \"has none\"}\n",
    );
    assert_eq!(status, 400, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(
        v.field("error").field("code").as_str(),
        Some("schema_error")
    );
    assert_eq!(v.field("ingested").as_i64(), Some(0));
    assert_eq!(server.instance().count_records("Reviews").unwrap(), before);

    // Unknown dataset → schema error with a zero ingested count.
    let (status, _head, body) = http(addr, "POST", "/ingest/Nope", "{\"id\": 1}\n");
    assert_eq!(status, 400);
    let v = json::parse(&body).unwrap();
    assert_eq!(v.field("error").field("code").as_str(), Some("schema_error"));
    assert_eq!(v.field("ingested").as_i64(), Some(0));

    // Feed counters are visible and drain back to zero in-flight.
    let (status, _head, body) = http(addr, "GET", "/feed", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    assert_eq!(v.field("inflight_bytes").as_i64(), Some(0));
    assert_eq!(v.field("ingested_records").as_i64(), Some(2));
    assert!(v.field("rejected_batches").as_i64().unwrap() >= 1);
}

#[test]
fn concurrent_queries_and_ingest_agree_with_library() {
    let db = seeded_instance(128, true);
    let server = serve(db);
    let addr = server.local_addr();

    let query = "for $r in dataset Reviews \
                 where similarity-jaccard(word-tokens($r.summary), \
                                          word-tokens('great fantastic product')) >= 0.5 \
                 return $r.id";
    let expected = {
        let result = server.instance().query(query).unwrap();
        sorted(result.rows.iter().map(json::to_string).collect())
    };

    let mut workers = Vec::new();
    for w in 0..4 {
        let query = query.to_string();
        workers.push(thread::spawn(move || {
            for _ in 0..5 {
                let (status, rows, _) = http_query(addr, &query, "{}");
                assert_eq!(status, 200);
                // Ingested records never match the predicate, so results
                // stay stable while the feed runs.
                assert!(!rows.is_empty());
            }
            w
        }));
    }
    // Feed batches concurrently with the queries.
    let mut next_id = 10_000i64;
    for _ in 0..10 {
        let batch: String = (0..8)
            .map(|i| format!("{{\"id\": {}, \"summary\": \"zzz qqq xyzzy\"}}\n", next_id + i))
            .collect();
        next_id += 8;
        let (status, _head, _body) = http(addr, "POST", "/ingest/Reviews", &batch);
        assert_eq!(status, 200);
    }
    for w in workers {
        w.join().unwrap();
    }

    let (status, rows, _) = http_query(addr, query, "{}");
    assert_eq!(status, 200);
    assert_eq!(sorted(rows), expected);
    assert_eq!(
        server.instance().count_records("Reviews").unwrap(),
        128 + 80
    );
}

#[test]
fn ddl_routes_create_list_and_conflict() {
    let db = Instance::new(InstanceConfig::with_partitions(2));
    let server = serve(db);
    let addr = server.local_addr();

    let (status, _head, body) = http(
        addr,
        "POST",
        "/datasets",
        "{\"name\": \"Products\", \"primary_key\": \"id\"}",
    );
    assert_eq!(status, 201, "{body}");

    // Duplicate dataset → 409.
    let (status, _head, _body) = http(
        addr,
        "POST",
        "/datasets",
        "{\"name\": \"Products\", \"primary_key\": \"id\"}",
    );
    assert_eq!(status, 409);

    let (status, _head, _body) = http(addr, "POST", "/ingest/Products",
        "{\"id\": 1, \"name\": \"wireless charger\"}\n{\"id\": 2, \"name\": \"wireless charges\"}\n");
    assert_eq!(status, 200);

    let (status, _head, body) = http(
        addr,
        "POST",
        "/datasets/Products/indexes",
        "{\"name\": \"ngx\", \"field\": \"name\", \"kind\": \"ngram\", \"gram\": 2}",
    );
    assert_eq!(status, 201, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.field("records_indexed").as_i64(), Some(2));

    // Duplicate index → 409; bad kind → 400.
    let (status, _head, _body) = http(
        addr,
        "POST",
        "/datasets/Products/indexes",
        "{\"name\": \"ngx\", \"field\": \"name\", \"kind\": \"ngram\"}",
    );
    assert_eq!(status, 409);
    let (status, _head, _body) = http(
        addr,
        "POST",
        "/datasets/Products/indexes",
        "{\"name\": \"bad\", \"field\": \"name\", \"kind\": \"quantum\"}",
    );
    assert_eq!(status, 400);

    let (status, _head, body) = http(addr, "GET", "/datasets", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let Value::OrderedList(datasets) = v.field("datasets") else {
        panic!("datasets not a list: {body}")
    };
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].field("name").as_str(), Some("Products"));
    assert_eq!(datasets[0].field("records").as_i64(), Some(2));

    // An index created over HTTP is used by the optimizer.
    let (status, rows, _) = http_query(
        addr,
        "for $p in dataset Products \
         where edit-distance($p.name, 'wireless charger') <= 1 \
         return $p.id",
        "{}",
    );
    assert_eq!(status, 200);
    assert_eq!(rows.len(), 2);
}

#[test]
fn admin_surface_mounts_under_prefix() {
    let db = seeded_instance(32, true);
    let server = serve(db);
    let addr = server.local_addr();

    let (status, _head, body) = http(addr, "GET", "/admin/health", "");
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.field("status").as_str(), Some("ok"));

    let (status, _head, body) = http(addr, "GET", "/admin", "");
    assert_eq!(status, 200, "{body}");

    let (status, _head, body) = http(addr, "GET", "/admin/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("asterix_"), "{body}");

    let (status, _head, _body) = http(addr, "GET", "/admin/no-such", "");
    assert_eq!(status, 404);

    // The service index lists every route.
    let (status, _head, body) = http(addr, "GET", "/", "");
    assert_eq!(status, 200);
    for (_method, path, _summary) in asterix_server::ROUTES {
        assert!(body.contains(path), "index missing {path}: {body}");
    }
}

#[test]
fn oversized_requests_are_bounded() {
    let db = Instance::new(InstanceConfig::with_partitions(1));
    let config = ServerConfig {
        http: asterix_core::HttpLimits {
            max_head_bytes: 1024,
            max_body_bytes: 2048,
            ..Default::default()
        },
        ..ServerConfig::ephemeral()
    };
    let server = AsterixServer::start(Arc::new(db), config).unwrap();
    let addr = server.local_addr();

    // Declared body over the cap → 413 before reading it.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (status, _head, _body) = parse_response(&raw);
    assert_eq!(status, 413);

    // Oversized request head → 431.
    let mut stream = TcpStream::connect(addr).unwrap();
    let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4096));
    let _ = stream.write_all(huge.as_bytes());
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let (status, _head, _body) = parse_response(&raw);
    assert_eq!(status, 431);
}

#[test]
fn cancel_over_http_ends_the_stream_with_a_typed_error() {
    let db = seeded_instance(400, false);
    let server = serve(db);
    let addr = server.local_addr();

    // Every pair matches at threshold 0.1, so 160k rows stream while
    // the executor is still producing — plenty of time to cancel with
    // rows already on the wire.
    let join = "for $a in dataset Reviews for $b in dataset Reviews \
                where similarity-jaccard(word-tokens($a.summary), \
                                         word-tokens($b.summary)) >= 0.1 \
                return $b.id";
    let body = format!("{{\"statement\": {}}}", json_string(join));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();

    // Read until at least one result row is on the wire — the 200 and
    // the stream are then committed.
    let mut received = Vec::new();
    let mut chunk = [0u8; 4096];
    while !String::from_utf8_lossy(&received).contains("{\"row\"") {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "stream ended before any row");
        received.extend_from_slice(&chunk[..n]);
    }

    // Cancel through the admin surface (the PR 9 route, mounted under
    // /admin) while the stream is live.
    let query_id = server
        .instance()
        .running_queries()
        .first()
        .expect("query still running")
        .query_id;
    let (status, _head, _body) =
        http(addr, "POST", &format!("/admin/queries/{query_id}/cancel"), "");
    assert_eq!(status, 200);

    // The stream must terminate with the in-band cancelled error line.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    received.extend_from_slice(&rest);
    let (status, _head, text) = parse_response(&received);
    assert_eq!(status, 200, "status line was already committed");
    let last = text
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .expect("stream has a final line");
    let v = json::parse(last).unwrap();
    assert_eq!(
        v.field("error").field("code").as_str(),
        Some("cancelled"),
        "{text}"
    );
}
