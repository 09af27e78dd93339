//! A dependency-free HTTP/1.1 foundation on `std::net`.
//!
//! The `asterix-server` query/ingest service (which mounts the
//! [`crate::admin_response`] routes under `/admin/*`) is built on one
//! bounded request parser, one response writer, and one accept loop:
//!
//! * [`Request`]: one parsed request with lower-cased headers and a
//!   fully-read body. Parsing is bounded — request heads larger than
//!   [`HttpLimits::max_head_bytes`] answer `431`, bodies larger than
//!   [`HttpLimits::max_body_bytes`] answer `413` — before any
//!   allocation proportional to attacker input.
//! * [`Response`]: a complete (`Content-Length`) response.
//! * [`ResponseWriter`]: handed to handlers that stream; chunked
//!   transfer encoding via [`ResponseWriter::start_chunked`] lets a
//!   handler emit result frames as they are produced without ever
//!   materializing the full body.
//! * [`HttpServer`]: the accept loop — one detached thread per
//!   connection (`Connection: close`) behind a blocking `accept()`, so an
//!   idle server costs a request no wait; shutting down (or dropping) the
//!   server wakes the loop with one loopback connect and unbinds promptly.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Pause after a failed `accept()` before trying again.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Bound on the loopback connect that wakes the accept loop at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Size and time bounds applied to every connection before the handler
/// runs.
#[derive(Clone, Debug)]
pub struct HttpLimits {
    /// Largest request head (request line + headers) accepted before
    /// answering `431 Request Header Fields Too Large`.
    pub max_head_bytes: usize,
    /// Largest request body (`Content-Length`) accepted before
    /// answering `413 Content Too Large`.
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout (a stalled client cannot pin
    /// its handler thread forever).
    pub read_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// One fully-parsed HTTP request: request line, headers (names
/// lower-cased), and the complete body.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// The request path with any query string still attached; use
    /// [`Request::route_path`] for dispatch.
    pub path: String,
    /// Header `(name, value)` pairs; names are lower-cased, values
    /// trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of `name` (case-insensitive), if the header was sent.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path with any `?query` stripped — what routing matches on.
    pub fn route_path(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// The body decoded as UTF-8 (lossy).
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// One complete HTTP response about to be written with a
/// `Content-Length` header.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The full response body.
    pub body: String,
    /// Extra headers appended verbatim, e.g. `("Retry-After", "1")`.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response from an ADM [`asterix_adm::Value`].
    pub fn json(status: u16, body: asterix_adm::Value) -> Response {
        Response::raw_json(status, asterix_adm::json::to_string(&body))
    }

    /// A JSON response from already-serialized JSON text.
    pub fn raw_json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A minimal JSON error payload: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            asterix_adm::Value::record(vec![(
                "error".into(),
                asterix_adm::Value::from(message),
            )]),
        )
    }

    /// Append an extra response header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }
}

/// The standard reason phrase for the status codes this engine emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        499 => "Query Cancelled",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        507 => "Insufficient Storage",
        _ => "Internal Server Error",
    }
}

/// Write access to one connection's response, handed to handlers.
///
/// A handler either returns a full [`Response`] (written by the server
/// loop) or calls [`ResponseWriter::start_chunked`] and streams the
/// body itself, in which case it returns `None`.
pub struct ResponseWriter<'a> {
    stream: &'a mut TcpStream,
    streamed: bool,
}

impl<'a> ResponseWriter<'a> {
    /// Begin a `Transfer-Encoding: chunked` response. After this, the
    /// status line is on the wire — errors discovered later must be
    /// encoded in the body protocol (e.g. a final NDJSON error line).
    pub fn start_chunked(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> std::io::Result<ChunkedBody<'_>> {
        let head = response_head(status, content_type, CHUNKED, extra_headers);
        self.stream.write_all(head.as_bytes())?;
        self.streamed = true;
        Ok(ChunkedBody {
            stream: self.stream,
            finished: false,
        })
    }

    /// Detach an owned, lazily-started chunked stream for this
    /// connection, usable from another thread (e.g. an executor's
    /// result-sink callback writing frames straight to the socket).
    ///
    /// Nothing goes on the wire until the first
    /// [`StreamHandle::write_chunk`] — so a handler that detaches but
    /// then fails before producing any output can still return a full
    /// typed error [`Response`]. If the handle *did* start, the handler
    /// must call [`ResponseWriter::mark_streamed`] and return `None`.
    pub fn detach(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
    ) -> std::io::Result<StreamHandle> {
        Ok(StreamHandle {
            stream: self.stream.try_clone()?,
            head: response_head(status, content_type, CHUNKED, extra_headers),
            started: false,
            finished: false,
        })
    }

    /// Record that a detached [`StreamHandle`] put the response on the
    /// wire, so the server loop must not write another one.
    pub fn mark_streamed(&mut self) {
        self.streamed = true;
    }
}

/// An owned chunked-response stream, independent of the handler's
/// borrow of the connection (see [`ResponseWriter::detach`]).
///
/// The status line and headers are written lazily by the first
/// [`StreamHandle::write_chunk`]; [`StreamHandle::started`] tells the
/// handler whether the status line is already on the wire (in-band
/// error protocol) or still free to choose (full typed response).
pub struct StreamHandle {
    stream: TcpStream,
    head: String,
    started: bool,
    finished: bool,
}

impl StreamHandle {
    /// Whether the status line has been written.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Write one chunk, writing the response head first if this is the
    /// first. Empty input is a no-op (a zero-length chunk would
    /// terminate the body).
    pub fn write_chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        // The head rides in the first frame's write; from here on the
        // status line may be on the wire, even if that write fails.
        let head = if self.started { "" } else { self.head.as_str() };
        self.started = true;
        self.stream.write_all(&chunk_frame(head, bytes))
    }

    /// Terminate the body (zero-length chunk) if it started. Idempotent.
    pub fn finish(&mut self) -> std::io::Result<()> {
        if self.finished || !self.started {
            self.finished = true;
            return Ok(());
        }
        self.finished = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if self.started && !self.finished {
            let _ = self.stream.write_all(b"0\r\n\r\n");
            let _ = self.stream.flush();
        }
    }
}

/// An in-progress chunked response body.
///
/// Each [`ChunkedBody::write_chunk`] is one HTTP chunk flushed to the
/// socket immediately — the unit of streaming the client observes.
/// [`ChunkedBody::finish`] writes the terminating zero-length chunk;
/// dropping without finishing truncates the body, which chunked
/// encoding makes detectable client-side.
pub struct ChunkedBody<'a> {
    stream: &'a mut TcpStream,
    finished: bool,
}

impl ChunkedBody<'_> {
    /// Write one chunk (no-op for empty input: a zero-length chunk
    /// would terminate the body).
    pub fn write_chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&chunk_frame("", bytes))
    }

    /// Terminate the body (zero-length chunk). Idempotent.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finished = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl Drop for ChunkedBody<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort terminator so well-behaved early returns still
            // produce a complete body; write errors are already fatal to
            // the connection.
            let _ = self.stream.write_all(b"0\r\n\r\n");
            let _ = self.stream.flush();
        }
    }
}

/// A running HTTP server: a bound listener plus its accept-loop thread.
///
/// Generic over the handler: `asterix-server` runs its router (query,
/// ingest, DDL and the mounted admin routes) on this loop.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7654"`, port `0` for OS-assigned)
    /// and serve requests on a background thread named `name`.
    ///
    /// `handler` runs on a per-connection thread. Returning
    /// `Some(response)` writes a complete response; returning `None`
    /// asserts the handler already streamed one via the
    /// [`ResponseWriter`].
    pub fn bind<H>(addr: &str, name: &str, limits: HttpLimits, handler: H) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request, &mut ResponseWriter<'_>) -> Option<Response> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handler = Arc::new(handler);
        let conn_name = format!("{name}-conn");
        let accept_thread = thread::Builder::new().name(name.to_string()).spawn(move || {
            loop {
                let accepted = listener.accept();
                // Checked after every wake-up, before the connection is
                // served: the one that wakes the loop for shutdown is
                // dropped, not handed a thread.
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        let handler = Arc::clone(&handler);
                        let limits = limits.clone();
                        // Connections are short-lived (`Connection:
                        // close`), so handler threads are detached
                        // rather than tracked.
                        let _ = thread::Builder::new()
                            .name(conn_name.clone())
                            .spawn(move || handle_connection(stream, &limits, &*handler));
                    }
                    // Persistent failures (out of descriptors) must not
                    // spin; transient ones (a peer reset before accept)
                    // lose nothing by the pause.
                    Err(_) => thread::sleep(ACCEPT_ERROR_PAUSE),
                }
            }
        })?;
        Ok(HttpServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound socket address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's base URL, e.g. `http://127.0.0.1:7654`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop accepting connections and join the accept thread. Called
    /// automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        let Some(t) = self.accept_thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept thread blocks in `accept()`: one loopback connect
        // returns it to the flag check. A wildcard bind is reached
        // through loopback of the same family. If the connect fails the
        // thread is left detached rather than joined forever; it exits on
        // the next connection.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection<H>(mut stream: TcpStream, limits: &HttpLimits, handler: &H)
where
    H: Fn(&Request, &mut ResponseWriter<'_>) -> Option<Response>,
{
    // Accepted sockets are blocking on Linux, but make it explicit —
    // the bounded read below relies on blocking reads with a timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    // Streamed NDJSON goes out as many small chunk writes; with Nagle
    // enabled each can stall up to a delayed-ACK interval (~40 ms).
    let _ = stream.set_nodelay(true);
    match read_request(&mut stream, limits) {
        Ok(request) => {
            let mut writer = ResponseWriter {
                stream: &mut stream,
                streamed: false,
            };
            let full = handler(&request, &mut writer);
            let streamed = writer.streamed;
            match full {
                Some(response) => {
                    let _ = write_response(&mut stream, &response);
                }
                None if streamed => {}
                None => {
                    // Handler bug: neither streamed nor returned.
                    let _ = write_response(
                        &mut stream,
                        &Response::error(500, "handler produced no response"),
                    );
                }
            }
        }
        Err(status) => {
            let _ = write_response(&mut stream, &Response::error(status, status_text(status)));
        }
    }
}

/// Read and parse one full request (head + body) under `limits`.
/// Returns the request or an HTTP status code to answer with.
fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, u16> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(431);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Client closed its half; parse what we have.
                break buf.len();
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(400), // timeout or reset mid-request
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_string();
    let path = parts.next().ok_or(400u16)?.to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/") => {}
        _ => return Err(400),
    }
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    // Body: exactly Content-Length bytes (we never accept chunked
    // request bodies — every client of this API sends a sized body).
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(413);
    }
    let mut body: Vec<u8> = buf[head_end..].to_vec();
    // Over-read past the head can only come from this request's body
    // (Connection: close ⇒ no pipelining clients to be fair to).
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(400), // body shorter than declared
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(400),
        }
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Offset just past the `\r\n\r\n` (or `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(i + 4);
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2)
}

/// The framing header of a chunked response.
const CHUNKED: &str = "Transfer-Encoding: chunked";

/// Status line and headers of a response, through the blank line.
/// `framing` is the header that delimits the body: [`CHUNKED`] or a
/// `Content-Length`.
fn response_head(
    status: u16,
    content_type: &str,
    framing: &str,
    extra_headers: &[(&str, String)],
) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{}\r\nConnection: close\r\n",
        status,
        status_text(status),
        content_type,
        framing,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// One chunk frame — size line, payload, CRLF — after `prefix`, in one
/// buffer: a frame written in pieces to a `TCP_NODELAY` socket costs a
/// syscall, and possibly a segment, per piece.
fn chunk_frame(prefix: &str, payload: &[u8]) -> Vec<u8> {
    let size_line = format!("{:x}\r\n", payload.len());
    let mut frame = Vec::with_capacity(prefix.len() + size_line.len() + payload.len() + 2);
    frame.extend_from_slice(prefix.as_bytes());
    frame.extend_from_slice(size_line.as_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(b"\r\n");
    frame
}

/// Write one complete response with `Content-Length`, head and body in
/// one socket write.
pub fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let mut out = response_head(
        r.status,
        r.content_type,
        &format!("Content-Length: {}", r.body.len()),
        &r.extra_headers,
    );
    out.push_str(&r.body);
    stream.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).to_string()
    }

    #[test]
    fn serves_full_and_chunked_responses() {
        let server = HttpServer::bind("127.0.0.1:0", "t", HttpLimits::default(), |req, w| {
            match req.route_path() {
                "/full" => Some(Response::text(200, format!("body={}", req.body_str()))),
                "/stream" => {
                    let mut body = w.start_chunked(200, "text/plain", &[]).unwrap();
                    body.write_chunk(b"one\n").unwrap();
                    body.write_chunk(b"two\n").unwrap();
                    body.finish().unwrap();
                    None
                }
                _ => Some(Response::error(404, "nope")),
            }
        })
        .unwrap();
        let addr = server.local_addr();

        let full = http_roundtrip(
            addr,
            "POST /full HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
        );
        assert!(full.starts_with("HTTP/1.1 200"), "{full}");
        assert!(full.contains("body=hi"), "{full}");

        let streamed = http_roundtrip(addr, "GET /stream HTTP/1.1\r\n\r\n");
        assert!(streamed.contains("Transfer-Encoding: chunked"), "{streamed}");
        assert!(streamed.contains("one\n"), "{streamed}");
        assert!(streamed.ends_with("0\r\n\r\n"), "{streamed}");

        let missing = http_roundtrip(addr, "GET /other HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }

    /// The accept loop blocks in `accept()`; shutdown has to wake it
    /// itself — no client connection ever will.
    #[test]
    fn shutdown_is_prompt_without_any_client() {
        let mut server =
            HttpServer::bind("127.0.0.1:0", "t", HttpLimits::default(), |_req, _w| None).unwrap();
        let addr = server.local_addr();
        let started = std::time::Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "{took:?}");
        // Joined, so the listener is gone with its thread.
        assert!(TcpStream::connect(addr).is_err());
        server.shutdown(); // idempotent
    }

    /// An idle server costs a request no wait: the median round trip is
    /// far below the 10 ms an accept poll used to add on average half of.
    #[test]
    fn idle_server_answers_without_a_poll_wait() {
        let server = HttpServer::bind("127.0.0.1:0", "t", HttpLimits::default(), |_req, _w| {
            Some(Response::text(200, "ok".into()))
        })
        .unwrap();
        let addr = server.local_addr();
        let mut round_trips = Vec::new();
        // One idle second first, then idles that differ by 1 ms, so a
        // periodic wake-up in the server would be met at every phase.
        for idle_ms in std::iter::once(1000).chain(30..40) {
            thread::sleep(Duration::from_millis(idle_ms));
            let started = std::time::Instant::now();
            let r = http_roundtrip(addr, "GET / HTTP/1.1\r\n\r\n");
            round_trips.push(started.elapsed());
            assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        }
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(median < Duration::from_millis(3), "{round_trips:?}");
    }

    #[test]
    fn bounds_head_and_body() {
        let limits = HttpLimits {
            max_head_bytes: 1024,
            max_body_bytes: 64,
            ..HttpLimits::default()
        };
        let server =
            HttpServer::bind("127.0.0.1:0", "t", limits, |_req, _w| Some(Response::text(200, "ok".into())))
                .unwrap();
        let addr = server.local_addr();

        // Oversized head → 431. The server stops reading at the cap and
        // may reset with padding unread, so tolerate write errors.
        let mut stream = TcpStream::connect(addr).unwrap();
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4096));
        let _ = stream.write_all(huge.as_bytes());
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 431"));

        // Oversized declared body → 413 before reading it.
        let r = http_roundtrip(addr, "POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 413"), "{r}");

        // Garbage request line → 400.
        let r = http_roundtrip(addr, "NONSENSE\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");

        // Body shorter than declared → 400.
        let r = http_roundtrip(addr, "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");
    }

    /// Connections are served on threads of their own: concurrent
    /// clients each get their own complete answer.
    #[test]
    fn concurrent_clients_all_succeed() {
        let server = HttpServer::bind("127.0.0.1:0", "t", HttpLimits::default(), |req, _w| {
            Some(Response::text(200, req.route_path().to_string()))
        })
        .unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                thread::spawn(move || {
                    let path = format!("/client{i}");
                    for _ in 0..5 {
                        let r = http_roundtrip(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"));
                        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
                        assert!(r.ends_with(&path), "{r}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn headers_are_case_insensitive_and_query_strings_strip() {
        let server = HttpServer::bind("127.0.0.1:0", "t", HttpLimits::default(), |req, _w| {
            assert_eq!(req.header("X-Custom"), Some("yes"));
            assert_eq!(req.header("x-custom"), Some("yes"));
            assert_eq!(req.route_path(), "/p");
            Some(Response::text(200, "ok".into()))
        })
        .unwrap();
        let r = http_roundtrip(
            server.local_addr(),
            "GET /p?a=1&b=2 HTTP/1.1\r\nX-CUSTOM: yes\r\n\r\n",
        );
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    }
}
