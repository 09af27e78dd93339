//! The HTTP client of the benchmark: one request per connection, as the
//! server closes every connection after its response, with an
//! incremental response decoder that notes when the first body byte
//! arrived.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A decoded response and the two instants the latency metrics need.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// The body with chunked framing removed.
    pub body: Vec<u8>,
    /// The chunked body ended with its zero-length chunk (always true for
    /// an unchunked body, which ends with the connection).
    pub complete: bool,
    /// When the first body byte was read. For `POST /query` that byte
    /// opens the first `{"row"` line, or the `done` line of an empty
    /// result.
    pub first_body_at: Option<Instant>,
    /// When the last byte was read.
    pub last_byte_at: Instant,
}

/// What an NDJSON query response holds, counted without parsing rows so
/// the client costs the shared cores little during a timed window.
#[derive(Debug, PartialEq, Eq)]
pub struct NdjsonSummary {
    pub rows: usize,
    pub done: bool,
    pub error: bool,
}

impl Reply {
    /// Count `{"row"` lines and look for the closing `done` line or an
    /// in-band `{"error"` line.
    pub fn ndjson_summary(&self) -> NdjsonSummary {
        let mut summary = NdjsonSummary {
            rows: 0,
            done: false,
            error: false,
        };
        for line in self.body.split(|b| *b == b'\n') {
            if line.starts_with(b"{\"row\"") {
                summary.rows += 1;
                summary.done = false;
            } else if line.starts_with(b"{\"done\"") {
                summary.done = true;
            } else if line.starts_with(b"{\"error\"") {
                summary.error = true;
            }
        }
        summary
    }

    /// The text of each `{"row": <value>}` line's value.
    pub fn row_texts(&self) -> Vec<String> {
        String::from_utf8_lossy(&self.body)
            .lines()
            .filter_map(|l| l.strip_prefix("{\"row\":"))
            .filter_map(|l| l.strip_suffix('}'))
            .map(|l| l.trim().to_string())
            .collect()
    }
}

/// Incremental decoder: feed it the bytes of each socket read with the
/// instant the read returned.
#[derive(Default)]
pub struct ResponseDecoder {
    raw: Vec<u8>,
    head_len: Option<usize>,
    status: u16,
    chunked: bool,
    /// Offset into `raw` of the next undecoded body byte.
    cursor: usize,
    body: Vec<u8>,
    complete: bool,
    first_body_at: Option<Instant>,
}

impl ResponseDecoder {
    pub fn feed(&mut self, bytes: &[u8], now: Instant) {
        self.raw.extend_from_slice(bytes);
        if self.head_len.is_none() {
            let Some(end) = find(&self.raw, b"\r\n\r\n") else {
                return;
            };
            let head = String::from_utf8_lossy(&self.raw[..end]).to_ascii_lowercase();
            self.status = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            self.chunked = head.contains("transfer-encoding: chunked");
            self.head_len = Some(end + 4);
            self.cursor = end + 4;
        }
        let before = self.body.len();
        if self.chunked {
            self.decode_chunks();
        } else {
            self.body.extend_from_slice(&self.raw[self.cursor..]);
            self.cursor = self.raw.len();
        }
        if self.first_body_at.is_none() && self.body.len() > before {
            self.first_body_at = Some(now);
        }
    }

    /// Move every whole chunk in `raw[cursor..]` to `body`; a chunk that
    /// has only partly arrived waits for the next read.
    fn decode_chunks(&mut self) {
        while !self.complete {
            let rest = &self.raw[self.cursor..];
            let Some(line_end) = find(rest, b"\r\n") else {
                return;
            };
            let size_text = String::from_utf8_lossy(&rest[..line_end]);
            let Ok(size) = usize::from_str_radix(size_text.trim(), 16) else {
                return;
            };
            if size == 0 {
                self.complete = true;
                return;
            }
            let start = line_end + 2;
            if rest.len() < start + size + 2 {
                return;
            }
            self.body.extend_from_slice(&rest[start..start + size]);
            self.cursor += start + size + 2;
        }
    }

    pub fn finish(self, last_byte_at: Instant) -> Reply {
        Reply {
            status: self.status,
            complete: self.complete || (!self.chunked && self.head_len.is_some()),
            body: self.body,
            first_body_at: self.first_body_at,
            last_byte_at,
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Send one request and read the response until the server closes.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    let mut decoder = ResponseDecoder::default();
    let mut buf = [0u8; 64 * 1024];
    let mut last = Instant::now();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        last = Instant::now();
        decoder.feed(&buf[..n], last);
    }
    Ok(decoder.finish(last))
}

/// The body of a `POST /query` request for `statement`.
pub fn query_body(statement: &str) -> Vec<u8> {
    let mut out = String::from("{\"statement\": \"");
    for c in statement.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push_str("\"}");
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_ndjson_is_decoded_and_first_row_is_timed() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        let t2 = t0 + Duration::from_millis(9);
        let mut d = ResponseDecoder::default();
        d.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n", t0);
        // The head ends and a chunk begins, but the chunk is not whole yet.
        d.feed(b"\r\n14\r\n{\"row\":1}\n{\"r", t0);
        assert!(d.first_body_at.is_none());
        d.feed(b"ow\":2}\n\r\n", t1);
        assert_eq!(d.first_body_at, Some(t1));
        d.feed(b"16\r\n{\"done\": {\"rows\": 2}}\n\r\n0\r\n\r\n", t2);
        let reply = d.finish(t2);
        assert_eq!(reply.status, 200);
        assert!(reply.complete);
        assert_eq!(reply.first_body_at, Some(t1));
        assert_eq!(
            reply.ndjson_summary(),
            NdjsonSummary {
                rows: 2,
                done: true,
                error: false
            }
        );
        assert_eq!(reply.row_texts(), vec!["1", "2"]);
    }

    #[test]
    fn a_truncated_or_failed_stream_is_not_done() {
        let now = Instant::now();
        let mut d = ResponseDecoder::default();
        d.feed(
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\na\r\n{\"row\":1}\n\r\n",
            now,
        );
        let reply = d.finish(now);
        assert!(!reply.complete);
        assert!(!reply.ndjson_summary().done);

        let mut d = ResponseDecoder::default();
        d.feed(
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n1d\r\n{\"row\":1}\n{\"error\": {\"a\":1}}\n\r\n0\r\n\r\n",
            now,
        );
        let summary = d.finish(now).ndjson_summary();
        assert!(summary.error && !summary.done);
    }

    #[test]
    fn plain_bodies_and_error_statuses_are_read() {
        let now = Instant::now();
        let mut d = ResponseDecoder::default();
        d.feed(
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}",
            now,
        );
        let reply = d.finish(now);
        assert_eq!(reply.status, 429);
        assert_eq!(reply.body, b"{}");
        assert!(reply.complete);
    }

    #[test]
    fn statements_are_escaped_into_the_query_body() {
        let body = String::from_utf8(query_body("a \"b\"\nc")).unwrap();
        assert_eq!(body, "{\"statement\": \"a \\\"b\\\"\\nc\"}");
    }
}
