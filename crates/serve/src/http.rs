//! A deliberately small HTTP/1.1 subset over blocking `std::net`.
//!
//! The service speaks exactly what its clients need and nothing more:
//! one request per connection (`Connection: close` on every response),
//! `Content-Length` bodies, flat header lines. No chunked encoding, no
//! keep-alive, no TLS. The point is to stay inside `std` — the build
//! is hermetic — while still being robust against hostile input: every
//! malformed, oversized or timed-out request maps onto a structured
//! [`ReadError`] the server turns into a 4xx, never a panic or a hang
//! (the server reads through a `DeadlineReader`, which bounds the
//! whole request by one deadline).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Hard cap on the request line + headers, before any body.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// Path without the query string, e.g. `/v1/schedule`.
    pub path: String,
    /// Decoded `key=value` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes are not a well-formed request (→ 400).
    Malformed(String),
    /// Head or body exceeds the configured limits (→ 413).
    TooLarge,
    /// The socket failed or timed out before a full request arrived
    /// (→ best-effort 408, then close).
    Io(io::Error),
}

/// A socket reader whose reads share one deadline. Each read waits at
/// most until the deadline, and once it has passed every read fails
/// with [`io::ErrorKind::TimedOut`], so a peer that trickles one byte
/// at a time holds the reader no longer than a silent one.
pub(crate) struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    /// Read from `stream` until `deadline`.
    pub(crate) fn new(stream: &'a TcpStream, deadline: Instant) -> Self {
        DeadlineReader { stream, deadline }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        // std rejects a zero read timeout, so an expired deadline is
        // reported here instead of reaching the socket.
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Read and parse one request from `stream`.
///
/// `max_body` caps the `Content-Length`; the head is capped at
/// [`MAX_HEAD_BYTES`]. The caller bounds the time the read may take
/// (the server reads through a `DeadlineReader`) — a stalled or
/// trickling peer surfaces as [`ReadError::Io`].
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, ReadError> {
    // Accumulate until the blank line that ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge);
        }
        let n = stream.read(&mut chunk).map_err(ReadError::Io)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReadError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(ReadError::Malformed(format!(
            "unsupported request line {request_line:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse()
            .map_err(|_| ReadError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(ReadError::TooLarge);
    }

    // Body: whatever arrived past the head, then read the rest exactly.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(ReadError::Malformed("bytes past content-length".into()));
    }
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(ReadError::Io)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }

    let (path, query) = parse_target(target);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Split `/path?k=v&k2=v2` into path + decoded query pairs. Percent
/// escapes are left as-is (the API uses none); `+` stays `+`.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (p.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

/// A response about to be written.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers beyond the standard set.
    pub extra_headers: Vec<(String, String)>,
    /// The body (JSON, or Prometheus text exposition).
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A Prometheus text-exposition response (version 0.0.4).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error body `{"error": code, "detail": detail}`.
    pub fn error(status: u16, code: &str, detail: &str) -> Self {
        let mut o = asched_obs::json::JsonObject::new();
        o.str("error", code).str("detail", detail);
        Response::json(status, o.finish())
    }

    /// Attach one extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Serialize onto the wire. Every response closes the connection.
    ///
    /// The response is assembled first and handed to `w` in one
    /// `write_all`: formatted straight onto an unbuffered socket, each
    /// piece of the head would leave as its own segment and wake the
    /// reading peer, a context switch each.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(self.body.as_bytes());
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut io::Cursor::new(bytes.to_vec()), 1 << 20)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /v1/schedule?w=4&units=rs6000 HTTP/1.1\r\n\
              Host: x\r\nContent-Length: 5\r\nX-Asched-Format: manifest\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/schedule");
        assert_eq!(req.query("w"), Some("4"));
        assert_eq!(req.query("units"), Some("rs6000"));
        assert_eq!(req.header("x-asched-format"), Some("manifest"));
        assert_eq!(req.header("X-ASCHED-FORMAT"), Some("manifest"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse(b"GET /x HTTP/2.0\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        let big = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(matches!(parse(big.as_bytes()), Err(ReadError::TooLarge)));
        // Truncated body: the cursor hits EOF before content-length.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn response_is_one_write() {
        /// Counts `write` calls, accepting every byte offered.
        struct Writes(usize, Vec<u8>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(0, Vec::new());
        Response::json(503, r#"{"error":"overloaded"}"#)
            .with_header("Retry-After", "1")
            .write_to(&mut w)
            .unwrap();
        assert_eq!(w.0, 1);
        assert_eq!(
            String::from_utf8(w.1).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 22\r\nConnection: close\r\nRetry-After: 1\r\n\r\n\
             {\"error\":\"overloaded\"}"
        );
    }

    #[test]
    fn text_responses_carry_exposition_content_type() {
        let mut out = Vec::new();
        Response::text(200, "a_metric 1\n")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\na_metric 1\n"));
    }
}
