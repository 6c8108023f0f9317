//! A deliberately tiny HTTP/1.1 subset over `std::net`, sized for a
//! localhost job API: one request per connection, JSON bodies only,
//! `Connection: close` on every response.
//!
//! The reader is defensive rather than general. Header and body sizes are
//! hard-capped, chunked transfer encoding is rejected, and every socket
//! read sits behind both a per-read timeout (set on the socket by the
//! caller) and an overall deadline, so a slow-loris client costs one
//! connection thread for a bounded time and nothing else. Parse failures map to a status code + one-line JSON error
//! rather than a dropped connection.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on the request line + headers.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Cap on the declared body size; larger submissions get 413 without the
/// server reading the body at all.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (no leading `?`), empty when absent.
    pub query: String,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `key` in the query string, percent-decoding skipped
    /// (the API's values are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be parsed, with the status it maps to.
#[derive(Debug)]
pub struct HttpError {
    /// Response status (400, 408, 413).
    pub status: u16,
    /// One-line human reason, returned as `{"error": ...}`.
    pub reason: String,
}

fn bad(status: u16, reason: impl Into<String>) -> HttpError {
    HttpError {
        status,
        reason: reason.into(),
    }
}

/// Read and parse one request from `stream`.
///
/// `read_timeout` should also bound each read of `stream` (for a socket,
/// its `set_read_timeout`); it seeds the overall deadline (4x the per-read
/// timeout), so trickled headers or bodies fail with 408 instead of
/// pinning the connection thread.
pub fn read_request<R: Read>(stream: R, read_timeout: Duration) -> Result<Request, HttpError> {
    let deadline = Instant::now() + read_timeout * 4;
    let mut reader = BufReader::new(stream);

    let request_line = read_line(&mut reader, deadline)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(bad(400, format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(400, format!("unsupported protocol {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(bad(
            400,
            format!("request target must be a path, got {target:?}"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut header_bytes = request_line.len();
    loop {
        let line = read_line(&mut reader, deadline)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(bad(400, "headers exceed 8 KiB"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(400, format!("malformed header line {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| bad(400, format!("bad Content-Length {value:?}")))?;
        } else if name == "transfer-encoding" {
            return Err(bad(400, "chunked transfer encoding is not supported"));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"),
        ));
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < body.len() {
        if Instant::now() > deadline {
            return Err(bad(408, "timed out reading request body"));
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(bad(400, "connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e) if would_block(&e) => {
                return Err(bad(408, "timed out reading request body"));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(bad(400, format!("read error: {e}"))),
        }
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
    })
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one CRLF- (or bare-LF-) terminated line, with the header cap and
/// deadline applied. Returns the line without its terminator.
fn read_line<R: Read>(reader: &mut BufReader<R>, deadline: Instant) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        if Instant::now() > deadline {
            return Err(bad(408, "timed out reading request"));
        }
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(bad(400, "connection closed before a full request"));
                }
                return Err(bad(400, "connection closed mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| bad(400, "request is not valid UTF-8"));
                }
                line.push(byte[0]);
                if line.len() > MAX_HEADER_BYTES {
                    return Err(bad(400, "request line exceeds 8 KiB"));
                }
            }
            Err(e) if would_block(&e) => {
                return Err(bad(408, "timed out reading request"));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(bad(400, format!("read error: {e}"))),
        }
    }
}

/// One response, always `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON for the API, raw artifact bytes for results).
    pub body: Vec<u8>,
    /// Emit a `Retry-After: <seconds>` header (the 429 backpressure hint).
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response: the document plus a trailing newline, so `curl`
    /// output ends cleanly.
    pub fn json(status: u16, doc: &serde_json::Value) -> Response {
        let mut body = serde_json::to_string_pretty(doc)
            .unwrap_or_else(|_| "{}".to_string())
            .into_bytes();
        body.push(b'\n');
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    /// A one-line `{"error": reason}` response (kept single-line so log
    /// scrapers and the tests can treat errors as records). Hand-assembled
    /// because the vendored serializer pretty-prints objects; a scalar
    /// string still renders on one line, which gives us the escaping.
    pub fn error(status: u16, reason: &str) -> Response {
        let escaped = serde_json::Value::String(reason.to_string());
        let body = format!("{{\"error\": {escaped}}}\n").into_bytes();
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    /// Serialize and send. Write errors are ignored: the peer hung up and
    /// the connection is closing anyway.
    pub fn send(&self, stream: &mut TcpStream) {
        let reason = match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        head.push_str("\r\n");
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&self.body);
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_one_json_line() {
        let r = Response::error(400, "nope \"quoted\"");
        let text = String::from_utf8(r.body).unwrap();
        assert_eq!(text.matches('\n').count(), 1);
        assert!(text.ends_with('\n'));
        let doc: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(
            doc.get("error").and_then(serde_json::Value::as_str),
            Some("nope \"quoted\"")
        );
    }

    #[test]
    fn query_params_split_on_ampersands() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/jobs".into(),
            query: "state=queued&limit=5".into(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("state"), Some("queued"));
        assert_eq!(req.query_param("limit"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
    }

    /// `read_request` reads untrusted bytes off a socket: seeded mutants
    /// of well-formed requests must parse or fail with a 4xx, never panic.
    #[test]
    fn mutated_requests_parse_or_fail_with_a_4xx() {
        let corpus: Vec<String> = [
            "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
            "GET /v1/jobs?state=queued&limit=5 HTTP/1.1\r\nHost: localhost\r\n\r\n",
            "GET /v1/jobs/0123456789abcdef/result HTTP/1.0\n\n",
            "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: 28\r\n\r\n{\"kind\": \"sweep\", \"seed\": 7}",
            "DELETE /v1/jobs/0123456789abcdef HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        ]
        .map(String::from)
        .to_vec();
        let (mut accepted, mut rejected) = (0, 0);
        for input in rp_testkit::fuzz::mutants(42, &corpus, 2000) {
            let cursor = std::io::Cursor::new(input.as_bytes());
            let read = std::panic::catch_unwind(|| read_request(cursor, Duration::from_secs(5)));
            match read {
                Ok(Ok(_)) => accepted += 1,
                Ok(Err(e)) => {
                    assert!((400..500).contains(&e.status), "{} on {input:?}", e.status);
                    rejected += 1;
                }
                Err(_) => panic!("read_request panicked on {input:?}"),
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
