//! A hand-rolled, bounded HTTP/1.1 request parser and response writer.
//!
//! The daemon speaks just enough HTTP for its small API: one request
//! per connection, explicit `Content-Length` bodies, no chunked
//! transfer coding, no keep-alive. What it lacks in features it makes
//! up in auditability — the parser is a single pass over a byte buffer
//! with hard limits on every dimension (request-line length, header
//! count, header-line length, body size), and every malformed input
//! maps to a specific 4xx status. The protocol fuzz suite
//! (`tests/protocol.rs`) drives this module directly: for *any* byte
//! string, [`parse_request`] must return quickly with either a request,
//! `Incomplete`, or a 4xx-classed [`HttpError`] — never panic, never
//! loop.
//!
//! # Incremental parsing
//!
//! The connection loop reads chunks into a growing buffer and re-parses
//! after each read. [`Incomplete`](Parse::Incomplete) means "more bytes
//! could still complete this request"; the caller decides what an EOF
//! or a read timeout in that state means (400 and 408 respectively).
//! Limits are enforced *eagerly*: a request line that exceeds its
//! budget errors as soon as the buffer is long enough to prove the
//! violation, even though more bytes keep arriving.

use std::io::{self, Write};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY: usize = 256 * 1024;

/// A parsed request: method, target path, headers (names lowercased),
/// and the raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub target: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of a parse attempt over a (possibly still-growing) buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// A complete request, plus the number of buffer bytes it consumed.
    Complete(Request, usize),
    /// The buffer holds a valid prefix; more bytes could complete it.
    Incomplete,
}

/// Why a request was rejected. Every variant maps to a 4xx status:
/// client errors never take the daemon down and never hang the
/// connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Anything structurally wrong: bad request line, bad header syntax,
    /// non-ASCII where tokens are required, unsupported version or
    /// transfer coding, invalid `Content-Length`.
    BadRequest(String),
    /// Request line exceeded [`MAX_REQUEST_LINE`].
    UriTooLong,
    /// One header line exceeded [`MAX_HEADER_LINE`], or there were more
    /// than [`MAX_HEADERS`] headers.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded [`MAX_BODY`].
    BodyTooLarge(usize),
}

impl HttpError {
    /// The response status for this rejection (always 4xx).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::UriTooLong => 414,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge(_) => 413,
        }
    }

    /// Human-readable detail for the response body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::BadRequest(msg) => msg.clone(),
            HttpError::UriTooLong => format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            HttpError::HeadersTooLarge => {
                format!("headers exceed {MAX_HEADERS} lines or {MAX_HEADER_LINE} bytes per line")
            }
            HttpError::BodyTooLarge(n) => format!("declared body of {n} bytes exceeds {MAX_BODY}"),
        }
    }
}

/// Finds the next line break in `buf` starting at `from`, tolerating
/// both CRLF and bare LF. Returns (line_end_exclusive, next_line_start).
fn find_line(buf: &[u8], from: usize) -> Option<(usize, usize)> {
    let nl = buf[from..].iter().position(|&b| b == b'\n')? + from;
    let end = if nl > from && buf[nl - 1] == b'\r' {
        nl - 1
    } else {
        nl
    };
    Some((end, nl + 1))
}

/// True for bytes allowed in the request line and header text: printable
/// ASCII plus horizontal tab.
fn is_line_byte(b: u8) -> bool {
    (0x20..0x7f).contains(&b) || b == b'\t'
}

fn ascii_line(bytes: &[u8], what: &str) -> Result<String, HttpError> {
    if let Some(&bad) = bytes.iter().find(|&&b| !is_line_byte(b)) {
        return Err(HttpError::BadRequest(format!(
            "{what} contains invalid byte 0x{bad:02x}"
        )));
    }
    Ok(String::from_utf8_lossy(bytes).into_owned())
}

/// Parses one HTTP/1.1 request from the front of `buf`.
///
/// Returns [`Parse::Incomplete`] when `buf` is a valid prefix of a
/// request that more bytes could complete, and an [`HttpError`] as soon
/// as the buffer *proves* the request malformed or over-limit.
///
/// # Errors
///
/// All structural violations map to 4xx via [`HttpError::status`].
pub fn parse_request(buf: &[u8]) -> Result<Parse, HttpError> {
    // Request line.
    let Some((line_end, mut pos)) = find_line(buf, 0) else {
        if buf.len() > MAX_REQUEST_LINE {
            return Err(HttpError::UriTooLong);
        }
        return Ok(Parse::Incomplete);
    };
    if line_end > MAX_REQUEST_LINE {
        return Err(HttpError::UriTooLong);
    }
    let line = ascii_line(&buf[..line_end], "request line")?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
            (m.to_string(), t.to_string(), v)
        }
        _ => {
            return Err(HttpError::BadRequest(
                "request line is not `METHOD TARGET HTTP/1.x`".into(),
            ))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!(
            "method {method:?} is not an uppercase token"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "target {target:?} is not an absolute path"
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    let body_start = loop {
        let Some((line_end, next)) = find_line(buf, pos) else {
            if buf.len() - pos > MAX_HEADER_LINE {
                return Err(HttpError::HeadersTooLarge);
            }
            return Ok(Parse::Incomplete);
        };
        if line_end - pos > MAX_HEADER_LINE {
            return Err(HttpError::HeadersTooLarge);
        }
        if line_end == pos {
            break next;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge);
        }
        let line = ascii_line(&buf[pos..line_end], "header line")?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "header line {line:?} has no colon"
            )));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!(
                "header name {name:?} is not a token"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        pos = next;
    };

    // Body length. Chunked (or any transfer-coding) is out of scope.
    let req = Request {
        method,
        target,
        headers,
        body: Vec::new(),
    };
    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; send content-length".into(),
        ));
    }
    let content_length = match req.header("content-length") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Err(HttpError::BadRequest(format!(
                    "content-length {raw:?} is not a non-negative integer"
                )))
            }
        },
    };
    if content_length > MAX_BODY {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    if buf.len() - body_start < content_length {
        return Ok(Parse::Incomplete);
    }
    let mut req = req;
    req.body = buf[body_start..body_start + content_length].to_vec();
    Ok(Parse::Complete(req, body_start + content_length))
}

/// Canonical reason phrase for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A response ready to serialize: status, extra headers, content type,
/// body bytes.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// The standard error envelope: a JSON body carrying the detail.
    pub fn error(status: u16, detail: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\"error\":{},\"status\":{status}}}",
                voltctl_check::json::escape(detail)
            ),
        )
    }

    /// Serializes head + body to `w`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (the caller drops the connection).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(raw: &[u8]) -> Request {
        match parse_request(raw) {
            Ok(Parse::Complete(req, consumed)) => {
                assert_eq!(consumed, raw.len());
                req
            }
            other => panic!("expected complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_headers() {
        let req = complete(b"GET /jobs/7 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/jobs/7");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("ACCEPT"), Some("*/*"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_reports_consumed() {
        let raw = b"POST /jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        let req = complete(raw);
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = complete(b"GET /healthz HTTP/1.1\nhost: y\n\n");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn prefixes_are_incomplete_not_errors() {
        let raw = b"POST /jobs HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        for cut in 0..raw.len() {
            assert_eq!(
                parse_request(&raw[..cut]),
                Ok(Parse::Incomplete),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_request_line_is_414() {
        let raw = vec![b'A'; MAX_REQUEST_LINE + 1];
        assert_eq!(parse_request(&raw), Err(HttpError::UriTooLong));
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match parse_request(raw.as_bytes()) {
            Err(e @ HttpError::BodyTooLarge(_)) => assert_eq!(e.status(), 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
        ] {
            match parse_request(raw) {
                Err(e) => assert_eq!(e.status(), 400, "raw {raw:?}"),
                other => panic!("expected 400 for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_without_colon_is_400() {
        let raw = b"GET /x HTTP/1.1\r\nnocolonhere\r\n\r\n";
        assert_eq!(parse_request(raw).unwrap_err().status(), 400);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(
            parse_request(raw.as_bytes()),
            Err(HttpError::HeadersTooLarge)
        );
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        let mut resp = Response::json(429, "{}".into());
        resp.headers.push(("retry-after".into(), "1".into()));
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
