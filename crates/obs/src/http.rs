//! The workspace's one HTTP/1.1 dialect: an incremental request parser and
//! a response builder, spoken by the `tcl-serve` inference service and by
//! the [`crate::export`] metrics exporter. It carries POST bodies for
//! inference requests and supports **connection reuse**: the parser
//! consumes exactly one request's bytes per [`Parse::Ready`], keeps any
//! pipelined surplus buffered, and re-arms itself for the next request on
//! the same connection. No TLS, no chunked bodies (rejected with a clear
//! 4xx, never silently treated as length 0).
//!
//! The parser is a push-style state machine: the caller feeds it whatever
//! bytes arrived and it answers "need more", "here is the request", or
//! "reject with this status". All limits (header size, body size) are
//! enforced *during* accumulation, so a hostile client can never make a
//! server buffer unbounded data, and a truncated body simply parks the
//! parser in `NeedMore` until the caller's timeout fires. Head scanning is
//! incremental — each byte is examined O(1) times no matter how finely a
//! slow-loris client drips its request (the [`RequestParser::scan_work`]
//! counter pins this in a regression test).

/// Maximum bytes of request head (request line + headers) accepted.
pub const MAX_HEAD: usize = 4096;

/// Content type of plain-text bodies (`/healthz`, the exporter's errors).
pub const TEXT: &str = "text/plain; charset=utf-8";
/// Content type of JSON bodies (the service's answers, `/summary`).
pub const JSON: &str = "application/json; charset=utf-8";
/// Content type of `/metrics`: the Prometheus text exposition format,
/// version 0.0.4 (DESIGN.md §13).
pub const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A parsed request, ready for dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` or `POST` (anything else is rejected at parse time).
    pub method: Method,
    /// Request path with any query string stripped.
    pub path: String,
    /// Request body (empty for GET).
    pub body: Vec<u8>,
    /// Whether the client asked to reuse the connection: `Connection:
    /// keep-alive` or the HTTP/1.1 default; `Connection: close` (or an
    /// `HTTP/1.0` request line without `keep-alive`) turns it off.
    pub keep_alive: bool,
}

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only endpoints (`/healthz`, `/metrics`, the service's
    /// `/stats`, the exporter's `/summary`).
    Get,
    /// Inference submission (`/infer`).
    Post,
}

/// Parser verdict after consuming the bytes seen so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// The request is incomplete; feed more bytes (or time out).
    NeedMore,
    /// A full request was assembled and its bytes consumed; any pipelined
    /// surplus stays buffered for the next [`RequestParser::poll`].
    Ready(Request),
    /// The request is invalid; respond with this status and close.
    Reject {
        /// HTTP status code to answer with.
        status: u16,
        /// Short human-readable reason for the response body.
        reason: &'static str,
    },
}

/// Incremental request parser: call [`RequestParser::feed`] with each
/// arriving chunk, and [`RequestParser::poll`] (no new bytes) to pull the
/// next pipelined request after finishing a response.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Parsed head, once the blank line has been seen:
    /// (method, path, content-length, body start offset in `buf`,
    /// keep-alive).
    head: Option<(Method, String, usize, usize, bool)>,
    max_body: usize,
    /// Blank-line scan resumes here — never re-examines settled bytes.
    scan_from: usize,
    /// Total head bytes examined by the blank-line scan (regression
    /// metric: must stay linear in the head size under drip-feeding).
    scanned: u64,
}

impl RequestParser {
    /// A parser accepting at most `max_body` body bytes.
    pub fn new(max_body: usize) -> Self {
        RequestParser {
            buf: Vec::new(),
            head: None,
            max_body,
            scan_from: 0,
            scanned: 0,
        }
    }

    /// Total bytes buffered so far (diagnostics; includes any pipelined
    /// surplus belonging to the next request).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Cumulative bytes the head scanner has examined (see module docs).
    pub fn scan_work(&self) -> u64 {
        self.scanned
    }

    /// Consumes one chunk of bytes and returns the current verdict.
    pub fn feed(&mut self, chunk: &[u8]) -> Parse {
        self.buf.extend_from_slice(chunk);
        self.poll()
    }

    /// Re-evaluates the buffered bytes without feeding new ones — the
    /// keep-alive re-arm: after a response is written, `poll` yields the
    /// next pipelined request if it is already fully buffered.
    pub fn poll(&mut self) -> Parse {
        if self.head.is_none() {
            let Some(head_end) = self.scan_blank_line() else {
                return if self.buf.len() > MAX_HEAD {
                    Parse::Reject {
                        status: 431,
                        reason: "request head too large",
                    }
                } else {
                    Parse::NeedMore
                };
            };
            if head_end > MAX_HEAD {
                return Parse::Reject {
                    status: 431,
                    reason: "request head too large",
                };
            }
            match parse_head(&self.buf[..head_end]) {
                Ok((method, path, content_length, keep_alive)) => {
                    if content_length > self.max_body {
                        return Parse::Reject {
                            status: 413,
                            reason: "request body too large",
                        };
                    }
                    self.head = Some((method, path, content_length, head_end, keep_alive));
                }
                Err((status, reason)) => return Parse::Reject { status, reason },
            }
        }
        let Some((method, path, content_length, body_start, keep_alive)) = self.head.as_ref()
        else {
            // Unreachable: the head is assigned directly above on the only
            // path that reaches here.
            return Parse::NeedMore;
        };
        let have = self.buf.len() - body_start;
        if have < *content_length {
            return Parse::NeedMore;
        }
        let request = Request {
            method: *method,
            path: path.clone(),
            body: self.buf[*body_start..*body_start + *content_length].to_vec(),
            keep_alive: *keep_alive,
        };
        // Consume exactly this request's bytes and re-arm: pipelined
        // surplus shifts down and the next poll() parses it from scratch.
        let consumed = *body_start + *content_length;
        self.buf.drain(..consumed);
        self.head = None;
        self.scan_from = 0;
        Parse::Ready(request)
    }

    /// Incremental blank-line scan: examines only bytes at or after
    /// `scan_from`, then parks the cursor three bytes before the end so a
    /// terminator split across chunks is still found. Returns the offset
    /// just past the `\r\n\r\n` (or `\n\n`) terminating the head.
    fn scan_blank_line(&mut self) -> Option<usize> {
        let buf = &self.buf;
        for i in self.scan_from..buf.len() {
            self.scanned += 1;
            if buf[i..].starts_with(b"\r\n\r\n") {
                return Some(i + 4);
            }
            if buf[i..].starts_with(b"\n\n") {
                return Some(i + 2);
            }
        }
        // A terminator may straddle the chunk boundary: resume early
        // enough to re-see up to 3 trailing bytes of a split `\r\n\r\n`.
        self.scan_from = buf.len().saturating_sub(3);
        None
    }
}

type HeadFields = (Method, String, usize, bool);

fn parse_head(head: &[u8]) -> Result<HeadFields, (u16, &'static str)> {
    let text = std::str::from_utf8(head).map_err(|_| (400u16, "non-UTF-8 request head"))?;
    let mut lines = text.lines();
    let request_line = lines.next().ok_or((400, "empty request"))?;
    if request_line.trim().is_empty() {
        return Err((400, "empty request"));
    }
    let mut parts = request_line.split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        _ => return Err((405, "method not allowed")),
    };
    let raw_path = parts.next().ok_or((400, "missing request path"))?;
    let path = raw_path.split('?').next().unwrap_or(raw_path).to_string();
    // HTTP/1.1 defaults to keep-alive; a 1.0 request line must opt in.
    let http10 = parts.next() == Some("HTTP/1.0");
    let mut content_length: Option<usize> = None;
    let mut connection: Option<bool> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value.parse().map_err(|_| (400, "bad Content-Length"))?;
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err((400, "conflicting Content-Length"));
            }
            if content_length.is_some() {
                // Even an agreeing duplicate is the request-smuggling
                // shape — reject rather than guess which one a proxy saw.
                return Err((400, "duplicate Content-Length"));
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err((400, "Transfer-Encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.eq_ignore_ascii_case("keep-alive"));
        }
    }
    let keep_alive = connection.unwrap_or(!http10);
    let content_length = match (method, content_length) {
        (Method::Get, Some(n)) if n > 0 => {
            // A GET body would sit in the buffer and be misparsed as the
            // next request's head once the connection is reused.
            return Err((400, "GET request must not carry a body"));
        }
        (Method::Get, _) => 0,
        (Method::Post, Some(n)) => n,
        (Method::Post, None) => return Err((411, "Content-Length required")),
    };
    Ok((method, path, content_length, keep_alive))
}

/// Builds a complete HTTP response: status line, `Content-Type`,
/// `Content-Length`, `Connection` (`keep-alive` when the server will keep
/// the connection open, else `close`), an optional `Retry-After` (load-shed
/// responses), then the body.
pub fn response(
    status: u16,
    content_type: &str,
    body: &str,
    retry_after_s: Option<u64>,
    keep_alive: bool,
) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len(),
    );
    if let Some(s) = retry_after_s {
        head.push_str(&format!("Retry-After: {s}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(parser: &mut RequestParser, bytes: &[u8]) -> Parse {
        parser.feed(bytes)
    }

    #[test]
    fn parses_a_post_fed_byte_by_byte() {
        let raw = b"POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let mut parser = RequestParser::new(64);
        let mut verdict = Parse::NeedMore;
        for &b in raw.iter() {
            verdict = parser.feed(&[b]);
            if !matches!(verdict, Parse::NeedMore) && b != *raw.last().unwrap() {
                // Only the final byte may complete the request.
                assert_eq!(verdict, Parse::NeedMore);
            }
        }
        match verdict {
            Parse::Ready(req) => {
                assert_eq!(req.method, Method::Post);
                assert_eq!(req.path, "/infer");
                assert_eq!(req.body, b"abcd");
                assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(parser.buffered(), 0, "request bytes fully consumed");
    }

    #[test]
    fn get_strips_query_and_connection_header_is_honored() {
        let mut parser = RequestParser::new(0);
        match feed_all(
            &mut parser,
            b"GET /stats?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
        ) {
            Parse::Ready(req) => {
                assert_eq!(req.method, Method::Get);
                assert_eq!(req.path, "/stats");
                assert!(req.body.is_empty());
                assert!(!req.keep_alive, "Connection: close honored");
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        let mut parser = RequestParser::new(0);
        match feed_all(
            &mut parser,
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ) {
            Parse::Ready(req) => assert!(req.keep_alive, "1.0 opts in explicitly"),
            other => panic!("expected Ready, got {other:?}"),
        }
        let mut parser = RequestParser::new(0);
        match feed_all(&mut parser, b"GET /healthz HTTP/1.0\r\n\r\n") {
            Parse::Ready(req) => assert!(!req.keep_alive, "HTTP/1.0 defaults to close"),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_conflicting_content_length_are_rejected() {
        // Conflicting values: the classic smuggling vector.
        let mut parser = RequestParser::new(64);
        let verdict = feed_all(
            &mut parser,
            b"POST /infer HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 6\r\n\r\nabcdef",
        );
        assert_eq!(
            verdict,
            Parse::Reject {
                status: 400,
                reason: "conflicting Content-Length"
            }
        );
        // Agreeing duplicates are rejected too — never guess which copy an
        // intermediary honored.
        let mut parser = RequestParser::new(64);
        let verdict = feed_all(
            &mut parser,
            b"POST /infer HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        );
        assert_eq!(
            verdict,
            Parse::Reject {
                status: 400,
                reason: "duplicate Content-Length"
            }
        );
    }

    #[test]
    fn get_with_a_body_is_rejected_not_buffered() {
        let mut parser = RequestParser::new(64);
        let verdict = feed_all(
            &mut parser,
            b"GET /stats HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert_eq!(
            verdict,
            Parse::Reject {
                status: 400,
                reason: "GET request must not carry a body"
            }
        );
        // A zero-length Content-Length on GET stays harmless.
        let mut parser = RequestParser::new(64);
        assert!(matches!(
            feed_all(
                &mut parser,
                b"GET /stats HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            ),
            Parse::Ready(_)
        ));
    }

    #[test]
    fn transfer_encoding_is_rejected_with_400() {
        let mut parser = RequestParser::new(64);
        let verdict = feed_all(
            &mut parser,
            b"POST /infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        );
        assert_eq!(
            verdict,
            Parse::Reject {
                status: 400,
                reason: "Transfer-Encoding not supported"
            }
        );
    }

    #[test]
    fn content_length_tolerates_padding_and_rejects_overflow() {
        // Whitespace-padded value parses.
        let mut parser = RequestParser::new(64);
        match feed_all(
            &mut parser,
            b"POST /infer HTTP/1.1\r\nContent-Length:    4   \r\n\r\nabcd",
        ) {
            Parse::Ready(req) => assert_eq!(req.body, b"abcd"),
            other => panic!("expected Ready, got {other:?}"),
        }
        // A 10+-digit length within usize range is an oversize, not a hang.
        let mut parser = RequestParser::new(64);
        assert_eq!(
            feed_all(
                &mut parser,
                b"POST /infer HTTP/1.1\r\nContent-Length: 4294967296\r\n\r\n",
            ),
            Parse::Reject {
                status: 413,
                reason: "request body too large"
            }
        );
        // A length that overflows the integer type is malformed, not huge.
        let mut parser = RequestParser::new(64);
        assert_eq!(
            feed_all(
                &mut parser,
                b"POST /infer HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
            ),
            Parse::Reject {
                status: 400,
                reason: "bad Content-Length"
            }
        );
    }

    #[test]
    fn bare_lf_head_terminator_is_accepted() {
        let mut parser = RequestParser::new(64);
        match feed_all(&mut parser, b"GET /healthz HTTP/1.1\nHost: x\n\n") {
            Parse::Ready(req) => assert_eq!(req.path, "/healthz"),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_and_rearm() {
        let mut parser = RequestParser::new(64);
        // Two requests arriving in a single chunk: the first is returned,
        // the second stays buffered and comes out of the next poll().
        let chunk =
            b"POST /infer HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /stats HTTP/1.1\r\n\r\n";
        match parser.feed(chunk) {
            Parse::Ready(req) => {
                assert_eq!(req.method, Method::Post);
                assert_eq!(req.body, b"abc");
            }
            other => panic!("expected first Ready, got {other:?}"),
        }
        assert!(parser.buffered() > 0, "second request still buffered");
        match parser.poll() {
            Parse::Ready(req) => {
                assert_eq!(req.method, Method::Get);
                assert_eq!(req.path, "/stats");
            }
            other => panic!("expected second Ready, got {other:?}"),
        }
        assert_eq!(parser.buffered(), 0);
        assert_eq!(parser.poll(), Parse::NeedMore, "parser re-armed and idle");
    }

    #[test]
    fn head_scan_is_linear_under_drip_feeding() {
        // A near-MAX_HEAD request dripped one byte at a time: the scan
        // counter must stay linear (each byte examined O(1) times), where
        // the old rescan-from-zero behavior cost ~n²/2 examinations.
        let mut head = b"GET /stats HTTP/1.1\r\nX-Pad: ".to_vec();
        head.extend(std::iter::repeat_n(b'a', 2_000));
        head.extend_from_slice(b"\r\n\r\n");
        let n = head.len() as u64;
        let mut parser = RequestParser::new(64);
        let mut verdict = Parse::NeedMore;
        for &b in &head {
            verdict = parser.feed(&[b]);
        }
        assert!(matches!(verdict, Parse::Ready(_)));
        assert!(
            parser.scan_work() <= 4 * n,
            "scan examined {} bytes for a {n}-byte head (quadratic rescan?)",
            parser.scan_work()
        );
    }

    #[test]
    fn oversized_bodies_and_heads_are_rejected() {
        let mut parser = RequestParser::new(8);
        let verdict = feed_all(
            &mut parser,
            b"POST /infer HTTP/1.1\r\nContent-Length: 9\r\n\r\n",
        );
        assert_eq!(
            verdict,
            Parse::Reject {
                status: 413,
                reason: "request body too large"
            }
        );
        let mut parser = RequestParser::new(8);
        let huge = vec![b'a'; MAX_HEAD + 1];
        assert!(matches!(
            feed_all(&mut parser, &huge),
            Parse::Reject { status: 431, .. }
        ));
    }

    #[test]
    fn bad_requests_get_specific_statuses() {
        let cases: &[(&[u8], u16)] = &[
            (b"PUT /infer HTTP/1.1\r\n\r\n", 405),
            (b"POST /infer HTTP/1.1\r\n\r\n", 411),
            (b"POST /infer HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
            (b"\r\n\r\n", 400),
        ];
        for (raw, status) in cases {
            let mut parser = RequestParser::new(64);
            match feed_all(&mut parser, raw) {
                Parse::Reject { status: s, .. } => assert_eq!(s, *status, "{raw:?}"),
                other => panic!("{raw:?}: expected Reject({status}), got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_body_stays_incomplete() {
        let mut parser = RequestParser::new(64);
        let verdict = feed_all(
            &mut parser,
            b"POST /infer HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        );
        assert_eq!(verdict, Parse::NeedMore);
    }

    #[test]
    fn responses_carry_status_length_and_retry_after() {
        let shed = response(429, JSON, "{\"error\":\"shed\"}", Some(2), false);
        let shed = String::from_utf8(shed).unwrap();
        assert!(shed.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(shed.contains("Retry-After: 2\r\n"));
        assert!(shed.contains("Content-Length: 16\r\n"));
        assert!(shed.contains("application/json"));
        assert!(shed.contains("Connection: close\r\n"));
        assert!(shed.ends_with("{\"error\":\"shed\"}"));
        let ok = String::from_utf8(response(200, TEXT, "ok\n", None, true)).unwrap();
        assert!(ok.contains("text/plain"));
        assert!(ok.contains("Connection: keep-alive\r\n"));
        assert!(!ok.contains("Retry-After"));
    }
}
