//! Deterministic network simulation: scripted clients over a
//! [`VirtualClock`].
//!
//! A [`SimNet`] is an in-memory [`Transport`] whose connections follow
//! byte-level scripts pinned to virtual timestamps: "at t=1200µs this
//! client's next 40 bytes become readable", "at t=5000µs it disconnects".
//! Combined with the virtual clock this makes serving scenarios exact
//! replays — open-loop arrival processes, slow-loris dribble, mid-request
//! disconnects, keep-alive conversations — with the response bytes and
//! completion order observable through [`ClientHandle`]s. Scripts are
//! shared with their handle, so a test (or a closed-loop bench client)
//! can append follow-up requests with [`ClientHandle::send_at`] after
//! observing a response. The load-simulation and fault-injection suites
//! are written entirely against this module; nothing here touches real
//! sockets or wall time.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::clock::{Clock, VirtualClock};
use crate::transport::{Connection, Io, Transport};

/// One scripted client action, pinned to an absolute virtual time.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// Bytes that become readable at the given time.
    Bytes(Vec<u8>),
    /// The client disconnects at the given time (mid-request hangup).
    Hangup,
}

type Script = Rc<RefCell<VecDeque<(u64, Chunk)>>>;

/// The client-observable side of a simulated connection.
#[derive(Debug, Default)]
pub struct ClientSide {
    /// Response bytes the server has written so far.
    pub response: Vec<u8>,
    /// Virtual time at which the server closed the connection (response
    /// complete or aborted).
    pub closed_at: Option<u64>,
    /// Global completion index: the n-th connection the server closed.
    /// This is the completion-order fingerprint the determinism suite
    /// compares across runs and thread counts.
    pub completion_index: Option<u64>,
}

/// Shared handle onto a simulated client (the test's view).
#[derive(Debug, Clone)]
pub struct ClientHandle {
    side: Rc<RefCell<ClientSide>>,
    script: Script,
}

impl ClientHandle {
    /// The full response text received so far (all responses, for a
    /// kept-alive connection).
    pub fn response_text(&self) -> String {
        String::from_utf8_lossy(&self.side.borrow().response).into_owned()
    }

    /// The status code of the *first* response, if a status line arrived.
    pub fn status(&self) -> Option<u16> {
        let side = self.side.borrow();
        let text = std::str::from_utf8(&side.response).ok()?;
        let line = text.lines().next()?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// The body of the *first* complete response, as text.
    pub fn body(&self) -> String {
        self.responses()
            .into_iter()
            .next()
            .map(|(_, body)| body)
            .unwrap_or_default()
    }

    /// Every complete `(status, body)` response received so far, in
    /// arrival order — the keep-alive view. Responses are delimited by
    /// `Content-Length`; a trailing partial response is omitted.
    pub fn responses(&self) -> Vec<(u16, String)> {
        split_responses(&self.side.borrow().response)
    }

    /// Status codes of every complete response received so far.
    pub fn statuses(&self) -> Vec<u16> {
        self.responses().into_iter().map(|(s, _)| s).collect()
    }

    /// Appends bytes to this client's script at an absolute virtual time
    /// (closed-loop clients: send the next request after seeing the
    /// previous response). Times must be non-decreasing along the script.
    pub fn send_at(&self, at: u64, bytes: Vec<u8>) {
        self.script
            .borrow_mut()
            .push_back((at, Chunk::Bytes(bytes)));
    }

    /// When the server closed this connection (virtual µs), if it has.
    pub fn closed_at(&self) -> Option<u64> {
        self.side.borrow().closed_at
    }

    /// This connection's global completion index, if closed.
    pub fn completion_index(&self) -> Option<u64> {
        self.side.borrow().completion_index
    }
}

/// Splits a byte stream of back-to-back HTTP responses into complete
/// `(status, body)` pairs, honoring `Content-Length` (responses the
/// server emits always carry one). A trailing partial response is
/// dropped. Real-socket clients read through it too.
pub fn split_responses(stream: &[u8]) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    let mut rest = stream;
    while let Some((head_len, term_len)) = find_head_end(rest) {
        let head = String::from_utf8_lossy(&rest[..head_len]);
        let Some(status) = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
        else {
            break;
        };
        let content_length = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let body_start = head_len + term_len;
        if rest.len() < body_start + content_length {
            break; // body still in flight
        }
        let body =
            String::from_utf8_lossy(&rest[body_start..body_start + content_length]).into_owned();
        out.push((status, body));
        rest = &rest[body_start + content_length..];
        if rest.is_empty() {
            break;
        }
    }
    out
}

/// Finds the end of a response head: returns `(head_len, terminator_len)`
/// for the earliest `\r\n\r\n` or `\n\n`.
fn find_head_end(bytes: &[u8]) -> Option<(usize, usize)> {
    for i in 0..bytes.len() {
        if bytes[i..].starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if bytes[i..].starts_with(b"\n\n") {
            return Some((i, 2));
        }
    }
    None
}

struct SimConn {
    clock: VirtualClock,
    script: Script,
    /// Read offset into the front chunk.
    cursor: usize,
    side: Rc<RefCell<ClientSide>>,
    /// Per-call write cap (simulates a congested client; `usize::MAX`
    /// means unlimited).
    write_limit: usize,
    completions: Rc<RefCell<u64>>,
    closed: bool,
}

impl Connection for SimConn {
    fn poll_read(&mut self, buf: &mut [u8]) -> Io {
        let now = self.clock.now_us();
        let mut script = self.script.borrow_mut();
        let Some((at, chunk)) = script.front() else {
            return Io::WouldBlock;
        };
        if *at > now {
            return Io::WouldBlock;
        }
        match chunk {
            Chunk::Hangup => Io::Closed,
            Chunk::Bytes(bytes) => {
                let remaining = &bytes[self.cursor..];
                let n = remaining.len().min(buf.len());
                buf[..n].copy_from_slice(&remaining[..n]);
                self.cursor += n;
                if self.cursor >= bytes.len() {
                    script.pop_front();
                    self.cursor = 0;
                }
                if n == 0 {
                    // An empty scripted chunk: treat as no progress.
                    script.pop_front();
                    Io::WouldBlock
                } else {
                    Io::Data(n)
                }
            }
        }
    }

    fn poll_write(&mut self, data: &[u8]) -> Io {
        // A hung-up client rejects writes too (once its hangup time has
        // passed): the server sees the disconnect on the write path.
        let now = self.clock.now_us();
        if self
            .script
            .borrow()
            .front()
            .is_some_and(|(at, c)| matches!(c, Chunk::Hangup) && *at <= now)
        {
            return Io::Closed;
        }
        let n = data.len().min(self.write_limit);
        if n == 0 {
            return Io::WouldBlock;
        }
        self.side
            .borrow_mut()
            .response
            .extend_from_slice(&data[..n]);
        Io::Data(n)
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut side = self.side.borrow_mut();
        side.closed_at = Some(self.clock.now_us());
        let mut seq = self.completions.borrow_mut();
        side.completion_index = Some(*seq);
        *seq += 1;
    }
}

struct SimNetInner {
    clock: VirtualClock,
    /// Pending connections: (arrival time, admission sequence, conn).
    /// Kept sorted by (arrival, seq) so accepts happen in schedule order.
    arrivals: Vec<(u64, u64, SimConn)>,
    next_seq: u64,
    completions: Rc<RefCell<u64>>,
}

/// A simulated listener; clone handles freely (all clones share state).
#[derive(Clone)]
pub struct SimNet {
    inner: Rc<RefCell<SimNetInner>>,
}

impl SimNet {
    /// A network on the given clock.
    pub fn new(clock: &VirtualClock) -> Self {
        SimNet {
            inner: Rc::new(RefCell::new(SimNetInner {
                clock: clock.clone(),
                arrivals: Vec::new(),
                next_seq: 0,
                completions: Rc::new(RefCell::new(0)),
            })),
        }
    }

    /// Schedules a client that connects at `connect_at` and plays
    /// `script` (each chunk pinned to its own absolute time), returning
    /// the handle the test observes the response through (and can extend
    /// with [`ClientHandle::send_at`]).
    pub fn connect_at(&self, connect_at: u64, script: Vec<(u64, Chunk)>) -> ClientHandle {
        self.connect_throttled(connect_at, script, usize::MAX)
    }

    /// Like [`SimNet::connect_at`] with a per-call write cap, simulating
    /// a client that drains the response slowly.
    pub fn connect_throttled(
        &self,
        connect_at: u64,
        script: Vec<(u64, Chunk)>,
        write_limit: usize,
    ) -> ClientHandle {
        let mut inner = self.inner.borrow_mut();
        let side = Rc::new(RefCell::new(ClientSide::default()));
        let script: Script = Rc::new(RefCell::new(script.into_iter().collect()));
        let conn = SimConn {
            clock: inner.clock.clone(),
            script: Rc::clone(&script),
            cursor: 0,
            side: Rc::clone(&side),
            write_limit,
            completions: Rc::clone(&inner.completions),
            closed: false,
        };
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.arrivals.push((connect_at, seq, conn));
        inner.arrivals.sort_by_key(|(at, seq, _)| (*at, *seq));
        ClientHandle { side, script }
    }

    /// Schedules an ordinary single-shot request: connect and send the
    /// whole request at `at`.
    pub fn request_at(&self, at: u64, request: Vec<u8>) -> ClientHandle {
        self.connect_at(at, vec![(at, Chunk::Bytes(request))])
    }

    /// Connections not yet accepted by the server.
    pub fn pending(&self) -> usize {
        self.inner.borrow().arrivals.len()
    }
}

impl Transport for SimNet {
    fn poll_accept(&mut self) -> Option<Box<dyn Connection>> {
        let mut inner = self.inner.borrow_mut();
        let now = inner.clock.now_us();
        if inner.arrivals.first().is_some_and(|(at, _, _)| *at <= now) {
            let (_, _, conn) = inner.arrivals.remove(0);
            Some(Box::new(conn))
        } else {
            None
        }
    }
}

fn infer_body(sample: &[f32], deadline_us: Option<u64>) -> String {
    let mut body = String::from("{\"sample\":[");
    for (i, v) in sample.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        tcl_telemetry::json::number_into(f64::from(*v), &mut body);
    }
    body.push(']');
    if let Some(d) = deadline_us {
        body.push_str(",\"deadline_us\":");
        body.push_str(&d.to_string());
    }
    body.push('}');
    body
}

/// Builds the HTTP bytes of one single-shot `/infer` request
/// (`Connection: close`: the client hangs up after one answer).
pub fn infer_request(sample: &[f32], deadline_us: Option<u64>) -> Vec<u8> {
    let body = infer_body(sample, deadline_us);
    let mut out = format!(
        "POST /infer HTTP/1.1\r\nHost: sim\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Builds the HTTP bytes of one `/infer` request on a kept-alive
/// connection (no `Connection` header: HTTP/1.1 defaults to keep-alive).
pub fn infer_request_keep_alive(sample: &[f32], deadline_us: Option<u64>) -> Vec<u8> {
    let body = infer_body(sample, deadline_us);
    let mut out = format!(
        "POST /infer HTTP/1.1\r\nHost: sim\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Builds the HTTP bytes of a single-shot GET request
/// (`Connection: close`).
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Builds the HTTP bytes of a GET request on a kept-alive connection.
pub fn get_request_keep_alive(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: sim\r\n\r\n").into_bytes()
}

/// Concatenates requests into one pipelined byte blob (sent in a single
/// chunk, the requests arrive back-to-back in the server's read buffer).
pub fn pipelined(requests: &[Vec<u8>]) -> Vec<u8> {
    requests.iter().flat_map(|r| r.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_bytes_become_readable_on_schedule() {
        let clock = VirtualClock::new();
        let mut net = SimNet::new(&clock);
        let _client = net.connect_at(
            100,
            vec![
                (100, Chunk::Bytes(b"hel".to_vec())),
                (300, Chunk::Bytes(b"lo".to_vec())),
            ],
        );
        assert!(net.poll_accept().is_none(), "not connected yet");
        clock.advance(100);
        let mut conn = net.poll_accept().expect("arrival due");
        assert!(net.poll_accept().is_none(), "only one client");
        let mut buf = [0u8; 16];
        assert_eq!(conn.poll_read(&mut buf), Io::Data(3));
        assert_eq!(&buf[..3], b"hel");
        assert_eq!(conn.poll_read(&mut buf), Io::WouldBlock, "chunk 2 not due");
        clock.advance(200);
        assert_eq!(conn.poll_read(&mut buf), Io::Data(2));
        assert_eq!(conn.poll_read(&mut buf), Io::WouldBlock, "script drained");
    }

    #[test]
    fn hangup_surfaces_on_read_and_write() {
        let clock = VirtualClock::new();
        let mut net = SimNet::new(&clock);
        let client = net.connect_at(
            0,
            vec![(0, Chunk::Bytes(b"PARTIAL".to_vec())), (50, Chunk::Hangup)],
        );
        let mut conn = net.poll_accept().expect("due");
        let mut buf = [0u8; 16];
        assert_eq!(conn.poll_read(&mut buf), Io::Data(7));
        assert_eq!(conn.poll_read(&mut buf), Io::WouldBlock, "hangup not due");
        clock.advance(50);
        assert_eq!(conn.poll_read(&mut buf), Io::Closed);
        assert_eq!(conn.poll_write(b"x"), Io::Closed);
        conn.close();
        assert_eq!(client.closed_at(), Some(50));
        assert_eq!(client.completion_index(), Some(0));
    }

    #[test]
    fn writes_land_in_the_client_handle() {
        let clock = VirtualClock::new();
        let mut net = SimNet::new(&clock);
        let client = net.connect_throttled(0, vec![], 4);
        let mut conn = net.poll_accept().expect("due");
        assert_eq!(
            conn.poll_write(b"HTTP/1.1 200 OK"),
            Io::Data(4),
            "throttled"
        );
        assert_eq!(conn.poll_write(b"/1.1 200 OK"), Io::Data(4));
        assert_eq!(client.response_text(), "HTTP/1.1");
    }

    #[test]
    fn accepts_follow_schedule_order_not_insertion_order() {
        let clock = VirtualClock::new();
        let mut net = SimNet::new(&clock);
        let _late = net.connect_at(500, vec![(500, Chunk::Bytes(b"B".to_vec()))]);
        let _early = net.connect_at(100, vec![(100, Chunk::Bytes(b"A".to_vec()))]);
        clock.advance(500);
        let mut first = net.poll_accept().expect("two due");
        let mut buf = [0u8; 1];
        assert_eq!(first.poll_read(&mut buf), Io::Data(1));
        assert_eq!(buf[0], b'A', "earlier arrival accepted first");
        let mut second = net.poll_accept().expect("second due");
        assert_eq!(second.poll_read(&mut buf), Io::Data(1));
        assert_eq!(buf[0], b'B');
    }

    #[test]
    fn request_builders_emit_valid_http() {
        let req = String::from_utf8(infer_request(&[0.5, 1.0], Some(800))).unwrap();
        assert!(req.starts_with("POST /infer HTTP/1.1\r\n"));
        assert!(req.contains("Connection: close\r\n"), "single-shot closes");
        let body = req.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body, "{\"sample\":[0.5,1.0],\"deadline_us\":800}");
        assert!(req.contains(&format!("Content-Length: {}\r\n", body.len())));
        let ka = String::from_utf8(infer_request_keep_alive(&[0.5], None)).unwrap();
        assert!(!ka.contains("Connection:"), "keep-alive is the 1.1 default");
        let get = String::from_utf8(get_request("/healthz")).unwrap();
        assert_eq!(
            get,
            "GET /healthz HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(
            String::from_utf8(get_request_keep_alive("/stats")).unwrap(),
            "GET /stats HTTP/1.1\r\nHost: sim\r\n\r\n"
        );
    }

    #[test]
    fn send_at_extends_a_live_script() {
        let clock = VirtualClock::new();
        let mut net = SimNet::new(&clock);
        let client = net.connect_at(0, vec![(0, Chunk::Bytes(b"one".to_vec()))]);
        let mut conn = net.poll_accept().expect("due");
        let mut buf = [0u8; 16];
        assert_eq!(conn.poll_read(&mut buf), Io::Data(3));
        assert_eq!(conn.poll_read(&mut buf), Io::WouldBlock, "script empty");
        client.send_at(200, b"two".to_vec());
        assert_eq!(conn.poll_read(&mut buf), Io::WouldBlock, "not due yet");
        clock.advance(200);
        assert_eq!(conn.poll_read(&mut buf), Io::Data(3));
        assert_eq!(&buf[..3], b"two");
    }

    #[test]
    fn responses_splits_a_keep_alive_stream() {
        let clock = VirtualClock::new();
        let mut net = SimNet::new(&clock);
        let client = net.connect_at(0, vec![]);
        let mut conn = net.poll_accept().expect("due");
        let stream = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n\
                       HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\nno\
                       HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\npartial";
        assert!(matches!(conn.poll_write(stream), Io::Data(_)));
        assert_eq!(
            client.responses(),
            vec![(200, "ok\n".to_string()), (429, "no".to_string())],
            "trailing partial response omitted"
        );
        assert_eq!(client.statuses(), vec![200, 429]);
        assert_eq!(client.status(), Some(200), "first response");
        assert_eq!(client.body(), "ok\n");
    }
}
