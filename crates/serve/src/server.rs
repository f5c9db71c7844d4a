//! The serving state machine: request admission, continuous batching,
//! deadlines, load shedding, connection reuse, and drain.
//!
//! One [`Server`] owns a [`Transport`] (where requests come from), a
//! [`Backend`] (the lane engine doing inference), and a [`Clock`] (what
//! time it is). Everything happens inside [`Server::tick`], one scheduling
//! quantum: accept new connections, pump request bytes, admit parsed
//! requests into free lanes (or the bounded queue, or shed them), advance
//! the engine up to `steps_per_tick` timesteps, turn retired lanes into
//! responses, and flush writes. There are no threads and no blocking calls
//! in this file — the driver (the `tcl_serve` binary's socket loop, or a
//! test harness on a [`VirtualClock`](crate::VirtualClock)) decides how
//! often ticks happen and how time advances, which is what makes the whole
//! machine deterministic under simulation.
//!
//! ## Connection reuse
//!
//! The server speaks HTTP/1.1 keep-alive: after a `200` response it
//! consumes exactly the parsed request's bytes, re-arms the incremental
//! parser on the same connection, and parses the next request from any
//! pipelined surplus already buffered. Requests on one connection are
//! processed strictly in arrival order, one in flight at a time — a
//! pipelined request is not even parsed until the previous response has
//! been fully written, so responses can never interleave or reorder (and a
//! pipelined request cannot EDF-jump its own predecessor). Reuse is
//! bounded two ways: `max_requests_per_conn` caps requests per connection
//! (the final response advertises `Connection: close`), and
//! `idle_timeout_us` reaps kept-alive connections with no request bytes.
//! Error responses (any non-200) always close — the parser may be
//! unsynchronized with the client after a malformed request, and guessing
//! is how request smuggling starts.
//!
//! ## Admission and deadlines
//!
//! A request's `deadline_us` is mapped onto the exit policy's currency —
//! timesteps — via `us_per_step`: the lane gets a step budget of
//! `min(deadline_us / us_per_step, max_steps)` and retires unconditionally
//! when the budget is spent, so a deadline bounds simulation work *before*
//! the work starts rather than cancelling it midway. A free lane admits
//! immediately (joining the running timestep loop — continuous batching);
//! otherwise the request waits in a bounded queue ordered
//! **deadline-earliest-first**: the queued request whose absolute deadline
//! expires soonest is admitted first, deadline-less requests rank last,
//! and ties (including all the deadline-less requests among themselves)
//! break FIFO by arrival. A full queue sheds with `429` + `Retry-After`.
//! Queued requests that can no longer finish by their deadline are shed
//! *early*, so every shed answer still arrives before the deadline it
//! failed to meet.
//!
//! ## Faults
//!
//! Client misbehavior (mid-request disconnects, slow-loris dribble,
//! oversized bodies) affects only the offending connection and increments
//! a `serve.faults.*` counter. A keep-alive client that closes between
//! requests is a clean close, not a fault. A failing backend step is
//! survived too: the server rebuilds the backend from its factory and
//! re-submits every in-flight request from step zero.

use std::collections::BTreeMap;

use crate::backend::{Backend, Completion};
use crate::clock::Clock;
use crate::transport::{Connection, Io, Transport};
use tcl_obs::export::render_prometheus;
use tcl_obs::http::{self, Method, Parse, RequestParser};
use tcl_snn::ExitPolicy;
use tcl_telemetry::json;
use tcl_tensor::{Result, TensorError};

/// Factory rebuilding the backend after a fatal engine fault.
pub type BackendFactory = Box<dyn FnMut() -> Box<dyn Backend>>;

/// Static configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent inference lanes (the backend's batch capacity).
    pub capacity: usize,
    /// Bounded admission queue depth; beyond it requests are shed.
    pub queue_depth: usize,
    /// Per-sample feature dims (without the batch dim); request samples
    /// must flatten to this product.
    pub feat_dims: Vec<usize>,
    /// Exit policy driving per-lane early exit (the same policy
    /// [`tcl_snn::Engine`] uses for batch evaluation).
    pub policy: ExitPolicy,
    /// Step budget cap, and the default budget for deadline-less requests.
    pub max_steps: usize,
    /// Deadline currency conversion: one timestep costs this many
    /// microseconds of budget when mapping `deadline_us` to steps.
    pub us_per_step: u64,
    /// Engine timesteps one tick may run (the scheduling quantum).
    pub steps_per_tick: usize,
    /// Maximum request body bytes.
    pub max_body: usize,
    /// A connection still mid-request after this long is timed out
    /// (slow-loris guard; measured from the current request's first byte,
    /// or from accept for a connection that never sent one).
    pub head_timeout_us: u64,
    /// Maximum simultaneously open connections; beyond it new connections
    /// are answered `503` immediately.
    pub max_conns: usize,
    /// Requests served per connection before the server closes it (the
    /// keep-alive cap; `1` reproduces the close-per-request dialect).
    pub max_requests_per_conn: usize,
    /// A kept-alive connection with no request bytes for this long is
    /// closed silently (idle keep-alive reaping).
    pub idle_timeout_us: u64,
}

impl ServeConfig {
    /// The `tcl_serve` binary's configuration: `capacity` lanes over samples
    /// of `feat_dims`, a queue of four per lane, adaptive exit (patience 8,
    /// margin 2, at least 16 steps) within `max_steps`, 50 µs per step.
    pub fn production(feat_dims: &[usize], capacity: usize, max_steps: usize) -> Self {
        ServeConfig {
            capacity,
            queue_depth: capacity * 4,
            feat_dims: feat_dims.to_vec(),
            policy: ExitPolicy::Adaptive {
                patience: 8,
                min_margin: 2.0,
                min_steps: 16,
            },
            max_steps,
            us_per_step: 50,
            steps_per_tick: 64,
            max_body: 64 * 1024,
            head_timeout_us: 2_000_000,
            max_conns: 256,
            max_requests_per_conn: 256,
            idle_timeout_us: 5_000_000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for zero sizes/rates or an invalid exit policy.
    pub fn validate(&self) -> Result<()> {
        self.policy.validate()?;
        let checks: [(&str, bool); 9] = [
            ("capacity", self.capacity >= 1),
            (
                "feat_dims product",
                self.feat_dims.iter().product::<usize>() >= 1,
            ),
            ("max_steps", self.max_steps >= 1),
            ("us_per_step", self.us_per_step >= 1),
            ("steps_per_tick", self.steps_per_tick >= 1),
            ("head_timeout_us", self.head_timeout_us >= 1),
            ("max_conns", self.max_conns >= 1),
            ("max_requests_per_conn", self.max_requests_per_conn >= 1),
            ("idle_timeout_us", self.idle_timeout_us >= 1),
        ];
        for (name, ok) in checks {
            if !ok {
                return Err(TensorError::InvalidArgument {
                    detail: format!("serve config: {name} must be at least 1"),
                });
            }
        }
        Ok(())
    }

    /// Flattened sample length a request must carry.
    pub fn feat_len(&self) -> usize {
        self.feat_dims.iter().product()
    }

    /// Maps a relative deadline to a lane step budget (capped at
    /// `max_steps`; 0 means the deadline is infeasible).
    pub fn budget_for(&self, deadline_us: Option<u64>) -> usize {
        match deadline_us {
            None => self.max_steps,
            Some(d) => usize::try_from(d / self.us_per_step)
                .unwrap_or(self.max_steps)
                .min(self.max_steps),
        }
    }

    /// The fewest timesteps a lane with `budget` can possibly run before
    /// producing an answer (used to shed queued requests that can no
    /// longer meet their deadline).
    fn min_possible_steps(&self, budget: usize) -> usize {
        match self.policy {
            ExitPolicy::Off => budget,
            ExitPolicy::Adaptive {
                patience,
                min_steps,
                ..
            } => patience.max(min_steps).max(1).min(budget),
        }
    }

    /// Advisory `Retry-After` seconds for shed responses.
    fn retry_after_s(&self) -> u64 {
        ((self.max_steps as u64).saturating_mul(self.us_per_step) / 1_000_000).max(1)
    }
}

/// Counters the server maintains regardless of telemetry gating (the
/// `serve.*` telemetry counters mirror these when metrics are enabled).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Well-formed inference requests received.
    pub requests: u64,
    /// Responses fully written (any status).
    pub responses: u64,
    /// Inference answers served (status 200).
    pub completed: u64,
    /// Completions that retired early on margin stability.
    pub early_exits: u64,
    /// Requests shed for load (429/503 answers).
    pub shed: u64,
    /// Completions delivered after their deadline.
    pub deadline_miss: u64,
    /// Requests parsed on a reused (kept-alive) connection.
    pub reused: u64,
    /// Kept-alive connections reaped by the idle timeout.
    pub idle_closed: u64,
    /// Clients that vanished mid-request or mid-response (a keep-alive
    /// client closing between requests is a clean close, not counted).
    pub faults_disconnect: u64,
    /// Connections timed out while dribbling their request.
    pub faults_slowloris: u64,
    /// Requests rejected for oversized head or body.
    pub faults_oversize: u64,
    /// Backend step failures survived by rebuild + re-submit.
    pub faults_engine: u64,
}

/// What one [`Server::tick`] did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// Engine timesteps advanced this tick.
    pub steps: usize,
    /// Responses completed (fully written) this tick.
    pub responses: usize,
}

/// Per-connection lifecycle phase (the parser itself lives in
/// [`ConnEntry`] so it survives across requests on a reused connection).
enum ConnState {
    /// Accumulating (or waiting for) the next request.
    Reading,
    /// Request admitted (queued or in a lane); response not ready yet.
    Waiting,
    /// Flushing a response.
    Writing { buf: Vec<u8>, off: usize },
}

struct ConnEntry {
    io: Box<dyn Connection>,
    state: ConnState,
    /// Incremental parser, re-armed across requests on this connection.
    parser: RequestParser,
    /// When the current in-progress request started accumulating
    /// (slow-loris guard); `None` while the connection is idle between
    /// keep-alive requests.
    req_started: Option<u64>,
    /// Last request-side activity (bytes read or response finished) —
    /// the idle-timeout reference point.
    idle_since: u64,
    /// Responses completed on this connection.
    served: u64,
    /// Close once the in-flight response is fully written.
    close_after: bool,
}

/// One admitted inference request (queued or running).
#[derive(Debug, Clone)]
struct PendingReq {
    req: u64,
    conn: usize,
    sample: Vec<f32>,
    budget: usize,
    /// Absolute deadline, if the client set one.
    deadline: Option<u64>,
    arrived: u64,
}

/// Deadline-earliest-first admission queue: orders by
/// `(absolute deadline, arrival)`, with deadline-less requests ranking
/// last (`u64::MAX`) and FIFO among themselves. Deterministic: the key is
/// a pure function of the request, and `BTreeMap` iteration is ordered.
#[derive(Default)]
struct EdfQueue {
    map: BTreeMap<(u64, u64), PendingReq>,
}

impl EdfQueue {
    fn key(p: &PendingReq) -> (u64, u64) {
        (p.deadline.unwrap_or(u64::MAX), p.req)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn push(&mut self, p: PendingReq) {
        self.map.insert(Self::key(&p), p);
    }

    /// Removes and returns the most urgent queued request.
    fn pop_earliest(&mut self) -> Option<PendingReq> {
        self.map.pop_first().map(|(_, p)| p)
    }

    /// Removes and returns every queued request matching `hopeless`, in
    /// EDF order.
    fn drain_where(&mut self, mut hopeless: impl FnMut(&PendingReq) -> bool) -> Vec<PendingReq> {
        let keys: Vec<(u64, u64)> = self
            .map
            .iter()
            .filter(|(_, p)| hopeless(p))
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .filter_map(|k| self.map.remove(&k))
            .collect()
    }
}

/// The continuous-batching inference server (see module docs).
pub struct Server<C: Clock> {
    cfg: ServeConfig,
    clock: C,
    transport: Box<dyn Transport>,
    backend: Box<dyn Backend>,
    make_backend: BackendFactory,
    conns: Vec<Option<ConnEntry>>,
    queue: EdfQueue,
    /// In-flight requests keyed by backend lane id.
    running: BTreeMap<u64, PendingReq>,
    stats: ServeStats,
    req_seq: u64,
    draining: bool,
}

impl<C: Clock> Server<C> {
    /// Builds a server; `make_backend` is called once for the initial
    /// backend and again after every fatal backend fault.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or a backend whose
    /// capacity does not match the configured one.
    pub fn new(
        cfg: ServeConfig,
        clock: C,
        transport: Box<dyn Transport>,
        mut make_backend: BackendFactory,
    ) -> Result<Self> {
        cfg.validate()?;
        let backend = make_backend();
        if backend.capacity() != cfg.capacity {
            return Err(TensorError::InvalidArgument {
                detail: format!(
                    "serve config: backend capacity {} != configured capacity {}",
                    backend.capacity(),
                    cfg.capacity
                ),
            });
        }
        Ok(Server {
            cfg,
            clock,
            transport,
            backend,
            make_backend,
            conns: Vec::new(),
            queue: EdfQueue::default(),
            running: BTreeMap::new(),
            stats: ServeStats::default(),
            req_seq: 0,
            draining: false,
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Shared engine-loop timesteps the backend has run.
    pub fn engine_steps(&self) -> u64 {
        self.backend.engine_steps()
    }

    /// Total lane-timesteps the backend has simulated.
    pub fn lane_steps(&self) -> u64 {
        self.backend.lane_steps()
    }

    /// Lanes currently simulating.
    pub fn lanes_active(&self) -> usize {
        self.backend.active()
    }

    /// Requests waiting for a lane.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Stops admitting inference work: every new `/infer` answers `503`
    /// while in-flight requests run to completion, and freshly parsed
    /// requests stop being kept alive. [`Server::idle`] turns true once
    /// the drain is finished.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// No open connections, no queued work, no running lanes.
    pub fn idle(&self) -> bool {
        self.running.is_empty() && self.queue.is_empty() && self.conns.iter().all(Option::is_none)
    }

    /// Runs one scheduling quantum (see module docs for the exact order).
    pub fn tick(&mut self) -> TickReport {
        let now = self.clock.now_us();
        let _span = tcl_telemetry::span_with("serve.tick", || {
            vec![
                ("now_us", now as f64),
                ("active", self.backend.active() as f64),
                ("queued", self.queue.len() as f64),
            ]
        });
        self.accept(now);
        self.read_pass(now);
        let steps = self.step_pass(now);
        self.shed_hopeless(now);
        let responses = self.write_pass(now);
        self.timeout_pass(now);
        self.publish_gauges();
        TickReport { steps, responses }
    }

    /// Accepts every pending connection; over the `max_conns` cap new
    /// clients get an immediate `503` instead of silently waiting, so the
    /// accept queue never backs up behind slow request handling.
    fn accept(&mut self, now: u64) {
        while let Some(io) = self.transport.poll_accept() {
            let open = self.conns.iter().flatten().count();
            let entry = if open >= self.cfg.max_conns {
                self.stats.shed += 1;
                tcl_telemetry::counter_add("serve.shed", 1);
                ConnEntry {
                    io,
                    state: ConnState::Writing {
                        buf: http::response(
                            503,
                            http::JSON,
                            &error_body("connection limit"),
                            Some(self.cfg.retry_after_s()),
                            false,
                        ),
                        off: 0,
                    },
                    parser: RequestParser::new(self.cfg.max_body),
                    req_started: None,
                    idle_since: now,
                    served: 0,
                    close_after: true,
                }
            } else {
                ConnEntry {
                    io,
                    state: ConnState::Reading,
                    parser: RequestParser::new(self.cfg.max_body),
                    // A connection that never sends a byte falls under the
                    // slow-loris guard, like a half-sent request.
                    req_started: Some(now),
                    idle_since: now,
                    served: 0,
                    close_after: false,
                }
            };
            self.insert_conn(entry);
        }
    }

    fn insert_conn(&mut self, entry: ConnEntry) -> usize {
        for (i, slot) in self.conns.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(entry);
                return i;
            }
        }
        self.conns.push(Some(entry));
        self.conns.len() - 1
    }

    /// Pumps request bytes on every connection still reading, dispatching
    /// at most one request per connection per tick (pipelined surplus
    /// stays buffered until the previous response is written — the
    /// per-connection ordering guarantee). Reads per connection per tick
    /// are capped so one firehose client cannot starve its neighbours
    /// within a tick.
    fn read_pass(&mut self, now: u64) {
        const READ_CAP: usize = 16 * 1024;
        for idx in 0..self.conns.len() {
            let mut verdict: Option<Parse> = None;
            let mut disconnected = false;
            let mut clean_close = false;
            {
                let Some(entry) = self.conns[idx].as_mut() else {
                    continue;
                };
                if !matches!(entry.state, ConnState::Reading) {
                    continue;
                }
                // A pipelined request may already be fully buffered from a
                // previous read; consume it before touching the socket.
                match entry.parser.poll() {
                    Parse::NeedMore => {
                        let mut budget = READ_CAP;
                        let mut chunk = [0u8; 512];
                        while budget > 0 {
                            match entry.io.poll_read(&mut chunk[..budget.min(512)]) {
                                Io::Data(n) => {
                                    budget -= n;
                                    entry.idle_since = now;
                                    if entry.req_started.is_none() {
                                        entry.req_started = Some(now);
                                    }
                                    match entry.parser.feed(&chunk[..n]) {
                                        Parse::NeedMore => {}
                                        done => {
                                            verdict = Some(done);
                                            break;
                                        }
                                    }
                                }
                                Io::WouldBlock => break,
                                Io::Closed => {
                                    disconnected = true;
                                    // A kept-alive client hanging up with no
                                    // request in progress is a normal end of
                                    // conversation, not a fault.
                                    clean_close = entry.served > 0
                                        && entry.req_started.is_none()
                                        && entry.parser.buffered() == 0;
                                    break;
                                }
                            }
                        }
                    }
                    done => verdict = Some(done),
                }
            }
            if disconnected {
                if !clean_close {
                    self.stats.faults_disconnect += 1;
                    tcl_telemetry::counter_add("serve.faults.disconnect", 1);
                }
                self.drop_conn(idx);
                continue;
            }
            match verdict {
                None => {}
                Some(Parse::Ready(req)) => {
                    if let Some(entry) = self.conns[idx].as_mut() {
                        if entry.served > 0 {
                            self.stats.reused += 1;
                            tcl_telemetry::counter_add("serve.reused", 1);
                        }
                        let at_cap = entry.served + 1 >= self.cfg.max_requests_per_conn as u64;
                        entry.close_after = !req.keep_alive || at_cap || self.draining;
                    }
                    self.dispatch(now, idx, &req);
                }
                Some(Parse::Reject { status, reason }) => {
                    if status == 413 || status == 431 {
                        self.stats.faults_oversize += 1;
                        tcl_telemetry::counter_add("serve.faults.oversize", 1);
                    }
                    self.respond_error(idx, status, reason, None);
                }
                // feed()/poll() only return NeedMore as handled above.
                Some(Parse::NeedMore) => {}
            }
        }
    }

    /// Routes one parsed request.
    fn dispatch(&mut self, now: u64, idx: usize, req: &http::Request) {
        match (req.method, req.path.as_str()) {
            (Method::Get, "/healthz") => self.respond(idx, 200, http::TEXT, "ok\n", None),
            (Method::Get, "/stats") => {
                let body = self.stats_json();
                self.respond(idx, 200, http::JSON, &body, None);
            }
            (Method::Get, "/metrics") => {
                let body = render_prometheus(&tcl_telemetry::metrics_snapshot());
                self.respond(idx, 200, http::PROMETHEUS, &body, None);
            }
            (Method::Post, "/infer") => self.dispatch_infer(now, idx, &req.body),
            _ => self.respond_error(idx, 404, "not found", None),
        }
    }

    fn dispatch_infer(&mut self, now: u64, idx: usize, body: &[u8]) {
        let (sample, deadline_us) = match parse_infer_body(body, self.cfg.feat_len()) {
            Ok(parsed) => parsed,
            Err(reason) => {
                self.respond_error(idx, 422, reason, None);
                return;
            }
        };
        self.stats.requests += 1;
        tcl_telemetry::counter_add("serve.requests", 1);
        if self.draining {
            self.stats.shed += 1;
            tcl_telemetry::counter_add("serve.shed", 1);
            self.respond_error(idx, 503, "draining", Some(self.cfg.retry_after_s()));
            return;
        }
        let budget = self.cfg.budget_for(deadline_us);
        if budget == 0 {
            self.respond_error(idx, 422, "deadline below one timestep", None);
            return;
        }
        let pending = PendingReq {
            req: self.req_seq,
            conn: idx,
            sample,
            budget,
            deadline: deadline_us.map(|d| now.saturating_add(d)),
            arrived: now,
        };
        self.req_seq += 1;
        if self.queue.is_empty() && self.backend.active() < self.cfg.capacity {
            self.submit(now, pending);
        } else if self.queue.len() < self.cfg.queue_depth {
            if let Some(entry) = self.conns[idx].as_mut() {
                entry.state = ConnState::Waiting;
            }
            self.queue.push(pending);
        } else {
            self.stats.shed += 1;
            tcl_telemetry::counter_add("serve.shed", 1);
            self.respond_error(idx, 429, "overloaded", Some(self.cfg.retry_after_s()));
        }
    }

    /// Hands one request to the backend; the lane joins the running
    /// timestep loop immediately (this is the continuous-batching moment).
    fn submit(&mut self, _now: u64, pending: PendingReq) {
        let _mark = tcl_telemetry::span_with("serve.admit", || {
            vec![
                ("req", pending.req as f64),
                ("active", self.backend.active() as f64),
            ]
        });
        match self.backend.submit(&pending.sample, pending.budget) {
            Ok(lane) => {
                if let Some(entry) = self.conns[pending.conn].as_mut() {
                    entry.state = ConnState::Waiting;
                }
                self.running.insert(lane, pending);
            }
            Err(e) => {
                tcl_telemetry::log("serve", &format!("submit failed: {e}"));
                self.respond_error(pending.conn, 500, "submit failed", None);
            }
        }
    }

    /// Advances the engine up to `steps_per_tick` timesteps, admitting
    /// queued requests into lanes the moment early exits free them —
    /// admission interleaves with stepping *inside* one tick, so a freed
    /// lane never idles until the next tick.
    fn step_pass(&mut self, now: u64) -> usize {
        let mut steps = 0;
        for _ in 0..self.cfg.steps_per_tick {
            self.admit_from_queue(now);
            if self.backend.active() == 0 {
                break;
            }
            let active = self.backend.active();
            let outcome = {
                let _span =
                    tcl_telemetry::span_with("serve.step", || vec![("active", active as f64)]);
                self.backend.step()
            };
            match outcome {
                Ok(completions) => {
                    steps += 1;
                    for c in completions {
                        self.complete(now, &c);
                    }
                }
                Err(e) => self.engine_fault(&e),
            }
        }
        self.admit_from_queue(now);
        steps
    }

    /// Pops the queue deadline-earliest-first into free lanes: the most
    /// urgent queued request reaches the engine first.
    fn admit_from_queue(&mut self, now: u64) {
        while !self.queue.is_empty() && self.backend.active() < self.cfg.capacity {
            // lint: allow(P1) nonempty checked by the loop condition
            let pending = self.queue.pop_earliest().expect("queue nonempty");
            self.submit(now, pending);
        }
    }

    /// Turns one retired lane into a response.
    fn complete(&mut self, now: u64, c: &Completion) {
        let Some(pending) = self.running.remove(&c.lane) else {
            // A lane the server is not tracking (should be impossible);
            // drop the completion rather than corrupt another request.
            tcl_telemetry::log("serve", &format!("orphan completion for lane {}", c.lane));
            return;
        };
        let _mark = tcl_telemetry::span_with("serve.retire", || {
            vec![
                ("req", pending.req as f64),
                ("steps", c.steps as f64),
                ("early", f64::from(u8::from(c.early))),
            ]
        });
        let latency = now.saturating_sub(pending.arrived);
        if pending.deadline.is_some_and(|d| now > d) {
            self.stats.deadline_miss += 1;
            tcl_telemetry::counter_add("serve.deadline_miss", 1);
        }
        self.stats.completed += 1;
        if c.early {
            self.stats.early_exits += 1;
            tcl_telemetry::counter_add("serve.early_exits", 1);
        }
        let latency_upper = (self.cfg.max_steps as u64 * self.cfg.us_per_step * 4) as f64;
        tcl_telemetry::hist_record("serve.latency_us", latency as f64, latency_upper, 32);
        let mut body = String::with_capacity(96);
        body.push_str("{\"pred\":");
        body.push_str(&c.pred.to_string());
        body.push_str(",\"steps\":");
        body.push_str(&c.steps.to_string());
        body.push_str(",\"early\":");
        body.push_str(if c.early { "true" } else { "false" });
        body.push_str(",\"margin\":");
        json::number_into(f64::from(c.margin), &mut body);
        body.push_str(",\"latency_us\":");
        body.push_str(&latency.to_string());
        body.push('}');
        self.respond(pending.conn, 200, http::JSON, &body, None);
    }

    /// Rebuilds the backend and re-submits every in-flight request from
    /// step zero (deterministic recovery: re-running a request on a fresh
    /// backend reproduces its answer exactly).
    fn engine_fault(&mut self, e: &TensorError) {
        self.stats.faults_engine += 1;
        tcl_telemetry::counter_add("serve.faults.engine", 1);
        tcl_telemetry::log("serve", &format!("backend fault, rebuilding: {e}"));
        self.backend = (self.make_backend)();
        let inflight: Vec<PendingReq> = std::mem::take(&mut self.running).into_values().collect();
        // Re-submit in original arrival order so lane ids (and therefore
        // completion tie-breaks) stay deterministic after recovery.
        let mut inflight = inflight;
        inflight.sort_by_key(|p| p.req);
        for pending in inflight {
            match self.backend.submit(&pending.sample, pending.budget) {
                Ok(lane) => {
                    self.running.insert(lane, pending);
                }
                Err(err) => {
                    tcl_telemetry::log("serve", &format!("re-submit failed: {err}"));
                    self.respond_error(pending.conn, 500, "backend restart failed", None);
                }
            }
        }
    }

    /// Sheds queued requests that can no longer produce an answer by their
    /// deadline, *now*, so the shed response itself still beats the
    /// deadline. The EDF order means the sweep sees the most urgent
    /// (soonest-to-become-hopeless) requests first.
    fn shed_hopeless(&mut self, now: u64) {
        let cfg_us = self.cfg.us_per_step;
        let policy_min = |budget: usize| self.cfg.min_possible_steps(budget);
        let hopeless = self.queue.drain_where(|pending| {
            pending.deadline.is_some_and(|d| {
                let min_run = policy_min(pending.budget) as u64 * cfg_us;
                now.saturating_add(min_run) > d
            })
        });
        for pending in hopeless {
            self.stats.shed += 1;
            tcl_telemetry::counter_add("serve.shed", 1);
            self.respond_error(
                pending.conn,
                429,
                "deadline unreachable under load",
                Some(self.cfg.retry_after_s()),
            );
        }
    }

    /// Flushes pending responses. A fully written response closes the
    /// connection when `close_after` is set (client asked, request cap
    /// reached, error status, or draining); otherwise the connection is
    /// re-armed for its next request — keep-alive.
    fn write_pass(&mut self, now: u64) -> usize {
        let mut finished = 0;
        for idx in 0..self.conns.len() {
            let (done, disconnected) = {
                let Some(entry) = self.conns[idx].as_mut() else {
                    continue;
                };
                let ConnState::Writing { buf, off } = &mut entry.state else {
                    continue;
                };
                let mut disconnected = false;
                while *off < buf.len() {
                    match entry.io.poll_write(&buf[*off..]) {
                        Io::Data(n) => *off += n,
                        Io::WouldBlock => break,
                        Io::Closed => {
                            disconnected = true;
                            break;
                        }
                    }
                }
                (*off >= buf.len() && !disconnected, disconnected)
            };
            if disconnected {
                self.stats.faults_disconnect += 1;
                tcl_telemetry::counter_add("serve.faults.disconnect", 1);
                self.drop_conn(idx);
            } else if done {
                self.stats.responses += 1;
                tcl_telemetry::counter_add("serve.responses", 1);
                finished += 1;
                let close = self.conns[idx]
                    .as_ref()
                    .is_some_and(|entry| entry.close_after);
                if close {
                    self.drop_conn(idx);
                } else if let Some(entry) = self.conns[idx].as_mut() {
                    // Keep-alive re-arm: the parser already holds any
                    // pipelined surplus; the next read_pass polls it.
                    entry.served += 1;
                    entry.state = ConnState::Reading;
                    entry.idle_since = now;
                    entry.req_started = if entry.parser.buffered() > 0 {
                        Some(now)
                    } else {
                        None
                    };
                }
            }
        }
        finished
    }

    /// Times out connections still dribbling their current request
    /// (slow-loris: header or body, the guard does not care which) and
    /// silently reaps kept-alive connections idle past `idle_timeout_us`.
    fn timeout_pass(&mut self, now: u64) {
        enum Timeout {
            SlowLoris,
            Idle,
        }
        for idx in 0..self.conns.len() {
            let timed_out = {
                let Some(entry) = self.conns[idx].as_ref() else {
                    continue;
                };
                if !matches!(entry.state, ConnState::Reading) {
                    continue;
                }
                match entry.req_started {
                    Some(t) if now.saturating_sub(t) >= self.cfg.head_timeout_us => {
                        Some(Timeout::SlowLoris)
                    }
                    None if now.saturating_sub(entry.idle_since) >= self.cfg.idle_timeout_us => {
                        Some(Timeout::Idle)
                    }
                    _ => None,
                }
            };
            match timed_out {
                Some(Timeout::SlowLoris) => {
                    self.stats.faults_slowloris += 1;
                    tcl_telemetry::counter_add("serve.faults.slowloris", 1);
                    self.respond_error(idx, 408, "request timeout", None);
                }
                Some(Timeout::Idle) => {
                    self.stats.idle_closed += 1;
                    tcl_telemetry::counter_add("serve.idle_closed", 1);
                    self.drop_conn(idx);
                }
                None => {}
            }
        }
    }

    fn publish_gauges(&self) {
        tcl_telemetry::gauge_set("serve.lanes_active", self.backend.active() as f64);
        tcl_telemetry::gauge_set("serve.queue_depth", self.queue.len() as f64);
        let denom = self.stats.requests.max(1);
        tcl_telemetry::gauge_set("serve.shed_rate", self.stats.shed as f64 / denom as f64);
    }

    /// Queues a response on a connection (no-op if the client is gone).
    /// Any non-200 status forces the connection closed after the write:
    /// the parser may be unsynchronized with a misbehaving client.
    fn respond(
        &mut self,
        idx: usize,
        status: u16,
        content_type: &str,
        body: &str,
        retry_after_s: Option<u64>,
    ) {
        if let Some(entry) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if status != 200 {
                entry.close_after = true;
            }
            entry.state = ConnState::Writing {
                buf: http::response(
                    status,
                    content_type,
                    body,
                    retry_after_s,
                    !entry.close_after,
                ),
                off: 0,
            };
        }
    }

    /// Queues an error response with a JSON `{"error": reason}` body.
    fn respond_error(&mut self, idx: usize, status: u16, reason: &str, retry_after_s: Option<u64>) {
        self.respond(idx, status, http::JSON, &error_body(reason), retry_after_s);
    }

    fn drop_conn(&mut self, idx: usize) {
        if let Some(mut entry) = self.conns.get_mut(idx).and_then(Option::take) {
            entry.io.close();
        }
    }

    /// The `/stats` endpoint body.
    fn stats_json(&self) -> String {
        let s = &self.stats;
        format!(
            "{{\"requests\":{},\"responses\":{},\"completed\":{},\"early_exits\":{},\
             \"shed\":{},\"deadline_miss\":{},\"reused\":{},\"idle_closed\":{},\
             \"faults\":{{\"disconnect\":{},\"slowloris\":{},\"oversize\":{},\"engine\":{}}},\
             \"lanes_active\":{},\"queue_depth\":{},\"engine_steps\":{},\"lane_steps\":{},\
             \"draining\":{}}}",
            s.requests,
            s.responses,
            s.completed,
            s.early_exits,
            s.shed,
            s.deadline_miss,
            s.reused,
            s.idle_closed,
            s.faults_disconnect,
            s.faults_slowloris,
            s.faults_oversize,
            s.faults_engine,
            self.backend.active(),
            self.queue.len(),
            self.backend.engine_steps(),
            self.backend.lane_steps(),
            self.draining,
        )
    }
}

/// A one-line JSON error body.
fn error_body(reason: &str) -> String {
    let mut out = String::with_capacity(reason.len() + 12);
    out.push_str("{\"error\":\"");
    json::escape_into(reason, &mut out);
    out.push_str("\"}");
    out
}

/// Parses an `/infer` body: `{"sample":[...], "deadline_us": 50000}`
/// (single-line JSON; `deadline_us` optional).
fn parse_infer_body(
    body: &[u8],
    feat_len: usize,
) -> std::result::Result<(Vec<f32>, Option<u64>), &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let value = json::parse_line(text.trim()).map_err(|_| "body is not valid JSON")?;
    let sample_json = value
        .get("sample")
        .and_then(|s| s.as_array())
        .ok_or("missing sample array")?;
    if sample_json.len() != feat_len {
        return Err("sample length does not match model input");
    }
    let mut sample = Vec::with_capacity(sample_json.len());
    for v in sample_json {
        let f = v.as_f64().ok_or("sample entries must be numbers")?;
        if !f.is_finite() {
            return Err("sample entries must be finite");
        }
        sample.push(f as f32);
    }
    let deadline_us = match value.get("deadline_us") {
        None => None,
        Some(d) => Some(
            d.as_u64()
                .ok_or("deadline_us must be a non-negative integer")?,
        ),
    };
    Ok((sample, deadline_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(feat: usize, capacity: usize) -> ServeConfig {
        ServeConfig {
            capacity,
            queue_depth: 4,
            feat_dims: vec![feat],
            policy: ExitPolicy::Off,
            max_steps: 16,
            us_per_step: 100,
            steps_per_tick: 4,
            max_body: 4096,
            head_timeout_us: 50_000,
            max_conns: 32,
            max_requests_per_conn: 64,
            idle_timeout_us: 100_000,
        }
    }

    #[test]
    fn config_validation_rejects_zero_fields() {
        let good = test_config(2, 2);
        assert!(good.validate().is_ok());
        for field in [
            "capacity",
            "max_steps",
            "us_per_step",
            "steps_per_tick",
            "max_requests_per_conn",
            "idle_timeout_us",
        ] {
            let mut bad = test_config(2, 2);
            match field {
                "capacity" => bad.capacity = 0,
                "max_steps" => bad.max_steps = 0,
                "us_per_step" => bad.us_per_step = 0,
                "max_requests_per_conn" => bad.max_requests_per_conn = 0,
                "idle_timeout_us" => bad.idle_timeout_us = 0,
                _ => bad.steps_per_tick = 0,
            }
            assert!(bad.validate().is_err(), "{field}");
        }
    }

    #[test]
    fn deadlines_map_to_step_budgets() {
        let cfg = test_config(2, 2);
        assert_eq!(cfg.budget_for(None), 16);
        assert_eq!(cfg.budget_for(Some(1_000)), 10);
        assert_eq!(cfg.budget_for(Some(10_000)), 16, "capped at max_steps");
        assert_eq!(cfg.budget_for(Some(99)), 0, "below one timestep");
    }

    #[test]
    fn edf_queue_orders_by_deadline_then_arrival() {
        let mk = |req: u64, deadline: Option<u64>| PendingReq {
            req,
            conn: 0,
            sample: vec![],
            budget: 1,
            deadline,
            arrived: 0,
        };
        let mut q = EdfQueue::default();
        q.push(mk(0, None));
        q.push(mk(1, Some(9_000)));
        q.push(mk(2, Some(2_000)));
        q.push(mk(3, None));
        q.push(mk(4, Some(2_000)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_earliest())
            .map(|p| p.req)
            .collect();
        assert_eq!(
            order,
            vec![2, 4, 1, 0, 3],
            "earliest deadline first, FIFO among ties, deadline-less last"
        );
    }

    #[test]
    fn infer_bodies_parse_and_validate() {
        let ok = parse_infer_body(br#"{"sample":[0.5,1.0],"deadline_us":400}"#, 2);
        assert_eq!(ok, Ok((vec![0.5, 1.0], Some(400))));
        let no_deadline = parse_infer_body(br#"{"sample":[0.5,1.0]}"#, 2);
        assert_eq!(no_deadline, Ok((vec![0.5, 1.0], None)));
        assert!(parse_infer_body(b"not json", 2).is_err());
        assert!(
            parse_infer_body(br#"{"sample":[1.0]}"#, 2).is_err(),
            "short"
        );
        assert!(parse_infer_body(br#"{"sample":[1.0,"x"]}"#, 2).is_err());
        assert!(parse_infer_body(br#"{"deadline_us":4}"#, 2).is_err());
    }
}
