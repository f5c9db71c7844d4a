//! Fault injection under the virtual clock: misbehaving clients
//! (mid-request disconnects, slow-loris dribble, oversized bodies) and a
//! killed engine worker. The contract under every fault is the same — the
//! serving loop never stalls other lanes, never leaks a lane, never drops
//! the accept loop, and each fault increments its `serve.faults.*` counter.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{body_bool, body_field, diagonal_net, drive, lane_factory, serve_cfg};
use tcl_serve::sim::{get_request_keep_alive, infer_request, pipelined, Chunk, SimNet};
use tcl_serve::{Backend, Completion, Server, VirtualClock};
use tcl_snn::Readout;
use tcl_tensor::{Result, TensorError};

/// A client that vanishes mid-request (and one that vanishes mid-response)
/// must not affect its neighbours or leak server state.
#[test]
fn mid_request_disconnect_leaves_other_lanes_running() {
    let net = diagonal_net(4);
    let cfg = serve_cfg(4, 2);
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);

    // A sends half a request then hangs up.
    let full = infer_request(&[0.9, 0.1, 0.1, 0.1], None);
    let half = full[..full.len() / 2].to_vec();
    let vanisher = sim.connect_at(0, vec![(0, Chunk::Bytes(half)), (400, Chunk::Hangup)]);
    // B is a well-behaved concurrent request.
    let normal = sim.request_at(0, infer_request(&[0.1, 0.85, 0.1, 0.05], None));
    // C completes its request but hangs up before the response is written
    // (an ambiguous sample rides out its full budget, so the inference
    // finishes long after the hangup).
    let ghost = sim.connect_at(
        0,
        vec![
            (
                0,
                Chunk::Bytes(infer_request(&[0.1, 0.45, 0.45, 0.1], None)),
            ),
            (200, Chunk::Hangup),
        ],
    );
    // D arrives after both faults: the accept loop must still be alive.
    let late = sim.request_at(5_000, infer_request(&[0.1, 0.05, 0.1, 0.95], None));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    assert_eq!(normal.status(), Some(200), "neighbour lane unaffected");
    assert_eq!(body_field(&normal.body(), "pred"), 1.0);
    assert_eq!(late.status(), Some(200), "accept loop survived the faults");
    assert!(
        vanisher.response_text().is_empty(),
        "no response to a ghost"
    );
    assert!(
        ghost.closed_at().is_some(),
        "mid-response hangup is detected and the connection reaped"
    );
    assert_eq!(server.stats().faults_disconnect, 2, "{:?}", server.stats());
    assert_eq!(server.lanes_active(), 0, "no leaked lanes");
    assert!(server.idle());
}

/// A client dribbling its request forever is cut off at the head timeout
/// with a 408 — it cannot hold a connection slot indefinitely.
#[test]
fn slow_loris_is_timed_out_not_served_forever() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.head_timeout_us = 2_000;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);

    // One header byte every 300µs, never finishing.
    let header = b"POST /infer HTTP/1.1\r\n".to_vec();
    let script: Vec<(u64, Chunk)> = header
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u64 * 300, Chunk::Bytes(vec![*b])))
        .collect();
    let loris = sim.connect_at(0, script);
    let normal = sim.request_at(100, infer_request(&[0.9, 0.1, 0.1, 0.1], None));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    assert_eq!(loris.status(), Some(408), "{}", loris.response_text());
    let closed = loris.closed_at().expect("loris connection reaped");
    assert!(
        (2_000..4_000).contains(&closed),
        "cut off near the timeout, got {closed}"
    );
    assert_eq!(
        normal.status(),
        Some(200),
        "dribble never stalls neighbours"
    );
    assert_eq!(server.stats().faults_slowloris, 1);
    assert!(server.idle());
}

/// Oversized bodies (413) and heads (431) are rejected during
/// accumulation — the server never buffers them to completion.
#[test]
fn oversized_requests_are_rejected_early() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.max_body = 256;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);

    let big_body = sim.request_at(
        0,
        b"POST /infer HTTP/1.1\r\nContent-Length: 10000\r\n\r\n".to_vec(),
    );
    let mut junk = b"GET /stats HTTP/1.1\r\nX-Pad: ".to_vec();
    junk.extend(std::iter::repeat_n(b'a', tcl_serve::MAX_HEAD + 1));
    let big_head = sim.request_at(0, junk);
    let normal = sim.request_at(0, infer_request(&[0.9, 0.1, 0.1, 0.1], None));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    assert_eq!(big_body.status(), Some(413));
    assert_eq!(big_head.status(), Some(431));
    assert_eq!(normal.status(), Some(200));
    assert_eq!(server.stats().faults_oversize, 2);
    assert!(server.idle());
}

/// A kept-alive connection that goes quiet between requests is reaped at
/// the idle timeout — silently (no 408, no fault counter), because the
/// client did nothing wrong.
#[test]
fn idle_keep_alive_connection_is_reaped_silently() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.idle_timeout_us = 3_000;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let client = sim.request_at(0, get_request_keep_alive("/healthz"));

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 100);

    assert_eq!(client.statuses(), vec![200]);
    assert!(
        client.response_text().contains("Connection: keep-alive"),
        "the 200 advertised keep-alive: {}",
        client.response_text()
    );
    let closed = client.closed_at().expect("idle connection reaped");
    assert!(
        (3_000..6_000).contains(&closed),
        "reaped near the idle timeout, got {closed}"
    );
    assert_eq!(server.stats().idle_closed, 1);
    assert_eq!(server.stats().faults_disconnect, 0, "idle reap is no fault");
    assert_eq!(server.stats().faults_slowloris, 0, "and no 408");
    assert!(server.idle());
}

/// `max_requests_per_conn` bounds reuse: the capping response advertises
/// `Connection: close` and the connection drops, discarding any further
/// pipelined requests.
#[test]
fn request_cap_closes_the_connection() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.max_requests_per_conn = 2;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let three = pipelined(&[
        get_request_keep_alive("/healthz"),
        get_request_keep_alive("/healthz"),
        get_request_keep_alive("/healthz"),
    ]);
    let client = sim.request_at(0, three);

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 100);

    assert_eq!(client.statuses(), vec![200, 200], "third request discarded");
    let text = client.response_text();
    assert!(text.contains("Connection: keep-alive"), "first says keep");
    assert!(
        text.contains("Connection: close"),
        "capping response closes"
    );
    let closed = client.closed_at().expect("capped connection closed");
    assert!(closed < 3_000, "closed at the cap, not the idle timeout");
    assert_eq!(server.stats().reused, 1);
    assert!(server.idle());
}

/// A keep-alive client hanging up *between* requests is a clean close —
/// the disconnect fault counter is for clients that vanish mid-request or
/// mid-response.
#[test]
fn keep_alive_hangup_between_requests_is_a_clean_close() {
    let net = diagonal_net(4);
    let cfg = serve_cfg(4, 2);
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let client = sim.connect_at(
        0,
        vec![
            (0, Chunk::Bytes(get_request_keep_alive("/healthz"))),
            (2_000, Chunk::Hangup),
        ],
    );

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 100);

    assert_eq!(client.statuses(), vec![200]);
    assert_eq!(
        server.stats().faults_disconnect,
        0,
        "a polite goodbye is not a fault"
    );
    assert_eq!(server.stats().idle_closed, 0);
    assert!(server.idle());
}

/// Header edge cases through the full server path (not just the parser):
/// a bare-LF head terminator is served, while Transfer-Encoding,
/// duplicate Content-Length, and GET-with-body are all rejected with 400.
#[test]
fn header_edge_cases_through_the_full_server_path() {
    let net = diagonal_net(4);
    let cfg = serve_cfg(4, 2);
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let bare_lf = sim.request_at(
        0,
        b"GET /healthz HTTP/1.1\nHost: sim\nConnection: close\n\n".to_vec(),
    );
    let chunked = sim.request_at(
        0,
        b"POST /infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
    );
    let dup_cl = sim.request_at(
        0,
        b"POST /infer HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
    );
    let get_body = sim.request_at(
        0,
        b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
    );

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 100);

    assert_eq!(bare_lf.status(), Some(200), "{}", bare_lf.response_text());
    assert_eq!(bare_lf.body(), "ok\n");
    assert_eq!(chunked.status(), Some(400), "{}", chunked.response_text());
    assert!(chunked.body().contains("Transfer-Encoding"));
    assert_eq!(dup_cl.status(), Some(400), "{}", dup_cl.response_text());
    assert!(dup_cl.body().contains("Content-Length"));
    assert_eq!(get_body.status(), Some(400), "{}", get_body.response_text());
    for client in [&chunked, &dup_cl, &get_body] {
        assert!(
            client.response_text().contains("Connection: close"),
            "rejections close the connection"
        );
    }
    assert!(server.idle());
}

/// A backend that fails on command: the shared trigger arms one step
/// failure, simulating a killed engine worker mid-flight.
struct FlakyBackend {
    inner: Box<dyn Backend>,
    fail_at_step: Rc<Cell<Option<u64>>>,
    steps: u64,
}

impl Backend for FlakyBackend {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn active(&self) -> usize {
        self.inner.active()
    }

    fn submit(&mut self, sample: &[f32], budget: usize) -> Result<u64> {
        self.inner.submit(sample, budget)
    }

    fn step(&mut self) -> Result<Vec<Completion>> {
        self.steps += 1;
        if self.fail_at_step.get() == Some(self.steps) {
            self.fail_at_step.set(None);
            return Err(TensorError::InvalidArgument {
                detail: "injected: engine worker killed".into(),
            });
        }
        self.inner.step()
    }

    fn engine_steps(&self) -> u64 {
        self.inner.engine_steps()
    }

    fn lane_steps(&self) -> u64 {
        self.inner.lane_steps()
    }
}

/// Runs two concurrent requests, optionally killing the engine mid-flight,
/// and returns (pred, steps, early) per client plus the fault count.
fn run_engine_fault_scenario(fail_at_step: Option<u64>) -> (Vec<(f64, f64, bool)>, u64) {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.steps_per_tick = 4;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let clients = [
        sim.request_at(0, infer_request(&[0.9, 0.1, 0.05, 0.05], None)),
        sim.request_at(0, infer_request(&[0.1, 0.05, 0.1, 0.95], None)),
    ];

    let trigger = Rc::new(Cell::new(fail_at_step));
    let factory = {
        let mut inner = lane_factory(&net, &cfg, Readout::SpikeCount);
        let trigger = Rc::clone(&trigger);
        Box::new(move || -> Box<dyn Backend> {
            Box::new(FlakyBackend {
                inner: inner(),
                fail_at_step: Rc::clone(&trigger),
                steps: 0,
            })
        })
    };
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 2_000);

    assert!(server.idle());
    assert_eq!(
        server.lanes_active(),
        0,
        "no lanes leaked across the rebuild"
    );
    let answers = clients
        .iter()
        .map(|c| {
            assert_eq!(c.status(), Some(200), "{}", c.response_text());
            let body = c.body();
            (
                body_field(&body, "pred"),
                body_field(&body, "steps"),
                body_bool(&body, "early"),
            )
        })
        .collect();
    (answers, server.stats().faults_engine)
}

/// Killing the engine mid-flight is survived by rebuild + re-submit, and
/// recovery is deterministic: the answers match a fault-free control run
/// exactly (each lane re-runs from step zero on the fresh backend).
#[test]
fn killed_engine_worker_recovers_with_identical_answers() {
    let (control, control_faults) = run_engine_fault_scenario(None);
    assert_eq!(control_faults, 0);
    // Fail the 4th backend step: both lanes are mid-flight, before exit.
    let (recovered, faults) = run_engine_fault_scenario(Some(4));
    assert_eq!(faults, 1, "exactly one injected fault");
    assert_eq!(
        recovered, control,
        "recovery reproduces the fault-free answers"
    );
    assert_eq!(control[0].0, 0.0, "lane 0 predicts class 0");
    assert_eq!(control[1].0, 3.0, "lane 1 predicts class 3");
}

/// The CI negative control: a request whose body is shorter than its
/// Content-Length answers a 4xx within the virtual-clock timeout — it does
/// not hang the connection or the server.
#[test]
fn truncated_body_answers_4xx_within_timeout() {
    let net = diagonal_net(4);
    let mut cfg = serve_cfg(4, 2);
    cfg.head_timeout_us = 2_000;
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let truncated = sim.request_at(
        0,
        b"POST /infer HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"sample\"".to_vec(),
    );

    let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    drive(&mut server, &clock, &sim, 200, 30);

    let status = truncated.status().expect("truncated request was answered");
    assert!((400..500).contains(&status), "expected 4xx, got {status}");
    let closed = truncated.closed_at().expect("connection closed");
    assert!(
        closed <= 4_000,
        "answered within the timeout, got {closed}µs"
    );
    assert!(server.idle(), "nothing hangs");
}

/// Each injected fault increments its own `serve.faults.*` telemetry
/// counter (the Prometheus exporter serves these names unchanged).
#[test]
fn fault_counters_reach_the_telemetry_registry() {
    let ((), _lines) = tcl_telemetry::test_support::with_captured(|| {
        tcl_telemetry::test_support::reset_metrics();
        let net = diagonal_net(4);
        let mut cfg = serve_cfg(4, 2);
        cfg.head_timeout_us = 2_000;
        cfg.max_body = 256;
        let clock = VirtualClock::new();
        let sim = SimNet::new(&clock);
        // One fault of each client-side kind, plus an engine kill.
        let full = infer_request(&[0.9, 0.1, 0.1, 0.1], None);
        let _vanisher = sim.connect_at(
            0,
            vec![(0, Chunk::Bytes(full[..10].to_vec())), (300, Chunk::Hangup)],
        );
        let _loris = sim.connect_at(0, vec![(0, Chunk::Bytes(b"GET /h".to_vec()))]);
        let _big = sim.request_at(
            0,
            b"POST /infer HTTP/1.1\r\nContent-Length: 99999\r\n\r\n".to_vec(),
        );
        let _work = sim.request_at(0, full);

        let trigger = Rc::new(Cell::new(Some(2u64)));
        let factory = {
            let mut inner = lane_factory(&net, &cfg, Readout::SpikeCount);
            let trigger = Rc::clone(&trigger);
            Box::new(move || -> Box<dyn Backend> {
                Box::new(FlakyBackend {
                    inner: inner(),
                    fail_at_step: Rc::clone(&trigger),
                    steps: 0,
                })
            })
        };
        let mut server =
            Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
        drive(&mut server, &clock, &sim, 200, 2_000);

        for (name, expected) in [
            ("serve.faults.disconnect", server.stats().faults_disconnect),
            ("serve.faults.slowloris", server.stats().faults_slowloris),
            ("serve.faults.oversize", server.stats().faults_oversize),
            ("serve.faults.engine", server.stats().faults_engine),
        ] {
            assert!(expected >= 1, "{name}: fault not exercised");
            assert_eq!(
                tcl_telemetry::counter_value(name),
                Some(expected),
                "{name} counter mismatch"
            );
        }
    });
}
