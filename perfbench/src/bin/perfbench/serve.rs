//! The serving workload: the converted model behind `tcl_serve::Server`
//! over loopback keep-alive HTTP, driven by an open-loop Poisson schedule.
//!
//! Requests arrive in bursts of `capacity + 4`: every lane fills, four
//! requests wait in the admission queue, and the active lanes fall from 8
//! to 1 as the burst drains.
//! One thread releases due requests, runs `Server::tick` and reads the
//! responses, so a request that falls due mid-tick waits for the next
//! tick's read, as it would against a real server. Latency runs from each
//! request's scheduled time to the last byte of its response. Idle gaps
//! between bursts take the calibration samples that scale every time to
//! reference time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcl_data::Dataset;
use tcl_perfbench::{burst_schedule, median, percentile, tail_percentile, Metrics, Tally};
use tcl_serve::{
    Backend, BackendFactory, Clock, Completion, Connection, Io, LaneBackend, ServeConfig,
    ServeStats, Server, Transport,
};
use tcl_snn::{Engine, EngineResult, ExitPolicy, Readout, SimConfig, SpikingNetwork};
use tcl_telemetry::json::{parse_line, JsonValue};
use tcl_tensor::{SeededRng, Tensor};

use crate::batch::gather;
use crate::host::Host;
use crate::trace::Tracer;
use crate::Outcome;

/// Mean offered load: a twelfth of the lanes' saturated throughput
/// (200–300 requests/s for this model on two cores). Bursts of 12 then
/// come 600 ms apart on average and at least 300 ms apart, several times
/// the ~100 ms a burst takes, so no burst queues behind another.
pub const RATE_PER_S: f64 = 20.0;
/// Requests a burst holds beyond the lanes; they wait in the queue.
const BURST_OVER_CAPACITY: usize = 4;
/// An idle gap takes calibration samples while this much of it is left.
const CAL_GAP: Duration = Duration::from_millis(15);
/// Calibration samples per idle gap, at most.
const CAL_PER_GAP: usize = 4;
/// A client connection idle this long is closed rather than reused, well
/// inside the server's head and idle timeouts.
const CLIENT_IDLE: Duration = Duration::from_millis(500);
/// How long the server may take to finish after the schedule ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The production serving configuration of the `tcl_serve` binary, over
/// the cnn6 input shape.
pub fn config(feat_dims: &[usize]) -> ServeConfig {
    ServeConfig {
        capacity: 8,
        queue_depth: 32,
        feat_dims: feat_dims.to_vec(),
        policy: policy(),
        max_steps: 256,
        us_per_step: 50,
        steps_per_tick: 64,
        max_body: 64 * 1024,
        head_timeout_us: 2_000_000,
        max_conns: 256,
        max_requests_per_conn: 256,
        idle_timeout_us: 5_000_000,
    }
}

fn policy() -> ExitPolicy {
    ExitPolicy::Adaptive {
        patience: 8,
        min_margin: 2.0,
        min_steps: 16,
    }
}

/// Answers a lane engine must reproduce: the batch engine under the same
/// policy and step budget.
fn reference(snn: &Arc<SpikingNetwork>, images: &Tensor, labels: &[usize]) -> EngineResult {
    let cfg = config(&images.dims()[1..]);
    let sim = SimConfig::new(vec![cfg.max_steps], 32, Readout::SpikeCount).expect("valid grid");
    Engine::with_threads(1)
        .evaluate_shared(snn, images, labels, &sim, cfg.policy)
        .expect("reference sweep")
}

/// Warms the lane path once: one full set of lanes for a few steps.
pub fn warm(snn: &SpikingNetwork, images: &Tensor) {
    let cfg = config(&images.dims()[1..]);
    let mut lanes = LaneBackend::new(
        snn,
        cfg.capacity,
        &cfg.feat_dims,
        Readout::SpikeCount,
        cfg.policy,
    )
    .expect("lane backend");
    let row = images.len() / images.dims()[0];
    for i in 0..cfg.capacity {
        lanes
            .submit(&images.data()[i * row..(i + 1) * row], 4)
            .expect("free lane");
    }
    while lanes.active() > 0 {
        lanes.step().expect("lane step");
    }
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Server-side transport time, shared with the harness.
#[derive(Default)]
struct IoTimes {
    read: Duration,
    write: Duration,
}

struct Listener {
    listener: TcpListener,
    io: Option<Rc<RefCell<IoTimes>>>,
}

impl Transport for Listener {
    fn poll_accept(&mut self) -> Option<Box<dyn Connection>> {
        let (stream, _) = self.listener.accept().ok()?;
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        Some(Box::new(ServerConn {
            stream,
            io: self.io.clone(),
        }))
    }
}

struct ServerConn {
    stream: TcpStream,
    io: Option<Rc<RefCell<IoTimes>>>,
}

fn io_result(r: std::io::Result<usize>) -> Io {
    match r {
        Ok(0) => Io::Closed,
        Ok(n) => Io::Data(n),
        Err(e) if e.kind() == ErrorKind::WouldBlock => Io::WouldBlock,
        Err(_) => Io::Closed,
    }
}

impl Connection for ServerConn {
    fn poll_read(&mut self, buf: &mut [u8]) -> Io {
        let t = Instant::now();
        let r = io_result(self.stream.read(buf));
        if let Some(io) = &self.io {
            io.borrow_mut().read += t.elapsed();
        }
        r
    }

    fn poll_write(&mut self, data: &[u8]) -> Io {
        let t = Instant::now();
        let r = io_result(self.stream.write(data));
        if let Some(io) = &self.io {
            io.borrow_mut().write += t.elapsed();
        }
        r
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Lane-layer timings, shared with the harness.
#[derive(Default)]
struct LaneTimes {
    submit: Vec<Duration>,
    steps: Vec<(Duration, usize)>,
    in_backend: Duration,
    submitted_at: BTreeMap<u64, Instant>,
    service: Vec<Duration>,
}

/// A `Backend` that times every call into the wrapped `LaneBackend`.
struct TimedBackend {
    inner: LaneBackend,
    times: Rc<RefCell<LaneTimes>>,
}

impl Backend for TimedBackend {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn active(&self) -> usize {
        self.inner.active()
    }

    fn submit(&mut self, sample: &[f32], budget: usize) -> tcl_tensor::Result<u64> {
        let t = Instant::now();
        let r = self.inner.submit(sample, budget);
        let dt = t.elapsed();
        let mut times = self.times.borrow_mut();
        times.submit.push(dt);
        times.in_backend += dt;
        if let Ok(lane) = r {
            times.submitted_at.insert(lane, t);
        }
        r
    }

    fn step(&mut self) -> tcl_tensor::Result<Vec<Completion>> {
        let active = self.inner.active();
        let t = Instant::now();
        let r = self.inner.step();
        let done = Instant::now();
        let dt = done - t;
        let mut times = self.times.borrow_mut();
        times.steps.push((dt, active));
        times.in_backend += dt;
        if let Ok(completions) = &r {
            for c in completions {
                if let Some(at) = times.submitted_at.remove(&c.lane) {
                    times.service.push(done - at);
                }
            }
        }
        r
    }

    fn engine_steps(&self) -> u64 {
        self.inner.engine_steps()
    }

    fn lane_steps(&self) -> u64 {
        self.inner.lane_steps()
    }
}

/// One client keep-alive connection with at most one request in flight.
struct ClientConn {
    stream: TcpStream,
    /// Request index in flight and its unsent bytes.
    inflight: Option<usize>,
    unsent: Vec<u8>,
    received: Vec<u8>,
    last_used: Instant,
}

/// A parsed response.
struct Reply {
    status: u16,
    close: bool,
    body: Vec<u8>,
}

/// Splits one complete HTTP response off the front of `buf`.
fn take_reply(buf: &mut Vec<u8>) -> Option<Reply> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()?
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut len = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim() {
                "content-length" => len = v.trim().parse().unwrap_or(0),
                "connection" => close = v.trim() == "close",
                _ => {}
            }
        }
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return None;
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Some(Reply {
        status,
        close,
        body,
    })
}

/// A served answer: `(pred, steps, early)`.
type Answer = (usize, usize, bool);

/// What came back for one request: HTTP status (0 when none) and answer.
#[derive(Clone, Copy)]
struct Served {
    status: u16,
    answer: Option<Answer>,
}

const NO_ANSWER: Served = Served {
    status: 0,
    answer: None,
};

/// The served answer in a response body.
fn answer(body: &[u8]) -> Option<Answer> {
    let v = parse_line(std::str::from_utf8(body).ok()?).ok()?;
    let pred = usize::try_from(v.get("pred")?.as_u64()?).ok()?;
    let steps = usize::try_from(v.get("steps")?.as_u64()?).ok()?;
    let early = match v.get("early")? {
        JsonValue::Bool(b) => *b,
        _ => return None,
    };
    Some((pred, steps, early))
}

/// The `/infer` request for one image; samples are sent as the exact
/// `f64` value of each `f32`, so the server parses the same bits back.
fn request_bytes(sample: &[f32]) -> Vec<u8> {
    let mut body = String::with_capacity(sample.len() * 12 + 16);
    body.push_str("{\"sample\":[");
    for (i, &v) in sample.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&f64::from(v).to_string());
    }
    body.push_str("]}");
    let mut out = format!(
        "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Writes as much of `conn.unsent` as the socket takes; false on error.
fn flush(conn: &mut ClientConn) -> bool {
    while !conn.unsent.is_empty() {
        match conn.stream.write(&conn.unsent) {
            Ok(0) => return false,
            Ok(n) => {
                conn.unsent.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
    true
}

/// Reads whatever the socket has; false once the peer closed or failed.
fn fill(conn: &mut ClientConn) -> bool {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return false,
            Ok(n) => conn.received.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
}

fn connect(addr: SocketAddr) -> Option<ClientConn> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(ClientConn {
        stream,
        inflight: None,
        unsent: Vec::new(),
        received: Vec::new(),
        last_used: Instant::now(),
    })
}

/// Requests per run: the whole passes over the test set that
/// [`RATE_PER_S`] fits into `seconds`, at least one. The schedule keeps the
/// rate, so it lasts `requests / RATE_PER_S`, within half a pass of
/// `seconds`.
fn requests(images: usize, seconds: f64) -> usize {
    let passes = (RATE_PER_S * seconds / images as f64).round().max(1.0) as usize;
    passes * images
}

/// Runs one open-loop schedule of `seconds` against a fresh server; every
/// answer must equal the untimed reference sweep's.
pub fn run(
    snn: &Arc<SpikingNetwork>,
    test: &Dataset,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let (images, labels) = (test.images(), test.labels());
    let reference = reference(snn, images, labels);
    let n_images = labels.len();
    let cfg = config(&images.dims()[1..]);
    let timed = tracer.enabled();
    let io_times = timed.then(|| Rc::new(RefCell::new(IoTimes::default())));
    let lane_times = Rc::new(RefCell::new(LaneTimes::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let addr = listener.local_addr().expect("local address");
    let backend_net = Arc::clone(snn);
    let backend_cfg = cfg.clone();
    let backend_times = Rc::clone(&lane_times);
    let make_backend: BackendFactory = Box::new(move || {
        let inner = LaneBackend::new(
            &backend_net,
            backend_cfg.capacity,
            &backend_cfg.feat_dims,
            Readout::SpikeCount,
            backend_cfg.policy,
        )
        .expect("lane backend");
        if timed {
            Box::new(TimedBackend {
                inner,
                times: Rc::clone(&backend_times),
            })
        } else {
            Box::new(inner)
        }
    });
    let transport = Box::new(Listener {
        listener,
        io: io_times.clone(),
    });
    let mut server = Server::new(
        cfg.clone(),
        WallClock(Instant::now()),
        transport,
        make_backend,
    )
    .expect("server config");

    // Inputs from the seed: every test image once per pass, each pass the
    // same bursts (the test set cut into runs of `burst` images, in test
    // set order) in a seeded order, at seeded times. Fixed bursts keep the
    // work of a burst, and which of its requests queue, the same from seed
    // to seed, so the latency tail does not depend on the seed's grouping.
    let n = requests(n_images, seconds);
    let burst = cfg.capacity + BURST_OVER_CAPACITY;
    let mut rng = SeededRng::new(seed);
    let bursts: Vec<Vec<usize>> = (0..n_images)
        .collect::<Vec<_>>()
        .chunks(burst)
        .map(<[usize]>::to_vec)
        .collect();
    let order: Vec<usize> = (0..n / n_images)
        .flat_map(|_| rng.permutation(bursts.len()))
        .flat_map(|b| bursts[b].iter().copied())
        .collect();
    let duration_us = (n as f64 / RATE_PER_S * 1e6) as u64;
    let due = burst_schedule(&mut rng, n, burst, duration_us);
    let row = images.len() / n_images;
    let bodies: Vec<Vec<u8>> = (0..n_images)
        .map(|i| request_bytes(&images.data()[i * row..(i + 1) * row]))
        .collect();

    let mut conns: Vec<ClientConn> = Vec::new();
    let mut latency_ms = vec![f64::NAN; n];
    let mut late_ms = Vec::with_capacity(n);
    let mut answers: Vec<Option<Served>> = vec![None; n];
    let mut tick_ms = Vec::new();
    let mut tick_self_us = Vec::new();
    let mut tick_steps = Vec::new();
    let mut next = 0usize;
    let mut done = 0usize;
    let mut backlog_at_end = None;
    let mut connect_failures = 0u64;
    let mut busy = Duration::ZERO;
    let mut queue_peak = 0usize;
    let mut host = Host::default();

    tracer.open("measure");
    let start = Instant::now();
    let due_at = |i: usize| start + Duration::from_micros(due[i]);
    while done < n {
        let now = Instant::now();
        // Release every request that has fallen due.
        while next < n && due_at(next) <= now {
            let idle = conns.iter().position(|c| c.inflight.is_none());
            let slot = match idle {
                Some(k) => Some(k),
                None => connect(addr).map(|c| {
                    conns.push(c);
                    conns.len() - 1
                }),
            };
            match slot {
                Some(k) => {
                    let c = &mut conns[k];
                    c.inflight = Some(next);
                    c.unsent = bodies[order[next]].clone();
                    c.last_used = now;
                    if !flush(c) {
                        c.inflight = None;
                        answers[next] = Some(NO_ANSWER);
                        done += 1;
                        conns.swap_remove(k);
                    }
                }
                None => {
                    connect_failures += 1;
                    answers[next] = Some(NO_ANSWER);
                    done += 1;
                }
            }
            late_ms.push(now.saturating_duration_since(due_at(next)).as_secs_f64() * 1e3);
            next += 1;
        }
        if next == n && backlog_at_end.is_none() {
            backlog_at_end = Some(conns.iter().filter(|c| c.inflight.is_some()).count());
        }

        let before_backend = lane_times.borrow().in_backend;
        let before_io = io_times.as_ref().map(|io| {
            let io = io.borrow();
            io.read + io.write
        });
        let inflight = conns.iter().filter(|c| c.inflight.is_some()).count();
        queue_peak = queue_peak.max(inflight.saturating_sub(cfg.capacity));
        let t = Instant::now();
        let report = server.tick();
        let tick = t.elapsed();
        busy += tick;
        if report.steps > 0 {
            tick_ms.push(tick.as_secs_f64() * 1e3);
            tick_steps.push(report.steps as f64);
            if let (Some(io), Some(before_io)) = (&io_times, before_io) {
                let io = io.borrow();
                let backend = lane_times.borrow().in_backend - before_backend;
                let transport = io.read + io.write - before_io;
                let own = tick.saturating_sub(backend + transport);
                tick_self_us.push(own.as_secs_f64() * 1e6);
            }
            if timed {
                tracer.leaf("serve.tick", t, tick);
            }
        }

        // Collect responses.
        let mut k = 0;
        while k < conns.len() {
            let c = &mut conns[k];
            let alive = flush(c) && fill(c);
            let mut keep = alive;
            if let Some(i) = c.inflight {
                if let Some(reply) = take_reply(&mut c.received) {
                    latency_ms[i] = due_at(i).elapsed().as_secs_f64() * 1e3;
                    answers[i] = Some(Served {
                        status: reply.status,
                        answer: answer(&reply.body),
                    });
                    c.inflight = None;
                    c.last_used = Instant::now();
                    done += 1;
                    keep = keep && !reply.close;
                } else if !alive {
                    answers[i] = Some(NO_ANSWER);
                    done += 1;
                }
            }
            // Retire idle connections before the server's timeouts could.
            keep = keep && (c.inflight.is_some() || c.last_used.elapsed() < CLIENT_IDLE);
            if keep {
                k += 1;
            } else {
                conns.swap_remove(k);
            }
        }
        if start.elapsed() > Duration::from_micros(duration_us) + DRAIN_LIMIT {
            break;
        }
        // Nothing in flight: calibrate in a long gap, then sleep until
        // shortly before the next arrival.
        if report.steps == 0 && conns.iter().all(|c| c.inflight.is_none()) && next < n {
            for _ in 0..CAL_PER_GAP {
                if due_at(next).saturating_duration_since(Instant::now()) <= CAL_GAP {
                    break;
                }
                host.sample();
            }
            let wait = due_at(next).saturating_duration_since(Instant::now());
            if wait > Duration::from_micros(300) {
                std::thread::sleep(wait - Duration::from_micros(200));
            }
        }
    }
    let elapsed = start.elapsed();
    tracer.attr("requests", n as f64);
    tracer.close();

    // Close the client side and let the server reap its connections.
    for c in &conns {
        let _ = c.stream.shutdown(Shutdown::Both);
    }
    drop(conns);
    let drain_start = Instant::now();
    while !server.idle() && drain_start.elapsed() < Duration::from_secs(5) {
        if server.tick().steps == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = server.stats().clone();

    // Correctness: every request answered 200 with the reference answer.
    let mut tally = Tally::default();
    let mut ok_200 = 0u64;
    let mut correct = 0usize;
    let mut steps_sum = 0usize;
    for (i, a) in answers.iter().enumerate() {
        let img = order[i];
        let want = (
            reference.predictions[img],
            reference.exit_steps[img],
            reference.exited[img],
        );
        let served = match a {
            Some(Served {
                status: 200,
                answer,
            }) => {
                ok_200 += 1;
                if let Some(got) = answer {
                    steps_sum += got.1;
                    correct += usize::from(got.0 == labels[img]);
                }
                *answer == Some(want)
            }
            _ => false,
        };
        tally.record(served);
    }
    let backlog = backlog_at_end.unwrap_or(n);
    let backlog_limit = cfg.capacity + cfg.queue_depth;
    let checks = vec![
        (
            format!(
                "serve: client 200s ({ok_200}) equal ServeStats::completed ({})",
                stats.completed
            ),
            ok_200 == stats.completed,
        ),
        (
            "serve: no shed, fault or deadline miss".to_string(),
            clean(&stats) && connect_failures == 0,
        ),
        (
            format!("serve: backlog at schedule end ({backlog}) within {backlog_limit}"),
            backlog <= backlog_limit,
        ),
    ];
    if !clean(&stats) {
        eprintln!("[perfbench] serve stats: {stats:?}");
    }

    let answered: Vec<f64> = latency_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    let (p99, q) = tail_percentile(&answered, 0.99).unwrap_or((f64::NAN, 0.0));
    let p50 = percentile(&answered, 0.5).unwrap_or(f64::NAN);
    let busy_s = busy.as_secs_f64();
    // Wall time to reference time.
    let scale = host.scale();
    eprintln!(
        "[perfbench] {n} requests in bursts of {burst} at {RATE_PER_S} req/s over \
         {:.1} s; tail percentile reported as p99: p{:.1}; wall p50 {p50:.3} ms, \
         p99 {p99:.3} ms, {:.1} requests per busy second; calibration {:.3} ms over {} \
         samples (scale {scale:.3})",
        elapsed.as_secs_f64(),
        q * 100.0,
        ok_200 as f64 / busy_s,
        host.mean_ms(),
        host.count(),
    );
    let mut e2e = Metrics::default();
    e2e.set("images_per_s", ok_200 as f64 / (busy_s * scale), "1/s");
    e2e.set("p50_ms", p50 * scale, "ms");
    e2e.set("p99_ms", p99 * scale, "ms");
    e2e.set("accuracy", correct as f64 / n as f64, "share");
    e2e.set("steps_per_image", steps_sum as f64 / n as f64, "steps");

    let lanes = lane_times.borrow();
    let mut layer = Metrics::default();
    layer.set("host.cal_ms", host.mean_ms(), "ms");
    layer.set("serve.queue_peak", queue_peak as f64, "requests");
    let step_us: Vec<f64> = lanes
        .steps
        .iter()
        .map(|(d, _)| d.as_secs_f64() * 1e6)
        .collect();
    let active: usize = lanes.steps.iter().map(|&(_, a)| a).sum();
    let step_total: Duration = lanes.steps.iter().map(|&(d, _)| d).sum();
    let submit_us: Vec<f64> = lanes.submit.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let service_ms: Vec<f64> = lanes
        .service
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let p = |v: &[f64], q: f64| tail_percentile(v, q).map_or(0.0, |p| p.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let active_mean = active as f64 / lanes.steps.len().max(1) as f64;
    layer.set("lanes.step_p50_us", p(&step_us, 0.5), "us");
    layer.set("lanes.step_p99_us", p(&step_us, 0.99), "us");
    layer.set("lanes.submit_us", mean(&submit_us), "us");
    layer.set("lanes.active_mean", active_mean, "lanes");
    layer.set(
        "lanes.us_per_lane_step",
        step_total.as_secs_f64() * 1e6 / active.max(1) as f64,
        "us",
    );
    layer.set("serve.tick_p50_ms", p(&tick_ms, 0.5), "ms");
    layer.set("serve.tick_p99_ms", p(&tick_ms, 0.99), "ms");
    layer.set(
        "serve.tick_self_us",
        median(&tick_self_us).unwrap_or(0.0),
        "us",
    );
    layer.set("serve.steps_per_tick", mean(&tick_steps), "steps");
    layer.set("serve.service_p50_ms", p(&service_ms, 0.5), "ms");
    layer.set("serve.service_p99_ms", p(&service_ms, 0.99), "ms");
    if let Some(io) = &io_times {
        let io = io.borrow();
        let per_request = |d: Duration| d.as_secs_f64() * 1e6 / n as f64;
        layer.set("io.read_us", per_request(io.read), "us");
        layer.set("io.write_us", per_request(io.write), "us");
    }
    layer.set("gen.late_p99_ms", p(&late_ms, 0.99), "ms");

    let replay_rows = (active_mean.round() as usize).clamp(1, cfg.capacity);
    let replay_idx: Vec<usize> = order[..replay_rows].to_vec();
    Outcome {
        tally,
        checks,
        e2e,
        layer,
        replay: gather(images, &replay_idx),
    }
}

fn clean(s: &ServeStats) -> bool {
    s.shed == 0
        && s.deadline_miss == 0
        && s.faults_disconnect == 0
        && s.faults_slowloris == 0
        && s.faults_oversize == 0
        && s.faults_engine == 0
}
