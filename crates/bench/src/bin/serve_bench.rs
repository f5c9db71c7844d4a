//! Load-sweep benchmark of the `tcl-serve` continuous-batching service:
//! offered load vs achieved throughput, latency percentiles, and the
//! saturation knee — at fixed accuracy — plus a keep-alive vs
//! close-per-request comparison and a real-socket soak mode.
//!
//! ```text
//! cargo run --release -p tcl-bench --bin serve_bench          # sweep + comparison, writes BENCH_serve.json
//! cargo run --release -p tcl-bench --bin serve_bench -- --soak  # loopback soak against the real tcl_serve binary
//! ```
//!
//! The sweep and the keep-alive comparison drive the *deterministic*
//! serving core (virtual clock + simulated transport, the same substrate
//! as the `tcl-serve` test suites), so queueing behavior — latency
//! growth, queue overflow, the knee, the reconnect tax — is an exact,
//! reproducible property of the admission policy rather than of the
//! benchmark machine. Wall-clock time is measured per row as well, giving
//! the real engine-side cost of the same work.
//!
//! Offered load in the sweep is an open-loop arrival process (seeded
//! jitter around the target rate); requests carry no deadlines, so
//! overload shows up as bounded-queue sheds (429) and latency inflation,
//! never as accuracy loss: every completed answer is the same bitwise
//! result batch evaluation would produce, which the accuracy column pins
//! per row.
//!
//! The keep-alive comparison is closed-loop at the knee operating point
//! (as many clients as lanes, each sending its next request on seeing the
//! previous answer): one pass reconnecting per request with a modeled
//! handshake gap, one pass reusing a single connection per client. The
//! sustained-rps delta is the reconnect tax keep-alive removes.
//!
//! `--soak` spawns the real `tcl_serve` binary on a loopback socket and
//! replays the same conversation shape over real kept-alive TCP
//! connections (plus a duplicate-Content-Length negative probe and a
//! pipelining probe), comparing achieved p50/p99/shed against a fresh
//! virtual-clock prediction of the identical workload.
//!
//! Writes `BENCH_serve.json` at the repo root: one row per offered load,
//! the saturation-knee row (the first load where the service sheds or p99
//! latency exceeds 5× the lightest load's p99), and the keep-alive
//! comparison. `--soak` writes nothing (its numbers are wall-clock).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tcl_bench::{help_requested, render_table, Scale};
use tcl_serve::sim::{infer_request, infer_request_keep_alive, ClientHandle, SimNet};
use tcl_serve::{Clock, LaneBackend, ServeConfig, Server, VirtualClock};
use tcl_snn::{
    ExitPolicy, IfNeurons, Readout, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode,
    SynapticOp,
};
use tcl_tensor::{SeededRng, Tensor};

const FEATURES: usize = 8;
const LANES: usize = 8;
const SEED: u64 = 0x5E27E;
/// Modeled connect handshake (SYN + accept scheduling) charged to every
/// reconnect in the close-per-request pass of the comparison.
const RECONNECT_GAP_US: u64 = 300;

/// One identity spiking layer: class `k` for the sample whose `k`-th
/// feature dominates, so expected answers are known without training.
fn identity_net() -> SpikingNetwork {
    let mut weight = vec![0.0f32; FEATURES * FEATURES];
    for i in 0..FEATURES {
        weight[i * FEATURES + i] = 1.0;
    }
    let weight = Tensor::from_vec([FEATURES, FEATURES], weight).expect("identity weight");
    SpikingNetwork::new(vec![SpikingNode::Spiking(SpikingLayer::new(
        SynapticOp::linear(weight, None).expect("identity layer"),
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))])
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        capacity: LANES,
        queue_depth: 2 * LANES,
        feat_dims: vec![FEATURES],
        policy: ExitPolicy::Adaptive {
            patience: 4,
            min_margin: 2.0,
            min_steps: 6,
        },
        max_steps: 100,
        us_per_step: 100,
        steps_per_tick: 1,
        max_body: 4096,
        head_timeout_us: 1_000_000,
        max_conns: 4096,
        max_requests_per_conn: 4096,
        idle_timeout_us: 1_000_000,
    }
}

/// Mirrors the `tcl_serve` binary's default demo configuration, so the
/// soak mode's virtual-clock prediction models the process it spawns.
fn binary_config() -> ServeConfig {
    ServeConfig {
        capacity: LANES,
        queue_depth: LANES * 4,
        feat_dims: vec![1, FEATURES],
        policy: ExitPolicy::Adaptive {
            patience: 8,
            min_margin: 2.0,
            min_steps: 16,
        },
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

/// The request mix: mostly confident samples (early exit ~10 steps), one
/// in eight a near-tie that rides a long margin climb. Returns (sample,
/// label) for request `i`.
fn sample_for(i: usize, rng: &mut SeededRng) -> (Vec<f32>, usize) {
    let label = rng.below(FEATURES);
    let mut sample = vec![0.05f32; FEATURES];
    if i % 8 == 7 {
        // Near-tie: margin grows slowly, exercising long-running lanes.
        sample[label] = 0.55;
        sample[(label + 1) % FEATURES] = 0.50;
    } else {
        sample[label] = 0.75 + rng.uniform(0.0, 0.2);
    }
    (sample, label)
}

/// Pre-generated per-client request samples, identical across the
/// comparison passes (and across soak and its prediction) so every mode
/// serves exactly the same work.
fn conversation_samples(clients: usize, per_client: usize) -> Vec<Vec<(Vec<f32>, usize)>> {
    (0..clients)
        .map(|c| {
            let mut rng = SeededRng::new(SEED ^ (c as u64 + 1));
            (0..per_client).map(|r| sample_for(r, &mut rng)).collect()
        })
        .collect()
}

fn lane_backend_factory(cfg: &ServeConfig) -> tcl_serve::BackendFactory {
    let net = identity_net();
    let capacity = cfg.capacity;
    let feat_dims = cfg.feat_dims.clone();
    let policy = cfg.policy;
    Box::new(move || -> Box<dyn tcl_serve::Backend> {
        Box::new(
            LaneBackend::new(&net, capacity, &feat_dims, Readout::SpikeCount, policy)
                .expect("lane backend"),
        )
    })
}

struct LoadRow {
    offered_rps: f64,
    completed: u64,
    shed: u64,
    accuracy: f64,
    p50_us: f64,
    p99_us: f64,
    achieved_rps: f64,
    engine_steps: u64,
    lane_steps: u64,
    wall_ms: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs one offered-load point: `n_req` open-loop arrivals at
/// `offered_rps` against a fresh server; returns the measured row.
fn run_load(offered_rps: f64, n_req: usize) -> LoadRow {
    let cfg = serve_config();
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);

    let mut rng = SeededRng::new(SEED);
    let mean_gap_us = 1e6 / offered_rps;
    let mut t = 0f64;
    let mut clients = Vec::with_capacity(n_req);
    let mut labels = Vec::with_capacity(n_req);
    for i in 0..n_req {
        // Jittered open-loop arrivals: uniform in [0.5, 1.5] × mean gap.
        t += mean_gap_us * (0.5 + f64::from(rng.uniform(0.0, 1.0)));
        let (sample, label) = sample_for(i, &mut rng);
        clients.push(sim.request_at(t as u64, infer_request(&sample, None)));
        labels.push(label);
    }

    let factory = lane_backend_factory(&cfg);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");

    // One engine timestep per 100 virtual µs tick (steps_per_tick ×
    // us_per_step), so the engine's virtual step rate is load-independent
    // and latency resolves at single-step granularity.
    let tick_us = 100;
    let start = Instant::now();
    let mut ticks = 0u64;
    while !(server.idle() && sim.pending() == 0) {
        server.tick();
        clock.advance(tick_us);
        ticks += 1;
        assert!(ticks < 50_000_000, "load sweep failed to drain");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut latencies = Vec::new();
    let mut correct = 0u64;
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut last_close = 0u64;
    for (client, label) in clients.iter().zip(&labels) {
        last_close = last_close.max(client.closed_at().unwrap_or(0));
        match client.status() {
            Some(200) => {
                completed += 1;
                let body = tcl_telemetry::json::parse_line(client.body().trim())
                    .expect("response body parses");
                let pred = body
                    .get("pred")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(u64::MAX);
                let latency = body
                    .get("latency_us")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                latencies.push(latency);
                if pred == *label as u64 {
                    correct += 1;
                }
            }
            Some(429) | Some(503) => shed += 1,
            other => panic!("unexpected response status {other:?}"),
        }
    }
    latencies.sort_by(f64::total_cmp);
    let makespan_s = (last_close.max(1) as f64) / 1e6;
    LoadRow {
        offered_rps,
        completed,
        shed,
        accuracy: if completed > 0 {
            correct as f64 / completed as f64
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        achieved_rps: completed as f64 / makespan_s,
        engine_steps: server.engine_steps(),
        lane_steps: server.lane_steps(),
        wall_ms,
    }
}

/// One closed-loop conversation pass (keep-alive or close-per-request).
struct ConvRow {
    completed: u64,
    shed: u64,
    reused: u64,
    sustained_rps: f64,
    p50_us: f64,
    p99_us: f64,
    makespan_us: u64,
}

/// Closed-loop conversation on the virtual clock: `clients` simulated
/// clients each send `per_client` requests sequentially, the next request
/// leaving only after the previous answer arrived. With `keep_alive` the
/// whole conversation rides one connection per client (the final request
/// says `Connection: close`); otherwise every request reconnects, paying
/// [`RECONNECT_GAP_US`] — the handshake tax the comparison measures.
fn run_conversation(
    cfg: ServeConfig,
    tick_us: u64,
    keep_alive: bool,
    samples: &[Vec<(Vec<f32>, usize)>],
) -> ConvRow {
    let clients = samples.len();
    let per_client = samples.first().map_or(0, Vec::len);
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);

    let request_bytes = |c: usize, r: usize| -> Vec<u8> {
        let (sample, _) = &samples[c][r];
        if keep_alive && r + 1 < per_client {
            infer_request_keep_alive(sample, None)
        } else {
            infer_request(sample, None)
        }
    };

    // Per-client conversation state: every handle opened so far (one for
    // keep-alive, one per request for close mode) and requests sent.
    let mut handles: Vec<Vec<ClientHandle>> = (0..clients)
        .map(|c| vec![sim.request_at(0, request_bytes(c, 0))])
        .collect();
    let mut sent = vec![1usize; clients];

    let factory = lane_backend_factory(&cfg);
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");

    let mut ticks = 0u64;
    loop {
        server.tick();
        let now = clock.now_us();
        let mut all_done = true;
        for c in 0..clients {
            let current = handles[c].last().expect("client has a connection");
            if keep_alive {
                if current.closed_at().is_some() {
                    continue; // conversation over (or cut short by an error)
                }
                all_done = false;
                // Send the next request the moment the previous answer is in.
                if current.responses().len() >= sent[c] && sent[c] < per_client {
                    current.send_at(now, request_bytes(c, sent[c]));
                    sent[c] += 1;
                }
            } else if let Some(closed) = current.closed_at() {
                if sent[c] < per_client {
                    all_done = false;
                    let at = now.max(closed) + RECONNECT_GAP_US;
                    let handle = sim.request_at(at, request_bytes(c, sent[c]));
                    handles[c].push(handle);
                    sent[c] += 1;
                }
            } else {
                all_done = false;
            }
        }
        if all_done && server.idle() && sim.pending() == 0 {
            break;
        }
        clock.advance(tick_us);
        ticks += 1;
        assert!(ticks < 50_000_000, "conversation failed to drain");
    }

    let mut latencies = Vec::new();
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut makespan_us = 0u64;
    for per_client_handles in &handles {
        for handle in per_client_handles {
            makespan_us = makespan_us.max(handle.closed_at().unwrap_or(0));
            for (status, body) in handle.responses() {
                match status {
                    200 => {
                        completed += 1;
                        let body = tcl_telemetry::json::parse_line(body.trim())
                            .expect("response body parses");
                        let latency = body
                            .get("latency_us")
                            .and_then(|v| v.as_f64())
                            .unwrap_or(0.0);
                        latencies.push(latency);
                    }
                    429 | 503 => shed += 1,
                    other => panic!("unexpected response status {other}"),
                }
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    ConvRow {
        completed,
        shed,
        reused: server.stats().reused,
        sustained_rps: completed as f64 / (makespan_us.max(1) as f64 / 1e6),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        makespan_us,
    }
}

// ---------------------------------------------------------------------------
// Soak mode: the real tcl_serve binary over loopback sockets.
// ---------------------------------------------------------------------------

/// Locates the `tcl_serve` binary next to this one (both land in the same
/// cargo target profile directory).
fn find_tcl_serve() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = if cfg!(windows) {
        "tcl_serve.exe"
    } else {
        "tcl_serve"
    };
    let dir = exe.parent()?;
    [dir.join(name), dir.parent()?.join(name)]
        .into_iter()
        .find(|candidate| candidate.exists())
}

/// Reads exactly one HTTP response from the stream (head + Content-Length
/// body), carrying surplus bytes across calls in `buf`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, String), String> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((head_len, term_len)) = find_head_end(buf) {
            let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
            let status: u16 = head
                .lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad status line in {head:?}"))?;
            let content_length = head
                .lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            let body_start = head_len + term_len;
            while buf.len() < body_start + content_length {
                let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
                if n == 0 {
                    return Err("connection closed mid-body".into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body =
                String::from_utf8_lossy(&buf[body_start..body_start + content_length]).into_owned();
            buf.drain(..body_start + content_length);
            return Ok((status, body));
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed before response head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

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

struct SoakWorker {
    statuses: Vec<u16>,
    latencies_us: Vec<f64>,
    parse_errors: u64,
    late_sheds: u64,
}

/// One soak connection: `per_conn` sequential requests over a single
/// kept-alive TCP stream (the last request closes). Every 4th request
/// carries a generous deadline so the sheds-within-deadline invariant is
/// exercised end to end if the server ever sheds.
fn soak_connection(port: u16, samples: &[(Vec<f32>, usize)]) -> SoakWorker {
    const SOAK_DEADLINE_US: u64 = 500_000;
    let mut worker = SoakWorker {
        statuses: Vec::new(),
        latencies_us: Vec::new(),
        parse_errors: 0,
        late_sheds: 0,
    };
    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(_) => {
            worker.parse_errors += 1;
            return worker;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut buf = Vec::new();
    for (r, (sample, _)) in samples.iter().enumerate() {
        let deadline = (r % 4 == 3).then_some(SOAK_DEADLINE_US);
        let req = if r + 1 == samples.len() {
            infer_request(sample, deadline)
        } else {
            infer_request_keep_alive(sample, deadline)
        };
        let start = Instant::now();
        if stream.write_all(&req).is_err() {
            worker.parse_errors += 1;
            break;
        }
        match read_response(&mut stream, &mut buf) {
            Ok((status, _body)) => {
                let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
                worker.statuses.push(status);
                if status == 200 {
                    worker.latencies_us.push(elapsed_us);
                } else if let Some(d) = deadline {
                    // A shed must still answer before the deadline it failed.
                    if elapsed_us >= d as f64 {
                        worker.late_sheds += 1;
                    }
                }
                if status != 200 {
                    break; // non-200 closes the connection
                }
            }
            Err(_) => {
                worker.parse_errors += 1;
                break;
            }
        }
    }
    worker
}

/// The negative probe: duplicate Content-Length must answer 400.
fn soak_duplicate_cl_probe(port: u16) -> Result<u16, String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    stream
        .write_all(b"POST /infer HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc")
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf).map(|(status, _)| status)
}

/// The pipelining probe: three requests written in one burst must come
/// back as three in-order responses on the same connection.
fn soak_pipeline_probe(port: u16) -> Result<Vec<u16>, String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut burst = Vec::new();
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\n");
    burst.extend_from_slice(b"GET /stats HTTP/1.1\r\nHost: soak\r\n\r\n");
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n");
    stream.write_all(&burst).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut statuses = Vec::new();
    for _ in 0..3 {
        let (status, _) = read_response(&mut stream, &mut buf)?;
        statuses.push(status);
    }
    Ok(statuses)
}

/// Spawns the real `tcl_serve` binary on an ephemeral loopback port,
/// drives reused connections against it, and compares the achieved
/// numbers with a virtual-clock prediction of the identical workload.
fn run_soak(scale: Scale) {
    let (n_conns, per_conn) = match scale {
        Scale::Quick => (4, 8),
        Scale::Standard => (8, 16),
        Scale::Full => (8, 64),
    };
    let samples = conversation_samples(n_conns, per_conn);

    let bin = find_tcl_serve()
        .expect("tcl_serve binary not found next to serve_bench (build -p tcl-serve first)");
    let mut child = std::process::Command::new(&bin)
        .env("TCL_SERVE_ADDR", "127.0.0.1:0")
        .env("TCL_SERVE_FEATURES", FEATURES.to_string())
        .env("TCL_SERVE_LANES", LANES.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tcl_serve");
    let stderr = child.stderr.take().expect("child stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut port = None;
    let wait_until = Instant::now() + Duration::from_secs(10);
    let mut line = String::new();
    while Instant::now() < wait_until {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        // "[tcl-serve] listening on http://127.0.0.1:PORT/ (...)"
        if let Some(rest) = line.split("http://127.0.0.1:").nth(1) {
            port = rest.split('/').next().and_then(|p| p.parse::<u16>().ok());
            break;
        }
    }
    // Keep draining child stderr so the pipe never backpressures it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    let Some(port) = port else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("tcl_serve did not announce a listening port");
    };
    println!("== loopback soak ({} scale: {n_conns} connections × {per_conn} requests, port {port}) ==\n", scale.name());

    let start = Instant::now();
    let workers: Vec<SoakWorker> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .iter()
            .map(|conn_samples| scope.spawn(move || soak_connection(port, conn_samples)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak worker"))
            .collect()
    });
    let soak_wall_s = start.elapsed().as_secs_f64();

    let dup_status = soak_duplicate_cl_probe(port);
    let pipeline_statuses = soak_pipeline_probe(port);
    let _ = child.kill();
    let _ = child.wait();

    let mut latencies: Vec<f64> = workers
        .iter()
        .flat_map(|w| w.latencies_us.clone())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let completed = latencies.len() as u64;
    let shed = workers
        .iter()
        .flat_map(|w| &w.statuses)
        .filter(|s| **s == 429 || **s == 503)
        .count() as u64;
    let parse_errors: u64 = workers.iter().map(|w| w.parse_errors).sum();
    let late_sheds: u64 = workers.iter().map(|w| w.late_sheds).sum();
    for status in workers.iter().flat_map(|w| &w.statuses) {
        assert!(
            matches!(status, 200 | 429 | 503),
            "soak saw unexpected status {status}"
        );
    }

    // The virtual-clock prediction of the identical workload, on a config
    // mirroring the binary's defaults (50µs steps, adaptive exit 8/2/16)
    // but stepping once per 50µs tick so latency resolves in the deadline
    // currency (one step = us_per_step) instead of collapsing into a
    // single 64-step tick.
    let mut prediction_cfg = binary_config();
    prediction_cfg.steps_per_tick = 1;
    let tick_us = prediction_cfg.us_per_step;
    let predicted = run_conversation(prediction_cfg, tick_us, true, &samples);

    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let header: Vec<String> = ["", "completed", "shed", "p50_us", "p99_us"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let table = vec![
        vec![
            "soak (real sockets)".to_string(),
            completed.to_string(),
            shed.to_string(),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
        ],
        vec![
            "virtual prediction".to_string(),
            predicted.completed.to_string(),
            predicted.shed.to_string(),
            format!("{:.0}", predicted.p50_us),
            format!("{:.0}", predicted.p99_us),
        ],
    ];
    println!("{}", render_table(&header, &table));
    println!("soak wall time: {soak_wall_s:.2}s");

    assert_eq!(parse_errors, 0, "soak parse errors");
    println!("soak: parse_errors=0 across {completed} responses on reused connections");
    assert_eq!(late_sheds, 0, "a shed answered after its deadline");
    println!("soak: sheds-within-deadline held ({shed} sheds)");
    assert_eq!(
        completed + shed,
        (n_conns * per_conn) as u64,
        "every request was answered"
    );
    assert_eq!(
        predicted.completed + predicted.shed,
        (n_conns * per_conn) as u64,
        "prediction covers the same request count"
    );
    assert_eq!(
        shed, predicted.shed,
        "real sheds diverged from the virtual-clock prediction"
    );
    // Latency comparison is loose by design: the prediction counts virtual
    // microseconds (one step = exactly us_per_step = 50µs), while the soak
    // counts wall time — real steps cost far less than 50µs, and the
    // binary's 1ms idle-pacing sleep pushes the other way. Same order of
    // magnitude, either direction, is the claim.
    let ratio = (p99 / predicted.p99_us.max(1.0)).max(predicted.p99_us.max(1.0) / p99.max(1.0));
    assert!(
        p99 > 0.0 && predicted.p99_us > 0.0 && ratio < 1000.0,
        "soak p99 {p99:.0}µs implausibly far from predicted {:.0}µs",
        predicted.p99_us
    );
    println!(
        "soak vs prediction: p50 {p50:.0}/{:.0}µs, p99 {p99:.0}/{:.0}µs, shed {shed}/{}",
        predicted.p50_us, predicted.p99_us, predicted.shed
    );

    let dup = dup_status.expect("duplicate-Content-Length probe got a response");
    assert_eq!(dup, 400, "duplicate Content-Length must be rejected");
    println!("soak: duplicate-Content-Length probe -> 400");
    let pipe = pipeline_statuses.expect("pipelining probe got responses");
    assert_eq!(pipe, vec![200, 200, 200], "pipelined responses in order");
    println!("soak: pipelined burst answered in order -> {pipe:?}");
    println!("\nsoak OK");
}

fn main() {
    if help_requested(
        "serve_bench",
        "continuous-batching serving load sweep: offered load vs achieved req/s, \
         p50/p99 latency, sheds, and the saturation knee at fixed accuracy, plus a \
         keep-alive vs close-per-request comparison (deterministic virtual-clock \
         simulation); writes BENCH_serve.json. --soak drives the real tcl_serve \
         binary over loopback sockets instead",
    ) {
        return;
    }
    let scale = Scale::from_env();
    if std::env::args().any(|a| a == "--soak") {
        run_soak(scale);
        return;
    }
    let n_req = match scale {
        Scale::Quick => 150,
        Scale::Standard => 400,
        Scale::Full => 1200,
    };
    let loads: &[f64] = &[250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0];

    println!(
        "== serving load sweep ({} scale: {n_req} requests/row, {LANES} lanes) ==\n",
        scale.name()
    );
    let rows: Vec<LoadRow> = loads.iter().map(|&rps| run_load(rps, n_req)).collect();

    // Saturation knee: the first load that sheds, or whose p99 latency
    // exceeds 5× the lightest load's p99.
    let base_p99 = rows.first().map_or(0.0, |r| r.p99_us);
    let knee = rows
        .iter()
        .position(|r| r.shed > 0 || r.p99_us > 5.0 * base_p99)
        .unwrap_or(rows.len() - 1);

    let header: Vec<String> = [
        "offered_rps",
        "achieved_rps",
        "completed",
        "shed",
        "accuracy",
        "p50_us",
        "p99_us",
        "engine_steps",
        "wall_ms",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                format!("{:.0}{}", r.offered_rps, if i == knee { " *" } else { "" }),
                format!("{:.0}", r.achieved_rps),
                r.completed.to_string(),
                r.shed.to_string(),
                format!("{:.3}", r.accuracy),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                r.engine_steps.to_string(),
                format!("{:.1}", r.wall_ms),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &table));
    println!("* saturation knee");

    // Accuracy is load-invariant by construction (completed answers are
    // the batch-evaluation results); fail loudly if serving ever bends it.
    let acc0 = rows[0].accuracy;
    for r in &rows {
        assert!(
            (r.accuracy - acc0).abs() < 1e-9,
            "accuracy moved under load: {} vs {acc0} at {} rps",
            r.accuracy,
            r.offered_rps
        );
    }

    // Keep-alive vs close-per-request, closed-loop at the knee operating
    // point (LANES clients, each waiting for its answer before sending the
    // next request). The delta is the reconnect tax.
    let per_client = (n_req / LANES).max(4);
    let samples = conversation_samples(LANES, per_client);
    let close_row = run_conversation(serve_config(), 100, false, &samples);
    let keep_row = run_conversation(serve_config(), 100, true, &samples);
    println!(
        "\n== keep-alive vs close-per-request ({LANES} closed-loop clients × {per_client} \
         requests, {RECONNECT_GAP_US}µs reconnect gap) ==\n"
    );
    let conv_header: Vec<String> = [
        "mode",
        "completed",
        "shed",
        "reused",
        "sustained_rps",
        "p50_us",
        "p99_us",
        "makespan_ms",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let conv_table: Vec<Vec<String>> = [("close", &close_row), ("keep-alive", &keep_row)]
        .iter()
        .map(|(name, r)| {
            vec![
                (*name).to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                r.reused.to_string(),
                format!("{:.0}", r.sustained_rps),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                format!("{:.1}", r.makespan_us as f64 / 1e3),
            ]
        })
        .collect();
    println!("{}", render_table(&conv_header, &conv_table));
    let speedup = keep_row.sustained_rps / close_row.sustained_rps.max(1e-9);
    println!("keep-alive sustained-rps speedup: {speedup:.2}x");
    assert!(
        keep_row.sustained_rps > close_row.sustained_rps,
        "keep-alive must sustain more rps than close-per-request \
         ({:.0} vs {:.0})",
        keep_row.sustained_rps,
        close_row.sustained_rps
    );
    assert_eq!(keep_row.completed, close_row.completed, "same served work");
    assert_eq!(
        keep_row.reused,
        (LANES * (per_client - 1)) as u64,
        "every follow-up request rode a reused connection"
    );
    assert_eq!(close_row.reused, 0);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": \"identity-{FEATURES} spiking net, {LANES} lanes, adaptive exit \
         (patience 4, margin 2), {n_req} open-loop requests per row ({} scale)\",",
        scale.name(),
    );
    let _ = writeln!(
        json,
        "  \"clock\": \"virtual (deterministic); wall_ms is the real engine cost per row\","
    );
    let _ = writeln!(json, "  \"accuracy_fixed\": {acc0:.4},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"offered_rps\": {:.0}, \"achieved_rps\": {:.1}, \"completed\": {}, \
             \"shed\": {}, \"accuracy\": {:.4}, \"p50_us\": {:.0}, \"p99_us\": {:.0}, \
             \"engine_steps\": {}, \"lane_steps\": {}, \"wall_ms\": {:.1} }}{}",
            r.offered_rps,
            r.achieved_rps,
            r.completed,
            r.shed,
            r.accuracy,
            r.p50_us,
            r.p99_us,
            r.engine_steps,
            r.lane_steps,
            r.wall_ms,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"knee\": {{ \"offered_rps\": {:.0}, \"achieved_rps\": {:.1}, \"p99_us\": {:.0}, \
         \"shed\": {} }},",
        rows[knee].offered_rps, rows[knee].achieved_rps, rows[knee].p99_us, rows[knee].shed,
    );
    let _ = writeln!(
        json,
        "  \"keepalive_comparison\": {{ \"clients\": {LANES}, \"requests_per_client\": \
         {per_client}, \"reconnect_gap_us\": {RECONNECT_GAP_US}, \"close\": {{ \
         \"sustained_rps\": {:.1}, \"p50_us\": {:.0}, \"p99_us\": {:.0}, \"makespan_ms\": \
         {:.1} }}, \"keepalive\": {{ \"sustained_rps\": {:.1}, \"p50_us\": {:.0}, \
         \"p99_us\": {:.0}, \"makespan_ms\": {:.1}, \"reused\": {} }}, \
         \"sustained_speedup\": {speedup:.3} }}",
        close_row.sustained_rps,
        close_row.p50_us,
        close_row.p99_us,
        close_row.makespan_us as f64 / 1e3,
        keep_row.sustained_rps,
        keep_row.p50_us,
        keep_row.p99_us,
        keep_row.makespan_us as f64 / 1e3,
        keep_row.reused,
    );
    let _ = writeln!(json, "}}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("json: {}", path.display());
}
