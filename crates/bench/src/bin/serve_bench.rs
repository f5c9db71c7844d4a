//! Loopback soak of the `tcl_serve` binary serving a converted model.
//!
//! ```text
//! cargo run --release -p tcl-bench --bin serve_bench -- --soak
//! ```
//!
//! Trains (or loads from the model cache) the TCL cnn6 on the Cifar-10
//! stand-in at `TCL_SCALE`, converts it with its trained clipping bounds,
//! writes the conversion to `results/serve_bench_cnn6_<scale>.tclk` and
//! spawns `tcl_serve --model` on it over a loopback socket. Test images are then
//! replayed over kept-alive TCP connections, plus a
//! duplicate-Content-Length negative probe and a pipelining probe.
//!
//! The soak checks that every request is answered without a parse error,
//! that sheds answer within their deadline, and that every 200 answer
//! (class, steps, early exit) equals `Engine::evaluate_shared` on the same
//! network under the same policy and step budget. It compares its p50/p99
//! and shed count with a virtual-clock prediction of the same workload:
//! the same converted network behind `tcl_serve::Server` under the
//! production configuration ([`ServeConfig::production`]), stepping once
//! per tick. Its numbers are wall-clock and are not written.
//! (`--soak` names the mode; it is the only one.)

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcl_bench::{help_requested, percentile, train_or_load, write_model, DatasetKind, Scale};
use tcl_core::{Converter, NormStrategy};
use tcl_models::Architecture;
use tcl_serve::sim::{infer_request, infer_request_keep_alive, split_responses, SimNet};
use tcl_serve::{Clock, LaneBackend, ServeConfig, Server, VirtualClock};
use tcl_snn::{Engine, EngineResult, Readout, SimConfig, SpikingNetwork};
use tcl_telemetry::json::{parse_line, JsonValue};

/// Lanes of the spawned server and of its prediction.
const LANES: usize = 8;
/// The spawned server's step budget cap (its default).
const MAX_STEPS: usize = 256;
/// The deadline every 4th request carries: 10000 steps at 50 µs per
/// step, above `MAX_STEPS`, so its budget is the same as a deadline-less
/// request's.
const SOAK_DEADLINE_US: u64 = 500_000;

/// One served answer: predicted class, steps simulated, early exit.
type Answer = (usize, usize, bool);

/// The `/infer` request for image `r` of a conversation: every 4th carries
/// [`SOAK_DEADLINE_US`], and the last closes the connection.
fn request(conversation: &[(usize, &[f32])], r: usize) -> (Vec<u8>, Option<u64>) {
    let deadline = (r % 4 == 3).then_some(SOAK_DEADLINE_US);
    let sample = conversation[r].1;
    if r + 1 < conversation.len() {
        (infer_request_keep_alive(sample, deadline), deadline)
    } else {
        (infer_request(sample, deadline), deadline)
    }
}

fn parse_answer(body: &str) -> Option<Answer> {
    let v = parse_line(body.trim()).ok()?;
    let pred = usize::try_from(v.get("pred")?.as_u64()?).ok()?;
    let steps = usize::try_from(v.get("steps")?.as_u64()?).ok()?;
    let early = match v.get("early")? {
        JsonValue::Bool(b) => *b,
        _ => return None,
    };
    Some((pred, steps, early))
}

/// The virtual-clock prediction of the soak's workload.
struct Prediction {
    shed: u64,
    p50_us: f64,
    p99_us: f64,
    /// Image index and parsed answer of every 200 response.
    answers: Vec<(usize, Option<Answer>)>,
}

/// Closed-loop keep-alive conversations on the virtual clock: client `c`
/// sends `conversations[c]`'s images one after another on one connection,
/// each leaving the moment the previous answer arrived, against a server
/// that runs `cfg` over `net` and advances the clock by `tick_us` per tick.
fn predict(
    net: &SpikingNetwork,
    cfg: ServeConfig,
    tick_us: u64,
    conversations: &[Vec<(usize, &[f32])>],
) -> Prediction {
    let clock = VirtualClock::new();
    let sim = SimNet::new(&clock);
    let handles: Vec<_> = conversations
        .iter()
        .map(|conversation| sim.request_at(0, request(conversation, 0).0))
        .collect();
    let mut sent = vec![1usize; conversations.len()];
    let factory = LaneBackend::factory(net, &cfg).expect("lane backend");
    let mut server =
        Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
    let mut ticks = 0u64;
    loop {
        server.tick();
        let now = clock.now_us();
        let mut all_done = true;
        for (c, handle) in handles.iter().enumerate() {
            if handle.closed_at().is_some() {
                continue; // conversation over (or cut short by an error)
            }
            all_done = false;
            // Send the next request the moment the previous answer is in.
            if handle.responses().len() >= sent[c] && sent[c] < conversations[c].len() {
                handle.send_at(now, request(&conversations[c], sent[c]).0);
                sent[c] += 1;
            }
        }
        if all_done && server.idle() && sim.pending() == 0 {
            break;
        }
        clock.advance(tick_us);
        ticks += 1;
        assert!(ticks < 50_000_000, "prediction failed to drain");
    }

    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut shed = 0u64;
    for (c, handle) in handles.iter().enumerate() {
        for (r, (status, body)) in handle.responses().into_iter().enumerate() {
            match status {
                200 => {
                    let latency = parse_line(body.trim())
                        .ok()
                        .and_then(|v| v.get("latency_us").and_then(JsonValue::as_f64))
                        .unwrap_or(0.0);
                    latencies.push(latency);
                    answers.push((conversations[c][r].0, parse_answer(&body)));
                }
                429 | 503 => shed += 1,
                other => panic!("unexpected response status {other}"),
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    Prediction {
        shed,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        answers,
    }
}

/// How many 200 answers differ from the batch engine's answer for their
/// image (an unparsable body counts as a difference).
fn mismatches(answers: &[(usize, Option<Answer>)], reference: &EngineResult) -> usize {
    answers
        .iter()
        .filter(|(image, answer)| {
            *answer
                != Some((
                    reference.predictions[*image],
                    reference.exit_steps[*image],
                    reference.exited[*image],
                ))
        })
        .count()
}

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

/// Reads from `stream` into `buf` until it holds `n` complete responses,
/// and returns them.
fn read_responses(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    n: usize,
) -> Result<Vec<(u16, String)>, String> {
    let mut chunk = [0u8; 4096];
    loop {
        let responses = split_responses(buf);
        if responses.len() >= n {
            return Ok(responses);
        }
        let read = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if read == 0 {
            return Err("connection closed before the response".into());
        }
        buf.extend_from_slice(&chunk[..read]);
    }
}

#[derive(Default)]
struct SoakWorker {
    statuses: Vec<u16>,
    latencies_us: Vec<f64>,
    /// Image index and parsed answer of every 200 response.
    answers: Vec<(usize, Option<Answer>)>,
    parse_errors: u64,
    late_sheds: u64,
}

/// One soak connection: sequential requests for `images` over a single
/// kept-alive TCP stream. The deadlined requests exercise the
/// sheds-within-deadline invariant end to end if the server ever sheds.
fn soak_connection(port: u16, images: &[(usize, &[f32])]) -> SoakWorker {
    let mut worker = SoakWorker::default();
    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(_) => {
            worker.parse_errors += 1;
            return worker;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut buf = Vec::new();
    for (r, &(image, _)) in images.iter().enumerate() {
        let (req, deadline) = request(images, r);
        let start = Instant::now();
        if stream.write_all(&req).is_err() {
            worker.parse_errors += 1;
            break;
        }
        // `buf` keeps the connection's earlier responses: the answer to
        // request `r` is the (r+1)-th.
        match read_responses(&mut stream, &mut buf, r + 1).map(|mut all| all.swap_remove(r)) {
            Ok((status, body)) => {
                let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
                worker.statuses.push(status);
                if status == 200 {
                    worker.latencies_us.push(elapsed_us);
                    worker.answers.push((image, parse_answer(&body)));
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

/// Writes `bytes` on a fresh connection and reads `responses` statuses
/// back from it.
fn probe(port: u16, bytes: &[u8], responses: usize) -> Result<Vec<u16>, String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    stream.write_all(bytes).map_err(|e| e.to_string())?;
    let all = read_responses(&mut stream, &mut Vec::new(), responses)?;
    Ok(all.into_iter().map(|(status, _)| status).collect())
}

/// Spawns the real `tcl_serve` binary on an ephemeral loopback port with a
/// freshly converted model, drives reused connections against it, and
/// checks the answers against the batch engine and the virtual-clock
/// prediction.
fn run_soak(scale: Scale) {
    let (n_conns, per_conn) = match scale {
        Scale::Quick => (4, 8),
        Scale::Standard => (8, 16),
        Scale::Full => (8, 64),
    };

    let dataset = DatasetKind::Cifar;
    let data = dataset.generate(scale);
    let ann = train_or_load(
        Architecture::Cnn6,
        dataset,
        &data,
        Some(dataset.lambda0()),
        scale,
    );
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&ann, data.train.take(200).images())
        .expect("tcl conversion of the preset cnn6");
    let test = data.test.take(n_conns * per_conn);
    let images = test.images();
    let sample_dims = images.dims()[1..].to_vec();
    let model = write_model(
        &format!("serve_bench_cnn6_{}", scale.name()),
        &ann,
        &conversion,
        &sample_dims,
    );
    println!("model: {}", model.display());

    let row = images.len() / test.len();
    let conversations: Vec<Vec<(usize, &[f32])>> = (0..n_conns)
        .map(|c| {
            (0..per_conn)
                .map(|r| {
                    let image = (c * per_conn + r) % test.len();
                    (image, &images.data()[image * row..(image + 1) * row])
                })
                .collect()
        })
        .collect();

    let bin = find_tcl_serve()
        .expect("tcl_serve binary not found next to serve_bench (build -p tcl-serve first)");
    let mut child = std::process::Command::new(&bin)
        .arg("--model")
        .arg(&model)
        .env("TCL_SERVE_ADDR", "127.0.0.1:0")
        .env("TCL_SERVE_LANES", LANES.to_string())
        .env("TCL_SERVE_MAX_STEPS", MAX_STEPS.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tcl_serve");
    let stderr = child.stderr.take().expect("child stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut port = None;
    let wait_until = Instant::now() + Duration::from_secs(30);
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
        panic!("tcl_serve did not announce a listening port: {line}");
    };
    println!(
        "== loopback soak ({} scale: converted cnn6, {n_conns} connections × {per_conn} \
         requests, port {port}) ==\n",
        scale.name()
    );

    let start = Instant::now();
    let workers: Vec<SoakWorker> = std::thread::scope(|scope| {
        let handles: Vec<_> = conversations
            .iter()
            .map(|images| scope.spawn(move || soak_connection(port, images)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak worker"))
            .collect()
    });
    let soak_wall_s = start.elapsed().as_secs_f64();

    // The negative probe: duplicate Content-Length must answer 400. The
    // pipelining probe: four requests written in one burst (`/metrics`
    // among them) must come back as four in-order responses on the same
    // connection.
    let dup_status = probe(
        port,
        b"POST /infer HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
        1,
    );
    let pipeline_statuses = probe(
        port,
        b"GET /healthz HTTP/1.1\r\nHost: soak\r\n\r\nGET /stats HTTP/1.1\r\nHost: soak\r\n\r\n\
          GET /metrics HTTP/1.1\r\nHost: soak\r\n\r\n\
          GET /healthz HTTP/1.1\r\nHost: soak\r\nConnection: close\r\n\r\n",
        4,
    );
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
    let answers: Vec<(usize, Option<Answer>)> = workers
        .iter()
        .flat_map(|w| w.answers.iter().copied())
        .collect();

    // The batch engine's answers under the served policy and budget.
    let cfg = ServeConfig::production(&sample_dims, LANES, MAX_STEPS);
    let snn = Arc::new(conversion.snn);
    let sim = SimConfig::new(vec![cfg.max_steps], 32, Readout::SpikeCount).expect("valid grid");
    let reference = Engine::with_threads(1)
        .evaluate_shared(&snn, images, test.labels(), &sim, cfg.policy)
        .expect("reference sweep");

    // The virtual-clock prediction, stepping once per `us_per_step` tick so
    // latency resolves in the deadline currency instead of collapsing into
    // one 64-step tick.
    let mut prediction_cfg = cfg;
    prediction_cfg.steps_per_tick = 1;
    let tick_us = prediction_cfg.us_per_step;
    let predicted = predict(&snn, prediction_cfg, tick_us, &conversations);

    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!("soak wall time: {soak_wall_s:.2}s");
    let correct = answers
        .iter()
        .filter(|(image, a)| a.is_some_and(|(pred, _, _)| pred == test.labels()[*image]))
        .count();
    println!("soak accuracy: {correct}/{completed} answers name the label");

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
        predicted.answers.len() as u64 + predicted.shed,
        (n_conns * per_conn) as u64,
        "prediction covers the same request count"
    );
    assert_eq!(
        shed, predicted.shed,
        "real sheds diverged from the virtual-clock prediction"
    );
    assert_eq!(
        mismatches(&answers, &reference),
        0,
        "a served answer differs from Engine::evaluate_shared"
    );
    assert_eq!(
        mismatches(&predicted.answers, &reference),
        0,
        "a predicted answer differs from Engine::evaluate_shared"
    );
    println!(
        "soak: every 200 answer matches Engine::evaluate_shared ({completed} served, {} \
         predicted)",
        predicted.answers.len()
    );
    // Latency comparison is loose by design: the prediction counts virtual
    // microseconds (one step = exactly us_per_step = 50µs), while the soak
    // counts wall time, and the binary's 1ms idle-pacing sleep adds to it.
    // Same order of magnitude, either direction, is the claim.
    let ratio = (p99 / predicted.p99_us.max(1.0)).max(predicted.p99_us.max(1.0) / p99.max(1.0));
    assert!(
        p99 > 0.0 && predicted.p99_us > 0.0 && ratio < 10.0,
        "soak p99 {p99:.0}µs implausibly far from predicted {:.0}µs",
        predicted.p99_us
    );
    println!(
        "soak vs prediction: p50 {p50:.0}/{:.0}µs, p99 {p99:.0}/{:.0}µs, shed {shed}/{}",
        predicted.p50_us, predicted.p99_us, predicted.shed
    );

    let dup = dup_status.expect("duplicate-Content-Length probe got a response");
    assert_eq!(dup, vec![400], "duplicate Content-Length must be rejected");
    println!("soak: duplicate-Content-Length probe -> 400");
    let pipe = pipeline_statuses.expect("pipelining probe got responses");
    assert_eq!(pipe, vec![200; 4], "pipelined responses in order");
    println!("soak: pipelined burst answered in order -> {pipe:?}");
    println!("\nsoak OK");
}

fn main() {
    if help_requested(
        "serve_bench",
        "loopback soak (--soak) of the real tcl_serve binary serving the converted \
         TCL cnn6: reused connections, sheds within deadline, every answer equal to \
         the batch engine's, and a virtual-clock prediction of the same workload",
    ) {
        return;
    }
    run_soak(Scale::from_env());
}
