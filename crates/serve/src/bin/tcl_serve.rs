//! `tcl_serve`: the socket-facing edge of the inference service.
//!
//! This binary is the ONLY place in `tcl-serve` where wall clocks and real
//! sockets exist. It binds a `TcpListener`, wraps it in the [`Transport`]
//! trait, wraps `Instant` in the [`Clock`] trait, and drives the
//! deterministic [`Server`] core in a plain tick loop. Everything
//! interesting — admission, continuous batching, deadlines, shedding,
//! faults — lives in the library and is exercised under the virtual clock;
//! this file only adapts it to the operating system.
//!
//! It serves a small built-in demo network (an identity layer over
//! `TCL_SERVE_FEATURES` inputs, so class `k` is predicted for a sample
//! whose `k`-th feature dominates). Real deployments construct a
//! [`Server`] over a converted network in their own binary.
//!
//! Environment:
//!
//! * `TCL_SERVE_ADDR`  — bind address (default `127.0.0.1:8711`)
//! * `TCL_SERVE_FEATURES` — demo model width/classes (default 4)
//! * `TCL_SERVE_LANES` — concurrent lanes (default 8)
//! * `TCL_SERVE_MAX_STEPS` — step budget cap (default 256)
//! * `TCL_SERVE_TICKS` — exit after N ticks (default: run forever)

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;

use tcl_serve::{Backend, Clock, Connection, Io, LaneBackend, ServeConfig, Server, Transport};
use tcl_snn::{
    ExitPolicy, IfNeurons, Readout, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode,
    SynapticOp,
};
use tcl_tensor::Tensor;

/// Wall clock, bound at the `main()` edge only — the one sanctioned
/// wall-clock site in this crate; the library core never sees an Instant.
struct RealClock {
    start: std::time::Instant,
}

impl RealClock {
    fn new() -> Self {
        RealClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Clock for RealClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

struct TcpTransport {
    listener: TcpListener,
}

impl Transport for TcpTransport {
    fn poll_accept(&mut self) -> Option<Box<dyn Connection>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    return None;
                }
                Some(Box::new(TcpConn { stream }))
            }
            Err(_) => None,
        }
    }
}

struct TcpConn {
    stream: TcpStream,
}

impl Connection for TcpConn {
    fn poll_read(&mut self, buf: &mut [u8]) -> Io {
        match self.stream.read(buf) {
            Ok(0) => Io::Closed,
            Ok(n) => Io::Data(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Io::WouldBlock,
            Err(_) => Io::Closed,
        }
    }

    fn poll_write(&mut self, data: &[u8]) -> Io {
        match self.stream.write(data) {
            Ok(0) => Io::Closed,
            Ok(n) => Io::Data(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Io::WouldBlock,
            Err(_) => Io::Closed,
        }
    }

    fn close(&mut self) {
        let _ = self.stream.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The demo model: one identity spiking layer, `features` in/out, so the
/// spike-count readout predicts the dominant input feature.
fn demo_network(features: usize) -> Option<SpikingNetwork> {
    let mut weight = vec![0.0f32; features * features];
    for i in 0..features {
        weight[i * features + i] = 1.0;
    }
    let weight = Tensor::from_vec([features, features], weight).ok()?;
    Some(SpikingNetwork::new(vec![SpikingNode::Spiking(
        SpikingLayer::new(
            SynapticOp::linear(weight, None).ok()?,
            IfNeurons::new(1.0, ResetMode::Subtract),
        ),
    )]))
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn usage() {
    println!(
        "tcl_serve: continuous-batching SNN inference server\n\n\
         USAGE: tcl_serve [--help]\n\n\
         Binds TCL_SERVE_ADDR (default 127.0.0.1:8711) and serves:\n\
           POST /infer   {{\"sample\":[...],\"deadline_us\":N}}\n\
           GET  /healthz\n\
           GET  /stats\n\n\
         Env: TCL_SERVE_ADDR, TCL_SERVE_FEATURES, TCL_SERVE_LANES,\n\
              TCL_SERVE_MAX_STEPS, TCL_SERVE_TICKS (exit after N ticks)"
    );
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "-h" || a == "--help") {
        usage();
        return ExitCode::SUCCESS;
    }
    let features = env_usize("TCL_SERVE_FEATURES", 4).max(1);
    let lanes = env_usize("TCL_SERVE_LANES", 8).max(1);
    let max_steps = env_usize("TCL_SERVE_MAX_STEPS", 256).max(1);
    let ticks_limit = env_usize("TCL_SERVE_TICKS", 0);
    let addr = std::env::var("TCL_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:8711".to_string());
    let Some(net) = demo_network(features) else {
        eprintln!("[tcl-serve] failed to build demo network");
        return ExitCode::FAILURE;
    };
    let cfg = ServeConfig {
        capacity: lanes,
        queue_depth: lanes * 4,
        feat_dims: vec![1, features],
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
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[tcl-serve] bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("[tcl-serve] set_nonblocking: {e}");
        return ExitCode::FAILURE;
    }
    let local = listener.local_addr().map(|a| a.to_string());
    let transport = Box::new(TcpTransport { listener });
    let make_backend: tcl_serve::BackendFactory = Box::new(move || {
        let backend = demo_network(features).and_then(|net| {
            LaneBackend::new(
                &net,
                lanes,
                &[1, features],
                Readout::SpikeCount,
                ExitPolicy::Adaptive {
                    patience: 8,
                    min_margin: 2.0,
                    min_steps: 16,
                },
            )
            .ok()
        });
        match backend {
            Some(b) => Box::new(b) as Box<dyn Backend>,
            None => {
                // Construction of the demo backend is infallible in
                // practice (static shapes); a panic here is a code bug.
                unreachable!("demo backend construction cannot fail")
            }
        }
    });
    let mut server = match Server::new(cfg, RealClock::new(), transport, make_backend) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[tcl-serve] {e}");
            return ExitCode::FAILURE;
        }
    };
    let shown = local.unwrap_or(addr);
    eprintln!(
        "[tcl-serve] listening on http://{shown}/ ({features} features, {lanes} lanes, demo model)"
    );
    let _ = net; // the factory rebuilds its own copy
    let mut ticks = 0usize;
    loop {
        let report = server.tick();
        ticks += 1;
        if ticks_limit > 0 && ticks >= ticks_limit {
            eprintln!("[tcl-serve] tick limit reached, draining");
            server.begin_drain();
            while !server.idle() {
                server.tick();
                // main()-edge pacing sleep; the server core itself never
                // sleeps.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            return ExitCode::SUCCESS;
        }
        if report.steps == 0 && report.responses == 0 {
            // Idle: avoid spinning the CPU at 100% between requests
            // (main()-edge pacing sleep; the server core never sleeps).
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
