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
//! It serves one converted model: `tcl_serve --model PATH` loads a model
//! file written by `tcl_core::save_model` (the `table1` harness writes one
//! per architecture under `results/`), rebuilds its spiking network, and
//! takes the request sample shape from the file.
//!
//! Environment:
//!
//! * `TCL_SERVE_ADDR`  — bind address (default `127.0.0.1:8711`)
//! * `TCL_SERVE_LANES` — concurrent lanes (default 8)
//! * `TCL_SERVE_MAX_STEPS` — step budget cap (default 256)
//! * `TCL_SERVE_TICKS` — exit after N ticks (default: run forever)

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;

use tcl_serve::{Clock, Connection, Io, LaneBackend, ServeConfig, Server, Transport};

/// Wall clock, bound at the `main()` edge only — the one sanctioned
/// wall-clock site in this crate; the library core never sees an Instant.
struct RealClock(std::time::Instant);

impl Clock for RealClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
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

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

const USAGE: &str = "tcl_serve: continuous-batching SNN inference server\n\n\
     USAGE: tcl_serve --model PATH [--help]\n\n\
     Serves the converted model in PATH (a model file written by\n\
     tcl_core::save_model; table1 writes results/table1_<dataset>_<arch>.tclk)\n\
     on TCL_SERVE_ADDR (default 127.0.0.1:8711):\n\
     \x20 POST /infer   {\"sample\":[...],\"deadline_us\":N}\n\
     \x20 GET  /healthz\n\
     \x20 GET  /stats\n\
     \x20 GET  /metrics  (Prometheus text; series need TCL_METRICS=1)\n\n\
     Env: TCL_SERVE_ADDR, TCL_SERVE_LANES, TCL_SERVE_MAX_STEPS,\n\
     \x20    TCL_SERVE_TICKS (exit after N ticks)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        // A closed pipe (`--help | grep -q`) is not an error.
        let _ = writeln!(std::io::stdout(), "{USAGE}");
        return ExitCode::SUCCESS;
    }
    let model_path = match args.as_slice() {
        [flag, path] if flag == "--model" => std::path::PathBuf::from(path),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let lanes = env_usize("TCL_SERVE_LANES", 8).max(1);
    let max_steps = env_usize("TCL_SERVE_MAX_STEPS", 256).max(1);
    let ticks_limit = env_usize("TCL_SERVE_TICKS", 0);
    let addr = std::env::var("TCL_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:8711".to_string());
    let model = match tcl_core::load_model(&model_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[tcl-serve] {}: {e}", model_path.display());
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServeConfig::production(&model.sample_dims, lanes, max_steps);
    let make_backend = match LaneBackend::factory(&model.conversion.snn, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("[tcl-serve] {e}");
            return ExitCode::FAILURE;
        }
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
    let mut server = match Server::new(
        cfg,
        RealClock(std::time::Instant::now()),
        transport,
        make_backend,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[tcl-serve] {e}");
            return ExitCode::FAILURE;
        }
    };
    let shown = local.unwrap_or(addr);
    eprintln!(
        "[tcl-serve] listening on http://{shown}/ ({} model {}, sample dims {:?}, {lanes} lanes)",
        model.conversion.strategy.name(),
        model_path.display(),
        model.sample_dims,
    );
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
