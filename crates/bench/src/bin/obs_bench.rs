//! Measures the cost of the observability stack itself: what tracing,
//! metrics, and the live HTTP exporter add to a fixed engine workload,
//! plus the per-call cost of *disabled* telemetry (the price every
//! production run pays) and the latency of a `/metrics` scrape.
//!
//! ```text
//! cargo run --release -p tcl-bench --bin obs_bench
//! ```
//!
//! Telemetry gating flags (`TCL_TRACE`, `TCL_METRICS`, `TCL_OBS_ADDR`) are
//! read once per process and latched, so each configuration runs in a
//! fresh subprocess: the parent re-execs itself with `--phase off|trace|
//! metrics|exporter` and a scrubbed environment, each child prints one
//! JSON result line, and the parent folds them into `BENCH_obs.json` at
//! the repo root.
//!
//! One phase times ~0.2 s of work, and single runs of it swing by ±10%,
//! wider than the overheads measured. So the four phases run in
//! `ROUNDS` interleaved rounds, every other one in reverse order; each
//! overhead is taken within its round (so a slow stretch of the host hits
//! both sides), and the file reports per phase the median over rounds
//! with its interquartile range.
//!
//! The headline claim this bench guards: with no observability env vars
//! set, the stack is off-path — disabled span/counter calls cost
//! nanoseconds and the exporter does not exist. The exporter itself is
//! measured against the metrics-only phase (both run with `TCL_METRICS=1`;
//! the only difference is the attached server), so its reported overhead
//! isolates the serving thread + scrapes rather than the cost of the
//! metrics registry — that cost is what the metrics phase reports.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Instant;
use tcl_bench::{help_requested, percentile, train_or_load, DatasetKind, Scale};
use tcl_core::{Converter, NormStrategy};
use tcl_models::Architecture;
use tcl_snn::{Engine, ExitPolicy, Readout, SimConfig};
use tcl_tensor::{simd, Parallelism};

const RESULT_MARKER: &str = "OBS_BENCH_RESULT ";
const EVAL_REPEATS: usize = 3;
const SCRAPES: usize = 50;
/// Interleaved rounds of the four phases.
const ROUNDS: usize = 9;

/// The engine workload every phase runs: convert the cached CNN-6 and
/// evaluate it `EVAL_REPEATS` times on the shared engine. Returns the
/// timed wall milliseconds (excludes data generation, training/loading,
/// conversion, and pool warmup).
fn workload(scale: Scale) -> f64 {
    let dataset = DatasetKind::Cifar;
    let data = dataset.generate(scale);
    let net = train_or_load(
        Architecture::Cnn6,
        dataset,
        &data,
        Some(dataset.lambda0()),
        scale,
    );
    let calibration = data.train.take(200);
    let eval_set = data.test.take(scale.eval_subset().min(128));
    let sim = SimConfig::new(vec![16, 32], 25, Readout::SpikeCount).expect("valid config");
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, calibration.images())
        .expect("tcl conversion");
    let snn = Arc::new(conversion.snn);
    let mut engine = Engine::new();
    let warmup = SimConfig::new(vec![4], 25, Readout::SpikeCount).expect("valid config");
    engine
        .evaluate_shared(
            &snn,
            eval_set.images(),
            eval_set.labels(),
            &warmup,
            ExitPolicy::Off,
        )
        .expect("warmup");
    let start = Instant::now();
    for _ in 0..EVAL_REPEATS {
        engine
            .evaluate_shared(
                &snn,
                eval_set.images(),
                eval_set.labels(),
                &sim,
                ExitPolicy::Off,
            )
            .expect("engine evaluation");
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// ns/op of telemetry calls on the disabled path (the cost baked into
/// every untelemetered run). Only meaningful in the `off` phase, where the
/// gating flags latched false.
fn micro_disabled() -> (f64, f64) {
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for _ in 0..ITERS {
        let _guard = tcl_telemetry::span("bench.disabled");
    }
    let span_ns = start.elapsed().as_secs_f64() * 1e9 / ITERS as f64;
    let start = Instant::now();
    for i in 0..ITERS {
        tcl_telemetry::counter_add("bench.disabled", i & 1);
    }
    let counter_ns = start.elapsed().as_secs_f64() * 1e9 / ITERS as f64;
    (span_ns, counter_ns)
}

/// Scrape `/metrics` once, returning microseconds to a complete response.
fn scrape_us(addr: std::net::SocketAddr) -> f64 {
    let start = Instant::now();
    let mut conn = std::net::TcpStream::connect(addr).expect("connect exporter");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .expect("write request");
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("read response");
    assert!(body.starts_with("HTTP/1.1 200"), "scrape failed: {body}");
    start.elapsed().as_secs_f64() * 1e6
}

/// Runs one phase in-process and prints the marker line the parent parses.
fn run_phase(phase: &str, scale: Scale) {
    let mut extra = String::new();
    match phase {
        "off" => {
            let (span_ns, counter_ns) = micro_disabled();
            let _ = write!(
                extra,
                ",\"disabled_span_ns\":{span_ns:.2},\"disabled_counter_ns\":{counter_ns:.2}"
            );
        }
        "trace" | "metrics" | "exporter" => {}
        other => {
            eprintln!("unknown phase {other:?}");
            std::process::exit(2);
        }
    }
    // The exporter phase serves scrapes concurrently with the workload.
    let exporter = (phase == "exporter")
        .then(|| tcl_obs::serve("127.0.0.1:0").expect("bind exporter on loopback"));
    let wall_ms = workload(scale);
    if let Some(exporter) = &exporter {
        let mut lat: Vec<f64> = (0..SCRAPES).map(|_| scrape_us(exporter.addr())).collect();
        lat.sort_by(f64::total_cmp);
        let _ = write!(
            extra,
            ",\"scrapes\":{SCRAPES},\"scrape_p50_us\":{:.1},\"scrape_p99_us\":{:.1}",
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
        );
    }
    if phase == "trace" {
        tcl_telemetry::flush();
        if let Ok(path) = std::env::var("TCL_TRACE") {
            if let Ok(meta) = std::fs::metadata(&path) {
                let _ = write!(extra, ",\"trace_bytes\":{}", meta.len());
            }
        }
    }
    println!("{RESULT_MARKER}{{\"name\":\"{phase}\",\"wall_ms\":{wall_ms:.1}{extra}}}");
}

/// Re-execs this binary for `phase` with a scrubbed telemetry environment
/// plus `env`, and returns the child's parsed result line.
fn spawn_phase(phase: &str, env: &[(&str, String)]) -> tcl_telemetry::json::JsonValue {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--phase").arg(phase);
    for var in [
        "TCL_TRACE",
        "TCL_METRICS",
        "TCL_OBS_ADDR",
        "TCL_TRACE_MAX_MB",
    ] {
        cmd.env_remove(var);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn phase subprocess");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        panic!("phase {phase} failed with {:?}", out.status);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RESULT_MARKER))
        .unwrap_or_else(|| panic!("phase {phase} printed no result line:\n{stdout}"));
    tcl_telemetry::json::parse_line(line).expect("phase result parses")
}

/// The revision the numbers belong to (`-dirty` with uncommitted changes),
/// or `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn f64_of(v: &tcl_telemetry::json::JsonValue, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

/// The median and interquartile range of one figure over the rounds
/// (nearest-rank percentiles).
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Spread {
            median: percentile(&values, 0.50),
            q1: percentile(&values, 0.25),
            q3: percentile(&values, 0.75),
        }
    }

    /// `[q1, q3]` as a JSON array with `digits` decimals.
    fn iqr_json(&self, digits: usize) -> String {
        format!("[{:.digits$}, {:.digits$}]", self.q1, self.q3)
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} [{:.2}, {:.2}]", self.median, self.q1, self.q3)
    }
}

fn main() {
    if help_requested(
        "obs_bench",
        "observability overhead: tracing off/on and live exporter attached \
         (wall-clock deltas, disabled-path ns/op, /metrics scrape latency); \
         writes BENCH_obs.json",
    ) {
        return;
    }
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--phase") {
        let phase = args.get(i + 1).map(String::as_str).unwrap_or("");
        run_phase(phase, scale);
        return;
    }

    println!("== observability overhead (scale: {}) ==\n", scale.name());
    let trace_path = std::env::temp_dir().join("tcl_obs_bench_trace.jsonl");
    let metrics_env = [("TCL_METRICS", "1".to_string())];
    let trace_env = [
        ("TCL_TRACE", trace_path.display().to_string()),
        ("TCL_METRICS", "1".to_string()),
    ];
    let phases: [(&str, &[(&str, String)]); 4] = [
        ("off", &[]),
        ("trace", &trace_env),
        ("metrics", &metrics_env),
        ("exporter", &metrics_env),
    ];
    let mut rounds: Vec<[tcl_telemetry::json::JsonValue; 4]> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // Every other round runs the phases in reverse, so a host that
        // speeds up or slows down across a round favours no phase.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..4).collect()
        } else {
            (0..4).rev().collect()
        };
        let names: Vec<&str> = order.iter().map(|&p| phases[p].0).collect();
        println!("round {}/{ROUNDS}: {}", round + 1, names.join(", "));
        let mut results = std::array::from_fn(|_| tcl_telemetry::json::JsonValue::Null);
        for p in order {
            let _ = std::fs::remove_file(&trace_path);
            results[p] = spawn_phase(phases[p].0, phases[p].1);
        }
        rounds.push(results);
    }
    let _ = std::fs::remove_file(&trace_path);

    let pct = |ms: f64, base: f64| {
        if base > 0.0 {
            100.0 * (ms - base) / base
        } else {
            0.0
        }
    };
    // A field of one phase over the rounds, and an overhead within each
    // round: phase `p` against phase `base`.
    let field =
        |p: usize, key: &str| -> Vec<f64> { rounds.iter().map(|r| f64_of(&r[p], key)).collect() };
    let overhead = |p: usize, base: usize| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| pct(f64_of(&r[p], "wall_ms"), f64_of(&r[base], "wall_ms")))
            .collect()
    };
    let (off, trace, metrics, exporter) = (0, 1, 2, 3);
    let wall = [
        Spread::of(field(off, "wall_ms")),
        Spread::of(field(trace, "wall_ms")),
        Spread::of(field(metrics, "wall_ms")),
        Spread::of(field(exporter, "wall_ms")),
    ];
    let trace_pct = Spread::of(overhead(trace, off));
    let metrics_pct = Spread::of(overhead(metrics, off));
    // The exporter phase differs from the metrics phase only by the
    // attached server, so this delta is the exporter's own cost.
    let exporter_pct = Spread::of(overhead(exporter, metrics));
    let span_ns = Spread::of(field(off, "disabled_span_ns")).median;
    let counter_ns = Spread::of(field(off, "disabled_counter_ns")).median;
    let scrape_p50 = Spread::of(field(exporter, "scrape_p50_us"));
    let scrape_p99 = Spread::of(field(exporter, "scrape_p99_us"));
    let trace_bytes = Spread::of(field(trace, "trace_bytes")).median;

    println!("\nmedians over {ROUNDS} rounds (interquartile range in brackets)");
    println!(
        "baseline      {} ms  (engine workload, telemetry off)",
        wall[off]
    );
    println!("tracing on    {} ms  ({}% vs off)", wall[trace], trace_pct);
    println!(
        "metrics on    {} ms  ({}% vs off)",
        wall[metrics], metrics_pct
    );
    println!(
        "exporter      {} ms  ({}% vs metrics-only)",
        wall[exporter], exporter_pct
    );
    println!("disabled span {span_ns:.2} ns/op, disabled counter {counter_ns:.2} ns/op");
    println!("scrape latency p50 {scrape_p50} us, p99 {scrape_p99} us over {SCRAPES} scrapes");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": \"cifar_synth cnn6 ({} scale, {EVAL_REPEATS}x engine evaluate, fixed T=32)\",",
        scale.name(),
    );
    // The phases inherit this process's TCL_SIMD and TCL_THREADS, so the
    // levels resolved here are the ones they ran at.
    let _ = writeln!(
        json,
        "  \"meta\": {{ \"git_rev\": \"{}\", \"simd\": \"{}\", \"threads\": {} }},",
        git_rev(),
        simd::current().name(),
        Parallelism::from_env().threads(),
    );
    let _ = writeln!(
        json,
        "  \"rounds\": {ROUNDS},\n  \"statistic\": \"median over rounds; *_iqr = [25th, 75th] percentile; overheads taken within each round\","
    );
    let _ = writeln!(
        json,
        "  \"baseline\": {{ \"wall_ms\": {:.1}, \"wall_ms_iqr\": {} }},",
        wall[off].median,
        wall[off].iqr_json(1),
    );
    let _ = writeln!(
        json,
        "  \"tracing\": {{ \"wall_ms\": {:.1}, \"overhead_pct\": {:.2}, \"trace_bytes\": {}, \"wall_ms_iqr\": {}, \"overhead_pct_iqr\": {} }},",
        wall[trace].median,
        trace_pct.median,
        trace_bytes as u64,
        wall[trace].iqr_json(1),
        trace_pct.iqr_json(2),
    );
    let _ = writeln!(
        json,
        "  \"metrics\": {{ \"wall_ms\": {:.1}, \"overhead_pct\": {:.2}, \"wall_ms_iqr\": {}, \"overhead_pct_iqr\": {} }},",
        wall[metrics].median,
        metrics_pct.median,
        wall[metrics].iqr_json(1),
        metrics_pct.iqr_json(2),
    );
    let _ = writeln!(
        json,
        "  \"exporter\": {{ \"wall_ms\": {:.1}, \"overhead_pct_vs_metrics\": {:.2}, \
         \"scrapes\": {SCRAPES}, \"scrape_p50_us\": {:.1}, \"scrape_p99_us\": {:.1}, \
         \"wall_ms_iqr\": {}, \"overhead_pct_iqr\": {}, \"scrape_p50_us_iqr\": {}, \
         \"scrape_p99_us_iqr\": {} }},",
        wall[exporter].median,
        exporter_pct.median,
        scrape_p50.median,
        scrape_p99.median,
        wall[exporter].iqr_json(1),
        exporter_pct.iqr_json(2),
        scrape_p50.iqr_json(1),
        scrape_p99.iqr_json(1),
    );
    let _ = writeln!(
        json,
        "  \"disabled_path\": {{ \"span_ns\": {span_ns:.2}, \"counter_ns\": {counter_ns:.2} }},",
    );
    let _ = writeln!(
        json,
        "  \"off_path_claim\": \"exporter overhead {} 1% of metrics-only wall time\"",
        // Signed: a negative delta is run noise and still means "no cost".
        if exporter_pct.median < 1.0 { "<" } else { ">=" },
    );
    let _ = writeln!(json, "}}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("json: {}", path.display());
}
