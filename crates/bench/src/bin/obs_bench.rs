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
use tcl_bench::{help_requested, train_or_load, DatasetKind, Scale};
use tcl_core::{Converter, NormStrategy};
use tcl_models::Architecture;
use tcl_snn::{Engine, ExitPolicy, Readout, SimConfig};
use tcl_tensor::{simd, Parallelism};

const RESULT_MARKER: &str = "OBS_BENCH_RESULT ";
const EVAL_REPEATS: usize = 3;
const SCRAPES: usize = 50;

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

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
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
    let _ = std::fs::remove_file(&trace_path);
    println!("phase 1/4: telemetry off (baseline + disabled-path micro)");
    let off = spawn_phase("off", &[]);
    println!("phase 2/4: TCL_TRACE + TCL_METRICS on");
    let trace = spawn_phase(
        "trace",
        &[
            ("TCL_TRACE", trace_path.display().to_string()),
            ("TCL_METRICS", "1".to_string()),
        ],
    );
    println!("phase 3/4: TCL_METRICS only (exporter control)");
    let metrics = spawn_phase("metrics", &[("TCL_METRICS", "1".to_string())]);
    println!("phase 4/4: metrics + live exporter, {SCRAPES} scrapes");
    let exporter = spawn_phase("exporter", &[("TCL_METRICS", "1".to_string())]);
    let _ = std::fs::remove_file(&trace_path);

    let off_ms = f64_of(&off, "wall_ms");
    let trace_ms = f64_of(&trace, "wall_ms");
    let metrics_ms = f64_of(&metrics, "wall_ms");
    let exporter_ms = f64_of(&exporter, "wall_ms");
    let pct = |ms: f64, base: f64| {
        if base > 0.0 {
            100.0 * (ms - base) / base
        } else {
            0.0
        }
    };
    let trace_pct = pct(trace_ms, off_ms);
    let metrics_pct = pct(metrics_ms, off_ms);
    // The exporter phase differs from the metrics phase only by the
    // attached server, so this delta is the exporter's own cost.
    let exporter_pct = pct(exporter_ms, metrics_ms);

    println!("\nbaseline      {off_ms:9.1} ms  (engine workload, telemetry off)");
    println!("tracing on    {trace_ms:9.1} ms  ({trace_pct:+.2}% vs off)");
    println!("metrics on    {metrics_ms:9.1} ms  ({metrics_pct:+.2}% vs off)");
    println!("exporter      {exporter_ms:9.1} ms  ({exporter_pct:+.2}% vs metrics-only)");
    println!(
        "disabled span {:.2} ns/op, disabled counter {:.2} ns/op",
        f64_of(&off, "disabled_span_ns"),
        f64_of(&off, "disabled_counter_ns"),
    );
    println!(
        "scrape latency p50 {:.1} us, p99 {:.1} us over {} scrapes",
        f64_of(&exporter, "scrape_p50_us"),
        f64_of(&exporter, "scrape_p99_us"),
        SCRAPES,
    );

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
    let _ = writeln!(json, "  \"baseline\": {{ \"wall_ms\": {off_ms:.1} }},");
    let _ = writeln!(
        json,
        "  \"tracing\": {{ \"wall_ms\": {trace_ms:.1}, \"overhead_pct\": {trace_pct:.2}, \"trace_bytes\": {} }},",
        f64_of(&trace, "trace_bytes") as u64,
    );
    let _ = writeln!(
        json,
        "  \"metrics\": {{ \"wall_ms\": {metrics_ms:.1}, \"overhead_pct\": {metrics_pct:.2} }},",
    );
    let _ = writeln!(
        json,
        "  \"exporter\": {{ \"wall_ms\": {exporter_ms:.1}, \"overhead_pct_vs_metrics\": {exporter_pct:.2}, \
         \"scrapes\": {SCRAPES}, \"scrape_p50_us\": {:.1}, \"scrape_p99_us\": {:.1} }},",
        f64_of(&exporter, "scrape_p50_us"),
        f64_of(&exporter, "scrape_p99_us"),
    );
    let _ = writeln!(
        json,
        "  \"disabled_path\": {{ \"span_ns\": {:.2}, \"counter_ns\": {:.2} }},",
        f64_of(&off, "disabled_span_ns"),
        f64_of(&off, "disabled_counter_ns"),
    );
    let _ = writeln!(
        json,
        "  \"off_path_claim\": \"exporter overhead {} 1% of metrics-only wall time\"",
        // Signed: a negative delta is run noise and still means "no cost".
        if exporter_pct < 1.0 { "<" } else { ">=" },
    );
    let _ = writeln!(json, "}}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("json: {}", path.display());
}
