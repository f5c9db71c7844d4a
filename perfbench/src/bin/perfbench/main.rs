//! `perfbench`: the repo benchmark. Runs one named workload over the
//! TCL-trained, TCL-converted cnn6, checks its answers, and prints its
//! end-to-end metrics (or, with `--trace 1`, its per-layer metrics) as the
//! last line of stdout. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_cnn6 --seed 1 --seconds 24 --trace 0
//! ```

mod batch;
mod host;
mod replay;
mod serve;
mod setup;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tcl_perfbench::{
    median, per_layer, pinned, result_line, Metrics, Tally, END_TO_END, WORKLOADS,
};
use tcl_snn::Engine;
use tcl_tensor::Tensor;

use crate::batch::BatchSpec;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median, in reference time.
const SETUPS: usize = 3;
/// Calibration samples taken after every set-up.
const CAL_PER_SETUP: usize = 16;
/// Conversions timed for `core.convert_ms` in the traced run.
const CONVERT_REPS: usize = 5;

/// What one measurement produced.
pub struct Outcome {
    pub tally: Tally,
    /// Named correctness checks beyond the per-operation tally.
    pub checks: Vec<(String, bool)>,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// A batch of the workload's own shape for the per-node replay.
    pub replay: Tensor,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1,
    EarlyExit,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        let all = [Workload::Table1, Workload::EarlyExit, Workload::Serve];
        WORKLOADS.iter().position(|&w| w == name).map(|i| all[i])
    }

    fn name(self) -> &'static str {
        WORKLOADS[self as usize]
    }

    /// Engine threads: two for the Table-1 sweep's full batches, one where
    /// batches shrink (early exit) or a single loop owns the work (serve).
    fn threads(self) -> usize {
        match self {
            Workload::Table1 => 2,
            Workload::EarlyExit | Workload::Serve => 1,
        }
    }

    /// Metrics stay on in the service, its target production setting.
    fn metrics_on(self) -> bool {
        self == Workload::Serve
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <table1_cnn6|early_exit_cnn6|serve_cnn6> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The git revision of the tree the benchmark was built from, when it was
/// built inside a git checkout.
fn git_rev() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

/// Model plus the workload state a set-up leaves ready: a warmed engine
/// for the batch workloads, nothing for serving (each schedule starts its
/// own server).
struct Ready {
    model: setup::Model,
    engine: Option<(Engine, BatchSpec)>,
}

/// One set-up: data, training, conversion and the workload's warm-up.
fn set_up(workload: Workload, tracer: &mut Tracer) -> (Ready, setup::SetupTimes) {
    tracer.open("setup");
    let (model, times) = setup::build(tracer);
    tracer.open("setup.warm");
    let test = model.data.test.images();
    let spec = match workload {
        Workload::Table1 => Some(BatchSpec::table1()),
        Workload::EarlyExit => Some(BatchSpec::early_exit()),
        Workload::Serve => None,
    };
    let engine = match spec {
        Some(spec) => {
            let mut engine = Engine::new();
            batch::warm(&mut engine, &model.snn, test, &spec);
            Some((engine, spec))
        }
        None => {
            serve::warm(&model.snn, test);
            None
        }
    };
    tracer.close();
    tracer.close();
    (Ready { model, engine }, times)
}

/// One timed measurement of `seconds`.
fn measure(ready: &mut Ready, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let (snn, test) = (&ready.model.snn, &ready.model.data.test);
    match &mut ready.engine {
        Some((engine, spec)) => batch::run(engine, snn, test, spec, seed, seconds, tracer),
        None => serve::run(snn, test, seed, seconds, tracer),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    // Runtime knobs are read once, on first use; pin them before any call.
    std::env::set_var("TCL_THREADS", workload.threads().to_string());
    std::env::set_var("TCL_METRICS", if workload.metrics_on() { "1" } else { "0" });
    std::env::remove_var("TCL_TRACE");
    let simd = tcl_tensor::simd::current().name();
    let threads = tcl_tensor::par::current().threads();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rev\":\"{}\",\
         \"simd\":\"{simd}\",\"threads\":{threads},\"nproc\":{nproc}}}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
    );

    let mut tracer = Tracer::new(args.trace);
    let mut setup_host = host::Host::default();
    let mut setup_s = Vec::new();
    let mut phase = Vec::new();
    let mut ready = None;
    for i in 0..SETUPS {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        // Free the previous set-up first so the peak is one model's.
        drop(ready.take());
        let (r, times) = set_up(workload, &mut tracer);
        setup_s.push(start.elapsed().as_secs_f64());
        phase.push(times);
        ready = Some(r);
        setup_host.samples(CAL_PER_SETUP);
    }
    let mut ready = ready.expect("at least one set-up");
    eprintln!(
        "[perfbench] {} set-ups: {:?} s wall; calibration {:.3} ms (scale {:.3})",
        SETUPS,
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        setup_host.mean_ms(),
        setup_host.scale()
    );

    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut layer = Metrics::default();
    let outcome = if args.trace && workload == Workload::Serve {
        // Half the schedule untraced, half traced: the recording cost
        // shows in the traced half's p50. (Batch workloads interleave
        // traced and untraced reps themselves.)
        let half = args.seconds / 2.0;
        let base = measure(&mut ready, args.seed, half, &mut Tracer::new(false));
        let mut traced = measure(&mut ready, args.seed, half, &mut tracer);
        let (b, t) = (base.e2e.get("p50_ms"), traced.e2e.get("p50_ms"));
        if let (Some(b), Some(t)) = (b, t) {
            layer.set("trace.overhead_pct", (t / b - 1.0) * 100.0, "%");
        }
        traced.tally.attempted += base.tally.attempted;
        traced.tally.failed += base.tally.failed;
        checks.extend(base.checks);
        traced
    } else {
        measure(&mut ready, args.seed, args.seconds, &mut tracer)
    };
    checks.extend(outcome.checks.iter().cloned());

    let e2e_acc = outcome.e2e.get("accuracy").unwrap_or(f64::NAN);
    let e2e_steps = outcome.e2e.get("steps_per_image").unwrap_or(f64::NAN);
    match pinned(workload.name(), simd) {
        Some((acc, steps)) => checks.push((
            format!("pinned: accuracy {e2e_acc} == {acc}, steps_per_image {e2e_steps} == {steps}"),
            e2e_acc == acc && e2e_steps == steps,
        )),
        None => eprintln!(
            "[perfbench] no pinned values for {} at SIMD level {simd}: \
             accuracy {e2e_acc}, steps_per_image {e2e_steps}",
            workload.name()
        ),
    }

    let metrics = if args.trace {
        let p = |f: fn(&setup::SetupTimes) -> f64| {
            median(&phase.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let train_s = p(|t| t.train_s);
        layer.set("data.generate_ms", p(|t| t.data_ms), "ms");
        layer.set("nn.train_s", train_s, "s");
        layer.set(
            "nn.train_images_per_s",
            setup::train_images_per_s(&ready.model, train_s),
            "1/s",
        );
        let mut convert_ms = Vec::new();
        for _ in 0..CONVERT_REPS {
            tracer.open("core.convert");
            let t = Instant::now();
            let snn = setup::convert(&ready.model.ann, &ready.model.calibration);
            convert_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.close();
            drop(snn);
        }
        layer.set(
            "core.convert_ms",
            median(&convert_ms).unwrap_or(f64::NAN),
            "ms",
        );
        layer.absorb(&outcome.layer);
        let (node_metrics, replay_checks) =
            replay::run(&ready.model.snn, &outcome.replay, &mut tracer);
        layer.absorb(&node_metrics);
        checks.extend(replay_checks);
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
            "trace-{}-seed{}.jsonl",
            workload.name(),
            args.seed
        ));
        match tracer.write(&path) {
            Ok(spans) => eprintln!("[perfbench] {spans} spans -> {}", path.display()),
            Err(e) => checks.push((format!("trace file {}: {e}", path.display()), false)),
        }
        // Layers this workload does not drive report 0.
        let mut out = Metrics::default();
        for (name, unit) in per_layer() {
            out.set(name.as_str(), layer.get(&name).unwrap_or(0.0), unit);
        }
        out
    } else {
        let mut out = Metrics::default();
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => median(&setup_s).unwrap_or(f64::NAN) * setup_host.scale(),
                "ok_share" => outcome.tally.ok_share(),
                "peak_rss_mb" => peak_rss_mb(),
                other => outcome.e2e.get(other).unwrap_or(f64::NAN),
            };
            out.set(name, value, unit);
        }
        out
    };

    checks.push((
        format!(
            "{} of {} operations failed",
            outcome.tally.failed, outcome.tally.attempted
        ),
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
    ));
    checks.push((
        "every metric is a finite number".to_string(),
        metrics.all_finite(),
    ));
    let correct = checks.iter().all(|(_, ok)| *ok);
    for (name, ok) in &checks {
        eprintln!("[perfbench] {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    eprint!("{}", metrics.table());
    println!("{}", result_line(correct, outcome.tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
