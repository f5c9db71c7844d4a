//! Golden-file regression suite for the mini Table-1 pipeline.
//!
//! Trains one small TCL network on deterministic synthetic data, converts it
//! with both norm strategies, sweeps the SNN through the engine, and renders
//! the numbers that define the reproduction — per-layer λ, ANN accuracy, and
//! SNN accuracy at each checkpoint — into a canonical text form compared
//! byte-for-byte against `tests/golden/*.json`. Each conversion is also
//! saved as a model file, reloaded, and evaluated again: the reloaded
//! network must render the same bytes.
//!
//! Everything in the pipeline is deterministic (seeded data generation,
//! seeded init, bitwise thread-count-invariant kernels), so any drift in
//! these files is a *behaviour change* — intended or not — and the diff
//! printed on failure shows exactly which quantity moved. To accept an
//! intended change, re-bless the snapshots:
//!
//! ```text
//! TCL_BLESS=1 cargo test -p tcl-core --test golden_regression
//! ```
//!
//! The snapshots record **scalar** kernel numerics: the test pins the
//! process SIMD level to `Scalar` before anything dispatches, so the bytes
//! stay stable on any host and under any `TCL_SIMD` value. (AVX2 fuses
//! multiply-adds and would shift low-order float digits.)

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tcl_core::{
    convert_and_evaluate_with, load_model, save_model, Converter, EngineReport, NormStrategy,
};
use tcl_data::{SynthSpec, SynthVision};
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::{train, TrainConfig};
use tcl_snn::{Engine, ExitPolicy, Readout, SimConfig};
use tcl_tensor::SeededRng;

const SEED: u64 = 23;
const CHECKPOINTS: [usize; 2] = [8, 32];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The mini Table-1 workload: train once, convert with each strategy. Each
/// strategy yields the pipeline's report and the report of the same
/// conversion after a round trip through a model file.
fn mini_pipeline() -> Vec<(&'static str, EngineReport, EngineReport)> {
    let spec = SynthSpec::cifar10_like().scaled(0.2);
    let data = SynthVision::generate(&spec, SEED).expect("generate data");
    let (c, h, w) = data.train.image_shape();
    let cfg = ModelConfig::new((c, h, w), data.train.classes())
        .with_base_width(4)
        .with_clip_lambda(Some(2.0));
    let mut rng = SeededRng::new(SEED);
    let mut net = Architecture::Cnn6.build(&cfg, &mut rng).expect("build");
    let train_cfg = TrainConfig::standard(6, 32, 0.05, &[4]).expect("config");
    train(
        &mut net,
        data.train.images(),
        data.train.labels(),
        None,
        &train_cfg,
    )
    .expect("train");
    let sim = SimConfig::new(CHECKPOINTS.to_vec(), 50, Readout::SpikeCount).unwrap();
    let calibration = data.train.take(100);
    let mut engine = Engine::new();
    let mut reports = Vec::new();
    for (name, strategy) in [
        ("tcl", NormStrategy::TrainedClip),
        ("max_norm", NormStrategy::MaxActivation),
    ] {
        let converter = Converter::new(strategy);
        let report = convert_and_evaluate_with(
            &mut engine,
            &mut net,
            calibration.images(),
            data.test.images(),
            data.test.labels(),
            &converter,
            &sim,
            ExitPolicy::Off,
        )
        .expect("pipeline");
        let conversion = converter
            .convert(&net, calibration.images())
            .expect("convert");
        let path =
            std::env::temp_dir().join(format!("tcl-golden-{name}-{}.tclk", std::process::id()));
        save_model(&path, &net, &conversion, &[c, h, w]).expect("save model");
        let model = load_model(&path).expect("load model");
        let _ = std::fs::remove_file(&path);
        let result = engine
            .evaluate(
                &model.conversion.snn,
                data.test.images(),
                data.test.labels(),
                &sim,
                ExitPolicy::Off,
            )
            .expect("evaluate the reloaded model");
        let reloaded = EngineReport {
            ann_accuracy: report.ann_accuracy,
            result,
            lambdas: model.conversion.lambdas,
            strategy_name: report.strategy_name.clone(),
        };
        reports.push((name, report, reloaded));
    }
    reports
}

/// Canonical rendering: one JSON document, one scalar per line, all floats
/// at fixed 6-decimal precision so diffs read as "which number moved".
fn canonical(name: &str, report: &EngineReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"workload\": \"cnn6-w4-synth0.2-seed{SEED}\",");
    let _ = writeln!(s, "  \"strategy\": \"{name}\",");
    let _ = writeln!(s, "  \"ann_accuracy\": {:.6},", report.ann_accuracy);
    let _ = writeln!(s, "  \"lambdas\": [");
    for (i, l) in report.lambdas.iter().enumerate() {
        let comma = if i + 1 < report.lambdas.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(s, "    {l:.6}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"snn_accuracy\": [");
    let accs = &report.result.sweep.accuracies;
    for (i, (t, a)) in accs.iter().enumerate() {
        let comma = if i + 1 < accs.len() { "," } else { "" };
        let _ = writeln!(s, "    {{ \"t\": {t}, \"accuracy\": {a:.6} }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"mean_firing_rate\": {:.6}",
        report.result.sweep.mean_firing_rate
    );
    let _ = writeln!(s, "}}");
    s
}

/// Line-by-line readable diff of a drifted snapshot.
fn render_diff(file: &str, expected: &str, actual: &str) -> String {
    let mut out = format!("golden snapshot drift in {file}:\n");
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    for i in 0..exp.len().max(act.len()) {
        match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => {}
            (e, a) => {
                let _ = writeln!(out, "  line {}:", i + 1);
                if let Some(e) = e {
                    let _ = writeln!(out, "    - {e}");
                }
                if let Some(a) = a {
                    let _ = writeln!(out, "    + {a}");
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "  (intended change? re-bless with TCL_BLESS=1 cargo test -p tcl-core --test golden_regression)"
    );
    out
}

#[test]
fn mini_table1_matches_golden_snapshots() {
    // Golden numerics are scalar; the pin must win (first resolution does),
    // so assert nothing resolved the process level ahead of us.
    let effective = tcl_tensor::simd::pin(tcl_tensor::simd::Level::Scalar);
    assert_eq!(
        effective,
        tcl_tensor::simd::Level::Scalar,
        "golden suite requires the scalar SIMD level but the process level \
         was already resolved to {}",
        effective.name()
    );
    let bless = std::env::var("TCL_BLESS").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    let mut drift = String::new();
    for (name, report, reloaded) in mini_pipeline() {
        // Basic sanity before trusting the snapshot at all: the TCL
        // conversion must actually work on this workload.
        if name == "tcl" {
            assert!(
                report.ann_accuracy > 0.5,
                "mini workload failed to train: {}",
                report.ann_accuracy
            );
            let final_acc = report.result.sweep.final_accuracy();
            assert!(
                report.ann_accuracy - final_acc < 0.1,
                "conversion gap blew up: ANN {} vs SNN {final_acc}",
                report.ann_accuracy
            );
        }
        let rendered = canonical(name, &report);
        let file = format!("table1_{name}.json");
        let path = dir.join(&file);
        if bless {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {}: {e}\n  generate it with TCL_BLESS=1 \
                 cargo test -p tcl-core --test golden_regression",
                path.display()
            )
        });
        if expected != rendered {
            drift.push_str(&render_diff(&file, &expected, &rendered));
        }
        let reloaded = canonical(name, &reloaded);
        if expected != reloaded {
            drift.push_str(&render_diff(
                &format!("{file} (reloaded model)"),
                &expected,
                &reloaded,
            ));
        }
    }
    assert!(drift.is_empty(), "{drift}");
}
