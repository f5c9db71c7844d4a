//! Regenerates **Table 1** of the paper: ANN vs SNN accuracy across
//! latency budgets, for every network/dataset pair the paper evaluates,
//! with the three norm-factor strategies:
//!
//! * `tcl` — this paper (trained clipping bounds), on the TCL-trained ANN;
//! * `max-norm` — Diehl et al. 2015 baseline, on the unconstrained ANN;
//! * `p99.9%` — Rueckauer et al. 2017 baseline, on the unconstrained ANN.
//!
//! Every sweep runs on the persistent [`tcl_snn::Engine`], and the TCL
//! conversion gets an extra **early-exit** row (per-sample margin-stability
//! retirement) whose `exit T` column reports the mean number of timesteps
//! actually simulated per sample.
//!
//! ```text
//! cargo run --release -p tcl-bench --bin table1 [-- --dataset cifar|imagenet|all]
//! TCL_SCALE=quick|standard|full  controls experiment size.
//! ```
//!
//! Output: one aligned table per dataset block (mirroring the paper's
//! layout) plus `results/table1_<dataset>.csv`, and each architecture's TCL
//! conversion as `results/table1_<dataset>_<arch>.tclk`, which
//! `tcl_serve --model` serves.

use tcl_bench::{
    help_requested, pct, render_table, train_or_load, write_csv, write_diagnostics, write_model,
    DatasetKind, Scale,
};
use tcl_core::{convert_and_evaluate_with, diagnose_conversion, Converter, NormStrategy};
use tcl_snn::{Engine, ExitPolicy, Readout, SimConfig};

fn main() {
    if help_requested(
        "table1",
        "ANN vs SNN accuracy across latency budgets (paper Table 1); \
         also accepts `--dataset cifar|imagenet|all`",
    ) {
        return;
    }
    let args: Vec<String> = std::env::args().collect();
    let dataset_arg = args
        .iter()
        .position(|a| a == "--dataset")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all");
    let datasets: Vec<DatasetKind> = match dataset_arg {
        "cifar" => vec![DatasetKind::Cifar],
        "imagenet" => vec![DatasetKind::Imagenet],
        "all" => vec![DatasetKind::Cifar, DatasetKind::Imagenet],
        other => {
            eprintln!("unknown dataset {other:?}; use cifar|imagenet|all");
            std::process::exit(2);
        }
    };
    let scale = Scale::from_env();
    let checkpoints = scale.checkpoints();
    // Live metrics endpoint while the run is in flight (TCL_OBS_ADDR
    // opt-in); shut down on drop at the end of main.
    let _exporter = tcl_obs::serve_from_env();
    println!("== Table 1 reproduction (scale: {}) ==", scale.name());
    println!("strategies: tcl (ours) vs max-norm (Diehl'15) vs p99.9% (Rueckauer'17)\n");

    // One persistent engine for every conversion in the run: the worker pool
    // and per-worker network replicas survive across strategies and
    // architectures instead of being rebuilt per evaluate call.
    let mut engine = Engine::new();
    // The extra adaptive row: retire a sample once its top-1 margin has been
    // stable for `patience` consecutive steps, but give the rate code at
    // least a quarter of the budget to converge first.
    let early_exit = ExitPolicy::Adaptive {
        patience: 8,
        min_margin: 2.0,
        min_steps: checkpoints[0].max(checkpoints.last().expect("nonempty") / 4),
    };

    for dataset in datasets {
        let data = dataset.generate(scale);
        println!(
            "--- {} | {} train / {} test / {} classes ---",
            dataset.title(),
            data.train.len(),
            data.test.len(),
            data.train.classes()
        );
        let mut header = vec![
            "Network".to_string(),
            "Method".to_string(),
            "ANN".to_string(),
        ];
        header.extend(checkpoints.iter().map(|t| format!("T={t}")));
        header.push("exit T".to_string());
        let mut rows: Vec<Vec<String>> = Vec::new();
        for arch in dataset.architectures() {
            let tcl_net = train_or_load(arch, dataset, &data, Some(dataset.lambda0()), scale);
            let base_net = train_or_load(arch, dataset, &data, None, scale);
            let calibration = data.train.take(200);
            let eval_set = data.test.take(scale.eval_subset());
            let sim = SimConfig::new(checkpoints.clone(), 50, Readout::SpikeCount)
                .expect("valid checkpoints");
            let cases: Vec<(&str, NormStrategy, ExitPolicy)> = vec![
                ("Ours (TCL)", NormStrategy::TrainedClip, ExitPolicy::Off),
                (
                    "Ours (TCL) early-exit",
                    NormStrategy::TrainedClip,
                    early_exit,
                ),
                (
                    "Diehl'15 max-norm",
                    NormStrategy::MaxActivation,
                    ExitPolicy::Off,
                ),
                (
                    "Rueckauer'17 p99.9",
                    NormStrategy::percentile_999(),
                    ExitPolicy::Off,
                ),
            ];
            for (label, strategy, policy) in cases {
                let mut net = if strategy == NormStrategy::TrainedClip {
                    tcl_net.clone()
                } else {
                    base_net.clone()
                };
                let report = convert_and_evaluate_with(
                    &mut engine,
                    &mut net,
                    calibration.images(),
                    eval_set.images(),
                    eval_set.labels(),
                    &Converter::new(strategy),
                    &sim,
                    policy,
                )
                .expect("conversion succeeds on preset networks");
                let mut row = vec![
                    arch.name().to_string(),
                    label.to_string(),
                    pct(report.ann_accuracy),
                ];
                row.extend(
                    report
                        .result
                        .sweep
                        .accuracies
                        .iter()
                        .map(|(_, acc)| pct(*acc)),
                );
                if policy.is_adaptive() {
                    let exits = report.result.exited.iter().filter(|&&e| e).count();
                    row.push(format!("{:.1}", report.result.mean_exit_step));
                    eprintln!(
                        "[exit] {} / {}: {exits}/{} samples retired early, mean exit T {:.1}, \
                         {} simulated steps saved",
                        arch.name(),
                        label,
                        report.result.exited.len(),
                        report.result.mean_exit_step,
                        report.result.saved_steps
                    );
                } else {
                    row.push("-".to_string());
                }
                eprintln!(
                    "[done] {} / {} (firing rate {:.4})",
                    arch.name(),
                    label,
                    report.result.sweep.mean_firing_rate
                );
                rows.push(row);
            }

            // Per-layer conversion diagnostics for the TCL conversion: how
            // well each IF bank's firing rate tracks the clipped ANN
            // activation at the largest latency budgets. The conversion is
            // also written as a model file `tcl_serve --model` serves.
            let conversion = Converter::new(NormStrategy::TrainedClip)
                .convert(&tcl_net, calibration.images())
                .expect("tcl conversion succeeds on preset networks");
            let stimulus = data.test.take(4);
            let windows: Vec<usize> = checkpoints.iter().rev().take(2).rev().copied().collect();
            let diag = diagnose_conversion(&tcl_net, &conversion, stimulus.images(), &windows)
                .expect("diagnostics on the converted network");
            let name = format!(
                "table1_{}_{}",
                dataset.name(),
                arch.name().to_lowercase().replace([',', ' '], "")
            );
            let (c, h, w) = data.train.image_shape();
            let model = write_model(&name, &tcl_net, &conversion, &[c, h, w]);
            eprintln!(
                "[model] {} TCL conversion: {}",
                arch.name(),
                model.display()
            );
            let path = write_diagnostics(&name, &diag);
            eprintln!(
                "[diag] {} mean residual @T={}: {:.4} ({})",
                arch.name(),
                windows.last().expect("nonempty windows"),
                diag.mean_residual(windows.len() - 1).unwrap_or(0.0),
                path.display()
            );
        }
        println!("{}", render_table(&header, &rows));
        let csv = write_csv(&format!("table1_{}", dataset.name()), &header, &rows);
        println!("csv: {}\n", csv.display());
    }
    tcl_telemetry::emit_summary();
}
