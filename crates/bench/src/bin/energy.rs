//! **Ablation D** — the energy argument of the paper's introduction:
//! "SNNs have event-driven behaviors, delivering significantly lower power
//! dissipation."
//!
//! We quantify the standard proxy: **synaptic operations**. An ANN
//! inference costs a fixed number of multiply-accumulates (MACs); an SNN
//! costs one accumulate per *spike* per synapse, so its cost scales with
//! the measured firing rates and the latency budget T:
//!
//! ```text
//! ops_SNN(T) ≈ Σ_layers  dense_MACs(layer) × input_density(layer) × T
//! ```
//!
//! where `input_density` is the measured fraction of nonzero inputs per
//! timestep (1.0 for the real-coded first layer; the residual block's
//! internal NS→OS traffic is approximated by the block's input density).
//! The crossover T where the SNN stops being cheaper is exactly the
//! latency/energy trade-off TCL's low norm-factors improve.
//!
//! The ops are split the way the simulator runs them. A synapse fed by
//! binary spikes takes the event path (`SynapticOp::is_event_driven`, the
//! predicate `apply` uses): one accumulate (AC) per spike and tap. The
//! analog first layer and synapses behind average pooling read fractional
//! inputs and multiply-accumulate (MAC). The `AC/MAC @T` columns give both
//! shares of the ops at the largest budget.
//!
//! A second table reports synops *measured* by the engine's `snn.synops`
//! telemetry counter on the TCL conversion, fixed-T vs per-sample early
//! exit — the early-exit saving column is the energy the margin-stability
//! criterion recovers on top of sparsity.
//!
//! ```text
//! cargo run --release -p tcl-bench --bin energy
//! ```

use tcl_bench::{help_requested, pct, render_table, train_or_load, write_csv, DatasetKind, Scale};
use tcl_core::{Converter, NormStrategy};
use tcl_models::Architecture;
use tcl_snn::{Engine, ExitPolicy, Readout, SimConfig, SpikingNetwork, SpikingNode, SynapticOp};
use tcl_tensor::Tensor;

/// Dense MACs for one application of a synaptic operator on `input`.
fn dense_macs(op: &SynapticOp, input: &Tensor) -> u64 {
    match op {
        SynapticOp::Conv(synapse) => {
            let geom = synapse.geom();
            let (_, c, h, w) = input.shape().as_nchw().expect("conv input is rank 4");
            let (oh, ow) = geom.output_hw(h, w).expect("geometry fits");
            (oh * ow * synapse.out_channels() * c * geom.kernel_h * geom.kernel_w) as u64
        }
        SynapticOp::Linear(synapse) => synapse.panel().len() as u64,
    }
}

fn density(x: &Tensor) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.data().iter().filter(|&&v| v != 0.0).count() as f64 / x.len() as f64
}

/// Estimated ops of one stimulus, split by the kernel path that runs them.
#[derive(Default)]
struct Ops {
    /// Accumulates: synapses on the event path (binary spike input).
    acs: f64,
    /// Multiply-accumulates: synapses on analog or pooled input (the GEMM,
    /// or the weighted event path's one multiply-add per nonzero input).
    macs: f64,
}

impl Ops {
    /// Adds `ops` estimated operations of `op` on `input` to its path.
    fn add(&mut self, op: &SynapticOp, input: &Tensor, ops: f64) {
        if op.is_event_driven(input) {
            self.acs += ops;
        } else {
            self.macs += ops;
        }
    }

    fn total(&self) -> f64 {
        self.acs + self.macs
    }
}

/// Steps the SNN for `t_steps` on one stimulus, accumulating estimated
/// synaptic operations split into ACs and MACs, and returns (ops,
/// per-inference ANN-equivalent dense MACs).
fn measure_ops(net: &mut SpikingNetwork, input: &Tensor, t_steps: usize) -> (Ops, u64) {
    net.reset();
    let mut ops = Ops::default();
    let mut dense_total = 0u64;
    for step in 0..t_steps {
        let mut x = input.clone();
        for node in net.nodes_mut() {
            match node {
                SpikingNode::Spiking(layer) => {
                    let macs = dense_macs(&layer.op, &x);
                    ops.add(&layer.op, &x, macs as f64 * density(&x));
                    if step == 0 {
                        dense_total += macs;
                    }
                    x = layer.step(&x).expect("step");
                }
                SpikingNode::Residual(block) => {
                    let d = density(&x);
                    let ns_macs = dense_macs(&block.ns_op, &x);
                    let sh_macs = dense_macs(&block.os_shortcut, &x);
                    // NS output feeds os_main; approximate its density by
                    // the block input density (documented estimate) and its
                    // path by the block's own binary output.
                    let y = block.step(&x).expect("step");
                    let main_macs = dense_macs(&block.os_main, &y);
                    ops.add(&block.ns_op, &x, ns_macs as f64 * d);
                    ops.add(&block.os_shortcut, &x, sh_macs as f64 * d);
                    ops.add(&block.os_main, &y, main_macs as f64 * d);
                    if step == 0 {
                        dense_total += ns_macs + sh_macs + main_macs;
                    }
                    x = y;
                }
                other => {
                    x = other.step(&x).expect("step");
                }
            }
        }
    }
    (ops, dense_total)
}

fn main() {
    if help_requested(
        "energy",
        "synaptic-operation counts as an energy proxy (ablation D)",
    ) {
        return;
    }
    // The measured-synops section below reads the `snn.synops` counter the
    // kernels maintain; enable metrics before the first telemetry call
    // initializes the flag from the environment.
    std::env::set_var("TCL_METRICS", "1");
    let scale = Scale::from_env();
    let dataset = DatasetKind::Cifar;
    println!(
        "== synaptic-operation (energy proxy) analysis (scale: {}) ==\n",
        scale.name()
    );
    let data = dataset.generate(scale);
    let t_grid: Vec<usize> = match scale {
        Scale::Quick => vec![10, 25, 50],
        _ => vec![25, 50, 100, 150, 250],
    };
    let header: Vec<String> = {
        let mut h = vec![
            "Network".to_string(),
            "Method".to_string(),
            "ANN MACs".to_string(),
        ];
        h.extend(t_grid.iter().map(|t| format!("ops ratio @T={t}")));
        h.push(format!(
            "AC/MAC @T={}",
            t_grid.last().expect("nonempty grid")
        ));
        h
    };
    let mut rows = Vec::new();
    let mut engine = Engine::new();
    let mut measured: Vec<Vec<String>> = Vec::new();
    for arch in [Architecture::Cnn6, Architecture::Vgg16] {
        let tcl_net = train_or_load(arch, dataset, &data, Some(dataset.lambda0()), scale);
        let base_net = train_or_load(arch, dataset, &data, None, scale);
        let calibration = data.train.take(150);
        // Average over a handful of test stimuli.
        let probe = data.test.take(8);
        for (label, strategy) in [
            ("tcl", NormStrategy::TrainedClip),
            ("max-norm", NormStrategy::MaxActivation),
        ] {
            let source = if strategy == NormStrategy::TrainedClip {
                &tcl_net
            } else {
                &base_net
            };
            let conversion = Converter::new(strategy)
                .convert(source, calibration.images())
                .expect("conversion");
            let mut row = vec![arch.name().to_string(), label.to_string()];
            let mut macs_cell = String::new();
            let mut ratios = Vec::new();
            let mut split = String::new();
            for &t in &t_grid {
                let mut total = Ops::default();
                let mut dense = 0u64;
                for i in 0..probe.len() {
                    let x = probe.images().batch_item(i);
                    let mut snn = conversion.snn.clone();
                    let (ops, d) = measure_ops(&mut snn, &x, t);
                    total.acs += ops.acs;
                    total.macs += ops.macs;
                    dense = d;
                }
                let mean_ops = total.total() / probe.len() as f64;
                if macs_cell.is_empty() {
                    macs_cell = format!("{dense}");
                }
                ratios.push(format!("{:.2}x", mean_ops / dense as f64));
                let ac_share = total.acs / total.total().max(f64::MIN_POSITIVE);
                split = format!("{}/{}", pct(ac_share as f32), pct(1.0 - ac_share as f32));
            }
            row.push(macs_cell);
            row.extend(ratios);
            row.push(split);
            eprintln!("[done] {} / {label}", arch.name());
            rows.push(row);
        }

        // The estimate above is static; the engine also *measures* synaptic
        // operations (nonzero-driven weight touches, via the `snn.synops`
        // counter) and shows what per-sample early exit saves on top.
        let conversion = Converter::new(NormStrategy::TrainedClip)
            .convert(&tcl_net, calibration.images())
            .expect("tcl conversion");
        let eval_set = data.test.take(32);
        let max_t = *t_grid.last().expect("nonempty grid");
        let sim = SimConfig::new(vec![max_t], 16, Readout::SpikeCount).expect("valid config");
        let synops_of = |engine: &mut Engine, policy| {
            let before = tcl_telemetry::counter_value("snn.synops").unwrap_or(0);
            let r = engine
                .evaluate(
                    &conversion.snn,
                    eval_set.images(),
                    eval_set.labels(),
                    &sim,
                    policy,
                )
                .expect("engine evaluation");
            let after = tcl_telemetry::counter_value("snn.synops").unwrap_or(0);
            (r, after - before)
        };
        let (fixed, fixed_ops) = synops_of(&mut engine, ExitPolicy::Off);
        let policy = ExitPolicy::Adaptive {
            patience: 6,
            min_margin: 2.0,
            min_steps: (max_t / 5).max(2),
        };
        let (adaptive, adaptive_ops) = synops_of(&mut engine, policy);
        let saved = 1.0 - adaptive_ops as f64 / fixed_ops.max(1) as f64;
        measured.push(vec![
            arch.name().to_string(),
            format!("{fixed_ops}"),
            pct(fixed.sweep.final_accuracy()),
            format!("{adaptive_ops}"),
            pct(adaptive.adaptive_accuracy),
            format!("{:.1}", adaptive.mean_exit_step),
            format!("{:.1}%", saved * 100.0),
        ]);
    }
    println!("{}", render_table(&header, &rows));
    println!(
        "measured synops through the engine @T={} (32 samples, tcl conversion):",
        t_grid.last().expect("nonempty grid")
    );
    let measured_header: Vec<String> = [
        "Network",
        "fixed synops",
        "fixed acc",
        "early-exit synops",
        "early-exit acc",
        "mean exit T",
        "saved",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", render_table(&measured_header, &measured));
    println!(
        "ops ratio < 1x means the SNN performs fewer synaptic operations than\n\
         one dense ANN inference; TCL's tighter λ raises firing rates, so it\n\
         reaches a target accuracy at smaller T (see table1/latency_curve) at\n\
         a comparable per-step cost.\n"
    );
    let csv = write_csv("energy", &header, &rows);
    println!("csv: {}", csv.display());
    tcl_telemetry::emit_summary();
}
