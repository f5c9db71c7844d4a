//! Node 0's constant input current, computed once per sample, against a
//! per-step `SpikingNetwork::step` oracle.
//!
//! Under real coding the stimulus is the same on every timestep, so the
//! engines compute node 0's current once ([`SpikingNetwork::drive`]) and
//! step the rest of the network on it. The contract is that nothing
//! observable moves: scores, spikes, exit steps and the `snn.synops`
//! counter equal those of a network that recomputes node 0 on every step.
//!
//! The oracle presents each sample alone, one `step` per timestep. The
//! convolutional net below computes every batch row on its own at every
//! SIMD level (convolutions, pools and IF banks are per item, and its
//! linear synapse reads binary spikes, whose products are exact), so a
//! sample's trajectory inside any batch equals its solo one bitwise. That
//! makes solo runs the oracle for `Engine` (fixed and early exit, with
//! compaction) and for `LaneEngine` (with admissions mid-run). A
//! linear-first net is checked through `LaneEngine` only: each lane's drive
//! is computed from its sample alone, so at every level, AVX2 included, a
//! lane equals its solo presentation, whatever its batchmates.
//!
//! Each test holds the telemetry test lock (`with_disabled` or
//! `with_captured`), so the synops test's process-global counter sees only
//! its own work.

use tcl_snn::{
    Engine, ExitPolicy, IfNeurons, LaneEngine, LaneOutput, Readout, ResetMode, SimConfig,
    SpikingLayer, SpikingNetwork, SpikingNode, SynapticOp,
};
use tcl_telemetry::test_support::{reset_metrics, with_captured, with_disabled};
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{simd, SeededRng, Tensor};

const CLASSES: usize = 3;
/// Sample dims of the convolutional net: odd height, even width.
const IMAGE: [usize; 3] = [2, 7, 6];

fn spiking(op: SynapticOp) -> SpikingNode {
    SpikingNode::Spiking(SpikingLayer::new(
        op,
        IfNeurons::new(1.0, ResetMode::Subtract),
    ))
}

/// conv 2→4 (3×3, pad 1) → IF → 2×2 avg-pool → conv 4→4 → IF → flatten →
/// linear 36→3 → IF. Node 0 reads the analog image (GEMM path), node 2
/// pooled currents (GEMM path), node 4 binary spikes (event path).
fn conv_net(seed: u64) -> SpikingNetwork {
    let mut rng = SeededRng::new(seed);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let conv0 = SynapticOp::conv(
        rng.uniform_tensor([4, 2, 3, 3], -0.25, 0.45),
        Some(rng.uniform_tensor([4], -0.05, 0.1)),
        geom,
    )
    .unwrap();
    let conv2 = SynapticOp::conv(
        rng.uniform_tensor([4, 4, 3, 3], -0.3, 0.5),
        Some(rng.uniform_tensor([4], 0.0, 0.1)),
        geom,
    )
    .unwrap();
    let linear = SynapticOp::linear(
        rng.uniform_tensor([CLASSES, 36], -0.3, 0.6),
        Some(rng.uniform_tensor([CLASSES], -0.05, 0.05)),
    )
    .unwrap();
    SpikingNetwork::new(vec![
        spiking(conv0),
        SpikingNode::AvgPool {
            kernel: 2,
            stride: 2,
        },
        spiking(conv2),
        SpikingNode::Flatten,
        spiking(linear),
    ])
}

/// One linear 24→16 layer on analog input. Node 0 is the output layer, so
/// the membrane readout shows every bit of its current.
fn linear_net(seed: u64) -> SpikingNetwork {
    let mut rng = SeededRng::new(seed);
    SpikingNetwork::new(vec![spiking(
        SynapticOp::linear(
            rng.uniform_tensor([16, 24], -0.1, 0.2),
            Some(rng.uniform_tensor([16], -0.05, 0.05)),
        )
        .unwrap(),
    )])
}

/// `n` samples of dims `dims`, values in [0, 1).
fn images(seed: u64, n: usize, dims: &[usize]) -> Tensor {
    let mut shape = vec![n];
    shape.extend_from_slice(dims);
    SeededRng::new(seed).uniform_tensor(shape, 0.0, 1.0)
}

fn sample(images: &Tensor, i: usize) -> Tensor {
    let row = images.len() / images.dims()[0];
    Tensor::from_vec(
        images.dims()[1..].to_vec(),
        images.data()[i * row..(i + 1) * row].to_vec(),
    )
    .unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One sample presented alone, one `SpikingNetwork::step` per timestep.
struct Solo {
    net: SpikingNetwork,
    x: Tensor,
    /// Output spike counts.
    counts: Vec<f32>,
}

impl Solo {
    fn new(net: &SpikingNetwork, sample: &Tensor) -> Self {
        let mut dims = vec![1];
        dims.extend_from_slice(sample.dims());
        let mut net = net.clone();
        net.reset();
        Solo {
            net,
            x: sample.reshape(dims).unwrap(),
            counts: Vec::new(),
        }
    }

    /// One timestep; the spike-count readout afterwards.
    fn step(&mut self) -> &[f32] {
        let spikes = self.net.step(&self.x).unwrap();
        self.counts.resize(spikes.len(), 0.0);
        for (c, s) in self.counts.iter_mut().zip(spikes.data()) {
            *c += s;
        }
        &self.counts
    }

    /// The membrane readout, `counts·V_thr + V`.
    fn membrane(&self) -> Vec<f32> {
        let thr = self.net.output_threshold().unwrap();
        let v = self.net.output_potential().unwrap();
        self.counts
            .iter()
            .zip(v.data())
            .map(|(c, v)| c * thr + v)
            .collect()
    }
}

/// Top-1 class and top-1 minus top-2 margin, first index winning ties.
fn top2(row: &[f32]) -> (usize, f32) {
    let (mut best, mut best_v, mut second) = (0, row[0], f32::NEG_INFINITY);
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > best_v {
            (second, best_v, best) = (best_v, v, i);
        } else if v > second {
            second = v;
        }
    }
    (best, best_v - second)
}

/// What `Engine::evaluate` reports with the membrane readout, rebuilt from
/// solo presentations (its continuous margins spread the exit steps).
struct Oracle {
    predictions: Vec<usize>,
    exit_steps: Vec<usize>,
    exited: Vec<bool>,
    total_spikes: u64,
    /// Per step: Σ margins over active samples, summed per batch in lane
    /// order and then over batches in order, as `MarginTrace` does.
    margin_sums: Vec<f64>,
    correct: Vec<usize>,
}

fn oracle(
    net: &SpikingNetwork,
    x: &Tensor,
    labels: &[usize],
    config: &SimConfig,
    (patience, min_margin, min_steps): (usize, f32, usize),
) -> Oracle {
    let n = labels.len();
    let max_t = *config.checkpoints.last().unwrap();
    let mut out = Oracle {
        predictions: vec![0; n],
        exit_steps: vec![max_t; n],
        exited: vec![false; n],
        total_spikes: 0,
        margin_sums: vec![0.0; max_t],
        correct: vec![0; config.checkpoints.len()],
    };
    for start in (0..n).step_by(config.batch_size) {
        let end = (start + config.batch_size).min(n);
        let mut batch_margins = vec![0.0f64; max_t];
        for (i, &label) in labels.iter().enumerate().take(end).skip(start) {
            let mut solo = Solo::new(net, &sample(x, i));
            let mut frozen: Option<Vec<f32>> = None;
            let (mut last_top, mut stable) = (0, 0);
            for t in 1..=max_t {
                solo.step();
                let scores = solo.membrane();
                let (top, margin) = top2(&scores);
                batch_margins[t - 1] += f64::from(margin);
                stable = if margin >= min_margin && top == last_top && stable > 0 {
                    stable + 1
                } else {
                    usize::from(margin >= min_margin)
                };
                last_top = top;
                let retire = t >= min_steps && t < max_t && stable >= patience;
                if retire || t == max_t {
                    frozen = Some(scores);
                    out.exit_steps[i] = t;
                    out.exited[i] = retire;
                    break;
                }
                if let Some(k) = config.checkpoints.iter().position(|&c| c == t) {
                    out.correct[k] += usize::from(top == label);
                }
            }
            let frozen = frozen.unwrap();
            let (pred, _) = top2(&frozen);
            // Checkpoints at or after the exit step read the frozen scores.
            for (k, &c) in config.checkpoints.iter().enumerate() {
                if c >= out.exit_steps[i] {
                    out.correct[k] += usize::from(pred == label);
                }
            }
            out.predictions[i] = pred;
            out.total_spikes += solo.net.total_spikes();
        }
        for (sum, b) in out.margin_sums.iter_mut().zip(&batch_margins) {
            *sum += b;
        }
    }
    out
}

fn conv_data() -> (SpikingNetwork, Tensor, Vec<usize>) {
    let net = conv_net(11);
    let x = images(12, 9, &IMAGE);
    let labels = (0..9).map(|i| i % CLASSES).collect();
    (net, x, labels)
}

const POLICY: (usize, f32, usize) = (4, 1.0, 4);

fn adaptive() -> ExitPolicy {
    ExitPolicy::Adaptive {
        patience: POLICY.0,
        min_margin: POLICY.1,
        min_steps: POLICY.2,
    }
}

#[test]
fn engine_matches_per_step_oracle_at_every_level() {
    with_disabled(|| {
        let (net, x, labels) = conv_data();
        let config = SimConfig::new(vec![10, 25, 40], 4, Readout::Membrane).unwrap();
        let never = (usize::MAX, 0.0, 0);
        let fixed_oracle = oracle(&net, &x, &labels, &config, never);
        let exit_oracle = oracle(&net, &x, &labels, &config, POLICY);
        // The policy must retire samples at different steps, so batches
        // are compacted while other lanes keep running.
        let mut steps = exit_oracle.exit_steps.clone();
        steps.sort_unstable();
        steps.dedup();
        assert!(steps.len() > 4, "{:?}", exit_oracle.exit_steps);
        for level in simd::Level::available() {
            for threads in [1, 2] {
                simd::with_level(level, || {
                    let mut engine = Engine::with_threads(threads);
                    for (policy, want) in
                        [(ExitPolicy::Off, &fixed_oracle), (adaptive(), &exit_oracle)]
                    {
                        let got = engine.evaluate(&net, &x, &labels, &config, policy).unwrap();
                        let ctx = format!("{level:?}, {threads} threads, {policy:?}");
                        assert_eq!(got.predictions, want.predictions, "{ctx}");
                        assert_eq!(got.exit_steps, want.exit_steps, "{ctx}");
                        assert_eq!(got.exited, want.exited, "{ctx}");
                        assert_eq!(got.sweep.total_spikes, want.total_spikes, "{ctx}");
                        let correct: Vec<f32> = want
                            .correct
                            .iter()
                            .map(|&c| c as f32 / labels.len() as f32)
                            .collect();
                        let accuracies: Vec<f32> =
                            got.sweep.accuracies.iter().map(|a| a.1).collect();
                        assert_eq!(accuracies, correct, "{ctx}");
                        if policy.is_adaptive() {
                            // Every active sample's margin at every step.
                            for (t, &sum) in want.margin_sums.iter().enumerate() {
                                let active = got.margins.active_at(t);
                                let alive = want.exit_steps.iter().filter(|&&s| s > t).count();
                                assert_eq!(active, alive as u64, "{ctx}, step {t}");
                                let mean = got.margins.mean_at(t);
                                let want_mean = (sum / active as f64) as f32;
                                assert_eq!(mean.map(f32::to_bits), Some(want_mean.to_bits()));
                            }
                        }
                    }
                });
            }
        }
    });
}

/// Runs lanes to completion, admitting `later` samples (with their
/// budgets) after `delay` steps, and returns the outputs in submit order.
fn run_lanes(
    net: &SpikingNetwork,
    capacity: usize,
    first: &[(Tensor, usize)],
    delay: usize,
    later: &[(Tensor, usize)],
) -> Vec<LaneOutput> {
    let mut lanes = LaneEngine::new(net, capacity, Readout::Membrane, ExitPolicy::Off).unwrap();
    for (s, budget) in first {
        lanes.submit(s, *budget).unwrap();
    }
    let mut out = Vec::new();
    for _ in 0..delay {
        out.extend(lanes.step().unwrap());
    }
    for (s, budget) in later {
        lanes.submit(s, *budget).unwrap();
    }
    while lanes.active() > 0 {
        out.extend(lanes.step().unwrap());
    }
    out.sort_by_key(|o| o.id);
    out
}

/// Checks every lane's membrane scores against its sample presented alone.
fn assert_lanes_equal_solo(net: &SpikingNetwork, x: &Tensor, capacity: usize) {
    let n = x.dims()[0];
    let budget = |i: usize| 12 + 5 * (i % 4);
    let samples: Vec<(Tensor, usize)> = (0..n).map(|i| (sample(x, i), budget(i))).collect();
    let (first, later) = samples.split_at(capacity - 2);
    for level in simd::Level::available() {
        simd::with_level(level, || {
            let outputs = run_lanes(net, capacity, first, 7, &later[..2]);
            assert_eq!(outputs.len(), capacity);
            for (i, out) in outputs.iter().enumerate() {
                let mut solo = Solo::new(net, &samples[i].0);
                for _ in 0..budget(i) {
                    solo.step();
                }
                assert_eq!(out.steps, budget(i));
                assert_eq!(
                    bits(&out.scores),
                    bits(&solo.membrane()),
                    "{level:?}, lane {i}"
                );
            }
        });
    }
}

#[test]
fn conv_lanes_with_mid_run_admissions_equal_solo_runs() {
    with_disabled(|| {
        let (net, x, _) = conv_data();
        assert_lanes_equal_solo(&net, &x, 7);
    });
}

/// Five lanes fill a 4-row band, so at AVX2 the fused kernel handles some
/// rows and the ragged kernel others: a linear node 0 recomputed on the
/// whole batch would round a lane by its row. The drive is computed per
/// lane, alone.
#[test]
fn linear_first_lanes_equal_solo_runs_at_every_level() {
    with_disabled(|| {
        let net = linear_net(21);
        let x = images(22, 8, &[24]);
        assert_lanes_equal_solo(&net, &x, 7);
    });
}

/// `snn.synops` still counts node 0 on every step of every active sample:
/// an early-exit `Engine` run adds exactly what the per-step oracle adds.
#[test]
fn synops_counter_matches_the_per_step_oracle() {
    let ((engine_synops, oracle_synops), _) = with_captured(|| {
        let (net, x, labels) = conv_data();
        let config = SimConfig::new(vec![40], 4, Readout::SpikeCount).unwrap();
        reset_metrics();
        let result = Engine::with_threads(1)
            .evaluate(&net, &x, &labels, &config, adaptive())
            .unwrap();
        assert!(result.exited.iter().any(|&e| e));
        let engine_synops = tcl_telemetry::counter_value("snn.synops").unwrap();
        reset_metrics();
        for (i, &steps) in result.exit_steps.iter().enumerate() {
            let mut solo = Solo::new(&net, &sample(&x, i));
            for _ in 0..steps {
                solo.step();
            }
        }
        let oracle_synops = tcl_telemetry::counter_value("snn.synops").unwrap();
        (engine_synops, oracle_synops)
    });
    assert!(oracle_synops > 0);
    assert_eq!(engine_synops, oracle_synops);
}
