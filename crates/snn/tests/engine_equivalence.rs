//! Equivalence suite: the batched engine is bitwise identical to a
//! from-scratch serial sweep, with early exit off and on.
//!
//! The oracle below re-implements the fixed-T evaluation semantics from the
//! public API only (clone, reset, step, spike counts, `argmax_rows`), one
//! batch at a time on the calling thread. The engine — with its worker pool,
//! work-stealing batch claims, and cached replicas — must reproduce the
//! oracle's accuracies, spike totals, and per-sample predictions *exactly*,
//! for every thread count and for batch sizes that do not divide the sample
//! count. Run under `TCL_THREADS=1` and `TCL_THREADS=4` by `ci.sh` to cover
//! the kernel-level fan-out dimension as well.
//!
//! A second oracle runs `ExitPolicy::Adaptive` serially: it retires samples
//! by the margin-stability rule and compacts their rows out of the network,
//! and the engine must match its predictions, exit steps, checkpoint
//! accuracies, spike totals, firing rate and per-step margin trace.

use proptest::prelude::*;
use std::sync::Arc;
use tcl_snn::{
    Engine, ExitPolicy, IfNeurons, InputCoding, Readout, ResetMode, SimConfig, SpikingLayer,
    SpikingNetwork, SpikingNode, SynapticOp,
};
use tcl_tensor::{ops, SeededRng, Tensor};

/// A small random two-layer network: `features → hidden → classes`.
fn random_net(seed: u64, features: usize, hidden: usize, classes: usize) -> SpikingNetwork {
    let mut rng = SeededRng::new(seed);
    let l1 = SpikingLayer::new(
        SynapticOp::linear(
            rng.uniform_tensor([hidden, features], -0.8, 0.8),
            Some(rng.uniform_tensor([hidden], -0.1, 0.1)),
        )
        .unwrap(),
        IfNeurons::new(1.0, ResetMode::Subtract),
    );
    let l2 = SpikingLayer::new(
        SynapticOp::linear(rng.uniform_tensor([classes, hidden], -0.8, 0.8), None).unwrap(),
        IfNeurons::new(1.0, ResetMode::Subtract),
    );
    SpikingNetwork::new(vec![SpikingNode::Spiking(l1), SpikingNode::Spiking(l2)])
}

fn random_data(seed: u64, samples: usize, features: usize, classes: usize) -> (Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed ^ 0xDA7A);
    let images = rng.uniform_tensor([samples, features], 0.0, 1.0);
    let labels = (0..samples).map(|_| rng.below(classes)).collect();
    (images, labels)
}

struct OracleResult {
    accuracies: Vec<(usize, f32)>,
    total_spikes: u64,
    predictions: Vec<usize>,
}

/// Serial fixed-T evaluation from first principles (public API only).
fn oracle(
    net: &SpikingNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &SimConfig,
) -> OracleResult {
    let n = images.dims()[0];
    let features = images.len() / n;
    let max_t = *config.checkpoints.last().unwrap();
    let mut correct = vec![0usize; config.checkpoints.len()];
    let mut total_spikes = 0u64;
    let mut predictions = Vec::with_capacity(n);
    let batch_count = n.div_ceil(config.batch_size);
    for batch in 0..batch_count {
        let start = batch * config.batch_size;
        let end = (start + config.batch_size).min(n);
        let x = Tensor::from_vec(
            [end - start, features],
            images.data()[start * features..end * features].to_vec(),
        )
        .unwrap();
        let mut rng = match config.input_coding {
            InputCoding::Analog => None,
            InputCoding::Poisson { seed } => Some(SeededRng::new(
                seed ^ (batch as u64).wrapping_mul(0x9E37_79B9),
            )),
        };
        let mut worker = net.clone();
        worker.reset();
        let mut counts: Option<Tensor> = None;
        let mut ck = 0usize;
        for t in 1..=max_t {
            let stimulus = match &mut rng {
                None => x.clone(),
                Some(r) => x.map(|v| {
                    let p = v.abs().min(1.0);
                    if r.uniform(0.0, 1.0) < p {
                        v.signum()
                    } else {
                        0.0
                    }
                }),
            };
            let spikes = worker.step(&stimulus).unwrap();
            match &mut counts {
                Some(c) => c.add_assign(&spikes).unwrap(),
                None => counts = Some(spikes),
            }
            if ck < config.checkpoints.len() && t == config.checkpoints[ck] {
                let counts = counts.as_ref().unwrap();
                let scores = match config.readout {
                    Readout::SpikeCount => counts.clone(),
                    Readout::Membrane => {
                        let thr = worker.output_threshold().unwrap_or(1.0);
                        let mut s = counts.scale(thr);
                        if let Some(v) = worker.output_potential() {
                            s.add_assign(v).unwrap();
                        }
                        s
                    }
                };
                let preds = ops::argmax_rows(&scores).unwrap();
                correct[ck] += preds
                    .iter()
                    .zip(&labels[start..end])
                    .filter(|(p, l)| p == l)
                    .count();
                ck += 1;
                if ck == config.checkpoints.len() {
                    predictions.extend(preds);
                }
            }
        }
        total_spikes += worker.total_spikes();
    }
    OracleResult {
        accuracies: config
            .checkpoints
            .iter()
            .zip(&correct)
            .map(|(&t, &c)| (t, c as f32 / n as f32))
            .collect(),
        total_spikes,
        predictions,
    }
}

fn check_case(seed: u64, samples: usize, batch_size: usize, poisson: bool, membrane: bool) {
    let features = 3;
    let classes = 3;
    let net = random_net(seed, features, 5, classes);
    let (images, labels) = random_data(seed, samples, features, classes);
    let readout = if membrane {
        Readout::Membrane
    } else {
        Readout::SpikeCount
    };
    let mut config = SimConfig::new(vec![4, 21], batch_size, readout).unwrap();
    if poisson {
        config = config.with_input_coding(InputCoding::Poisson {
            seed: seed ^ 0xBEEF,
        });
    }
    let reference = oracle(&net, &images, &labels, &config);
    let shared = Arc::new(net.clone());
    for threads in [1usize, 4] {
        let mut engine = Engine::with_threads(threads);
        // Two passes over the same Arc: the second exercises the cached
        // per-worker replicas (no re-clone) and must still match.
        for pass in 0..2 {
            let result = engine
                .evaluate_shared(&shared, &images, &labels, &config, ExitPolicy::Off)
                .unwrap();
            assert_eq!(
                result.sweep.accuracies, reference.accuracies,
                "accuracies diverged (threads={threads}, pass={pass}, seed={seed})"
            );
            assert_eq!(
                result.sweep.total_spikes, reference.total_spikes,
                "spike totals diverged (threads={threads}, pass={pass}, seed={seed})"
            );
            assert_eq!(
                result.predictions, reference.predictions,
                "predictions diverged (threads={threads}, pass={pass}, seed={seed})"
            );
        }
    }
    // The one-shot wrapper rides the same engine and must agree too.
    let sweep = tcl_snn::evaluate(&net, &images, &labels, &config).unwrap();
    assert_eq!(sweep.accuracies, reference.accuracies);
    assert_eq!(sweep.total_spikes, reference.total_spikes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline equivalence property: for random networks, data, batch
    /// sizes (including ones that leave a ragged final batch), input codings
    /// and readouts, the engine with `ExitPolicy::Off` is bitwise identical
    /// to the serial oracle under 1 and 4 engine threads.
    #[test]
    fn engine_off_is_bitwise_identical_to_serial_oracle(
        seed in 0u64..1_000_000,
        samples in 5usize..12,
        batch_size in 1usize..8,
        coding in 0u8..2,
        readout in 0u8..2,
    ) {
        check_case(seed, samples, batch_size, coding == 1, readout == 1);
    }
}

/// Pin the ragged-batch edge cases explicitly (batch sizes that do not
/// divide the sample count, batch larger than the whole set).
#[test]
fn ragged_batches_match_the_oracle() {
    for (samples, batch_size) in [(7, 3), (5, 4), (9, 2), (4, 16), (6, 5)] {
        check_case(0xC0FFEE, samples, batch_size, false, false);
        check_case(0xC0FFEE, samples, batch_size, true, true);
    }
}

/// What an early-exit evaluation reports, rebuilt serially.
struct AdaptiveOracle {
    accuracies: Vec<(usize, f32)>,
    total_spikes: u64,
    mean_firing_rate: f32,
    predictions: Vec<usize>,
    exit_steps: Vec<usize>,
    exited: Vec<bool>,
    /// Per step: Σ margins over the active samples (summed per batch in
    /// row order, then over batches in order) and how many were active.
    margin_sums: Vec<f64>,
    active: Vec<u64>,
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

/// Rows `keep` of a `[rows, cols]` tensor, in order.
fn rows_of(x: &Tensor, keep: &[usize]) -> Tensor {
    let cols = x.dims()[1];
    let data = keep
        .iter()
        .flat_map(|&r| x.data()[r * cols..(r + 1) * cols].iter().copied())
        .collect();
    Tensor::from_vec([keep.len(), cols], data).unwrap()
}

/// One timestep, node by node: node 0's IF bank integrates `current`, every
/// later node steps on its predecessor's output.
fn step_on_current(net: &mut SpikingNetwork, current: &Tensor) -> Tensor {
    let nodes = net.nodes_mut();
    let SpikingNode::Spiking(first) = &mut nodes[0] else {
        unreachable!("node 0 is a spiking layer")
    };
    let mut x = first.neurons.step(current).unwrap();
    for node in &mut nodes[1..] {
        x = node.step(&x).unwrap();
    }
    x
}

/// Serial early-exit evaluation from first principles (public API only).
///
/// Retired rows are compacted out of the network (`retain_rows`), the spike
/// counts and the stimulus. Under analog coding node 0's current is
/// computed once per batch and its survivors' rows are kept; under Poisson
/// coding every step draws impulses for the whole batch, from the batch's
/// own stream, and keeps the survivors' rows, so a retirement never shifts
/// a neighbour's draws.
fn adaptive_oracle(
    net: &SpikingNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &SimConfig,
    (patience, min_margin, min_steps): (usize, f32, usize),
) -> AdaptiveOracle {
    let n = images.dims()[0];
    let max_t = *config.checkpoints.last().unwrap();
    let mut out = AdaptiveOracle {
        accuracies: Vec::new(),
        total_spikes: 0,
        mean_firing_rate: 0.0,
        predictions: vec![0; n],
        exit_steps: vec![max_t; n],
        exited: vec![false; n],
        margin_sums: vec![0.0; max_t],
        active: vec![0; max_t],
    };
    let mut correct = vec![0usize; config.checkpoints.len()];
    let mut rate_sum = 0.0f64;
    let batch_count = n.div_ceil(config.batch_size);
    for batch in 0..batch_count {
        let start = batch * config.batch_size;
        let end = (start + config.batch_size).min(n);
        let x = rows_of(images, &(start..end).collect::<Vec<_>>());
        let mut rng = match config.input_coding {
            InputCoding::Analog => None,
            InputCoding::Poisson { seed } => Some(SeededRng::new(
                seed ^ (batch as u64).wrapping_mul(0x9E37_79B9),
            )),
        };
        let mut worker = net.clone();
        worker.reset();
        let SpikingNode::Spiking(first) = &worker.nodes()[0] else {
            unreachable!("node 0 is a spiking layer")
        };
        let analog_current = first.op.apply(&x).unwrap();
        // `active[p]` is the batch row of compacted row `p`.
        let mut active: Vec<usize> = (0..end - start).collect();
        let mut counts: Vec<Vec<f32>> = vec![Vec::new(); end - start];
        let mut frozen: Vec<Option<Vec<f32>>> = vec![None; end - start];
        let (mut last_top, mut stable) = (vec![0usize; end - start], vec![0usize; end - start]);
        let mut batch_margins = vec![0.0f64; max_t];
        let mut neurons = 0usize;
        let mut ck = 0usize;
        for t in 1..=max_t {
            let current = match &mut rng {
                None => rows_of(&analog_current, &active),
                Some(r) => {
                    let draw = x.map(|v| {
                        let p = v.abs().min(1.0);
                        if r.uniform(0.0, 1.0) < p {
                            v.signum()
                        } else {
                            0.0
                        }
                    });
                    let SpikingNode::Spiking(first) = &worker.nodes()[0] else {
                        unreachable!("node 0 is a spiking layer")
                    };
                    first.op.apply(&rows_of(&draw, &active)).unwrap()
                }
            };
            let spikes = step_on_current(&mut worker, &current);
            if t == 1 {
                neurons = worker.neurons_per_node().iter().sum();
            }
            let classes = spikes.dims()[1];
            let thr = worker.output_threshold().unwrap();
            let mut retiring = Vec::new();
            for (p, &row) in active.iter().enumerate() {
                let c = &mut counts[row];
                c.resize(classes, 0.0);
                for (ci, s) in c.iter_mut().zip(&spikes.data()[p * classes..]) {
                    *ci += s;
                }
                let scores: Vec<f32> = match config.readout {
                    Readout::SpikeCount => c.clone(),
                    Readout::Membrane => {
                        let v = &worker.output_potential().unwrap().data()[p * classes..];
                        c.iter().zip(v).map(|(c, v)| c * thr + v).collect()
                    }
                };
                let (top, margin) = top2(&scores);
                batch_margins[t - 1] += f64::from(margin);
                out.active[t - 1] += 1;
                stable[row] = if margin >= min_margin && top == last_top[row] && stable[row] > 0 {
                    stable[row] + 1
                } else {
                    usize::from(margin >= min_margin)
                };
                last_top[row] = top;
                if t >= min_steps && t < max_t && stable[row] >= patience {
                    out.exit_steps[start + row] = t;
                    out.exited[start + row] = true;
                    retiring.push(row);
                }
                if !out.exited[start + row] && ck < config.checkpoints.len() {
                    // Live rows at a checkpoint read this step's scores.
                    if t == config.checkpoints[ck] {
                        correct[ck] += usize::from(top == labels[start + row]);
                    }
                }
                if out.exited[start + row] || t == max_t {
                    frozen[row] = Some(scores);
                }
            }
            // Frozen rows: retired at or before this checkpoint.
            if ck < config.checkpoints.len() && t == config.checkpoints[ck] {
                for (row, f) in frozen.iter().enumerate() {
                    if let Some(f) = f.as_ref().filter(|_| out.exited[start + row]) {
                        correct[ck] += usize::from(top2(f).0 == labels[start + row]);
                    }
                }
                ck += 1;
            }
            if !retiring.is_empty() {
                let keep: Vec<usize> = (0..active.len())
                    .filter(|&p| !retiring.contains(&active[p]))
                    .collect();
                worker.retain_rows(&keep).unwrap();
                active = keep.iter().map(|&p| active[p]).collect();
                if active.is_empty() {
                    break;
                }
            }
        }
        for (row, f) in frozen.iter().enumerate() {
            out.predictions[start + row] = top2(f.as_ref().unwrap()).0;
        }
        // Checkpoints after every sample retired read frozen scores only.
        for c in &mut correct[ck..] {
            *c += (start..end)
                .filter(|&i| out.predictions[i] == labels[i])
                .count();
        }
        for (sum, b) in out.margin_sums.iter_mut().zip(&batch_margins) {
            *sum += b;
        }
        let spikes = worker.total_spikes();
        out.total_spikes += spikes;
        rate_sum += spikes as f64 / (neurons as f64 * max_t as f64);
    }
    out.mean_firing_rate = (rate_sum / batch_count as f64) as f32;
    out.accuracies = config
        .checkpoints
        .iter()
        .zip(&correct)
        .map(|(&t, &c)| (t, c as f32 / n as f32))
        .collect();
    out
}

#[allow(clippy::too_many_arguments)] // one property case: data, config and policy
fn check_adaptive_case(
    seed: u64,
    samples: usize,
    batch_size: usize,
    poisson: bool,
    membrane: bool,
    patience: usize,
    min_margin: f32,
    min_steps: usize,
) {
    let features = 3;
    let classes = 3;
    let net = random_net(seed, features, 5, classes);
    let (images, labels) = random_data(seed, samples, features, classes);
    let readout = if membrane {
        Readout::Membrane
    } else {
        Readout::SpikeCount
    };
    let mut config = SimConfig::new(vec![4, 12, 21], batch_size, readout).unwrap();
    if poisson {
        config = config.with_input_coding(InputCoding::Poisson {
            seed: seed ^ 0xBEEF,
        });
    }
    let want = adaptive_oracle(
        &net,
        &images,
        &labels,
        &config,
        (patience, min_margin, min_steps),
    );
    let policy = ExitPolicy::Adaptive {
        patience,
        min_margin,
        min_steps,
    };
    let shared = Arc::new(net);
    for threads in [1usize, 4] {
        let mut engine = Engine::with_threads(threads);
        for pass in 0..2 {
            let got = engine
                .evaluate_shared(&shared, &images, &labels, &config, policy)
                .unwrap();
            let ctx = format!("threads={threads}, pass={pass}, seed={seed}, {policy:?}");
            assert_eq!(got.predictions, want.predictions, "{ctx}");
            assert_eq!(got.exit_steps, want.exit_steps, "{ctx}");
            assert_eq!(got.exited, want.exited, "{ctx}");
            assert_eq!(got.sweep.accuracies, want.accuracies, "{ctx}");
            assert_eq!(got.sweep.total_spikes, want.total_spikes, "{ctx}");
            assert_eq!(
                got.sweep.mean_firing_rate.to_bits(),
                want.mean_firing_rate.to_bits(),
                "{ctx}"
            );
            assert_eq!(got.margins.steps(), want.active.len(), "{ctx}");
            for (t, (&sum, &active)) in want.margin_sums.iter().zip(&want.active).enumerate() {
                assert_eq!(got.margins.active_at(t), active, "{ctx}, step {t}");
                let mean = (active > 0).then(|| (sum / active as f64) as f32);
                assert_eq!(
                    got.margins.mean_at(t).map(f32::to_bits),
                    mean.map(f32::to_bits),
                    "{ctx}, step {t}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Early exit against the serial compacting oracle: random networks,
    /// data, batch sizes (ragged final batches included), both input
    /// codings, both readouts and random policies, under 1 and 4 engine
    /// threads. A zero `min_margin` lets samples retire on the first step.
    #[test]
    fn engine_adaptive_is_bitwise_identical_to_serial_oracle(
        seed in 0u64..1_000_000,
        samples in 5usize..12,
        batch_size in 1usize..8,
        coding in 0u8..2,
        readout in 0u8..2,
        patience in 1usize..6,
        margin in 0usize..4,
        min_steps in 0usize..10,
    ) {
        let min_margin = [0.0, 0.5, 1.0, 2.0][margin];
        check_adaptive_case(
            seed, samples, batch_size, coding == 1, readout == 1, patience, min_margin, min_steps,
        );
    }
}

/// The ragged-batch edge cases of `ragged_batches_match_the_oracle`, under
/// early exit, for both codings and both readouts.
#[test]
fn ragged_adaptive_batches_match_the_oracle() {
    for (samples, batch_size) in [(7, 3), (5, 4), (9, 2), (4, 16), (6, 5)] {
        for (poisson, membrane) in [(false, false), (true, true), (false, true), (true, false)] {
            check_adaptive_case(0xC0FFEE, samples, batch_size, poisson, membrane, 3, 1.0, 2);
        }
    }
}
