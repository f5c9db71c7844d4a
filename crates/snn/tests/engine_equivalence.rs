//! Equivalence suite: the batched engine with early exit off is bitwise
//! identical to a from-scratch serial sweep.
//!
//! The oracle below re-implements the fixed-T evaluation semantics from the
//! public API only (clone, reset, step, spike counts, `argmax_rows`), one
//! batch at a time on the calling thread. The engine — with its worker pool,
//! work-stealing batch claims, and cached replicas — must reproduce the
//! oracle's accuracies, spike totals, and per-sample predictions *exactly*,
//! for every thread count and for batch sizes that do not divide the sample
//! count. Run under `TCL_THREADS=1` and `TCL_THREADS=4` by `ci.sh` to cover
//! the kernel-level fan-out dimension as well.

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
