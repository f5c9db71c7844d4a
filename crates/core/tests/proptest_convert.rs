//! Property-based tests of the conversion invariants (DESIGN.md §7).

use proptest::prelude::*;
use tcl_core::{fold_batch_norm, Converter, NormStrategy};
use tcl_nn::layers::{BatchNorm2d, Clip, Conv2d, Linear, Relu};
use tcl_nn::{Layer, Mode, Network};
use tcl_tensor::{SeededRng, Tensor};

/// A random conv→BN→relu→clip→flatten→linear classifier with randomized BN
/// statistics (as if trained).
fn random_bn_net(seed: u64, channels: usize, lambda: f32) -> Network {
    let mut rng = SeededRng::new(seed);
    let conv = Conv2d::new(2, channels, 3, 1, 1, false, &mut rng).unwrap();
    let mut bn = BatchNorm2d::new(channels).unwrap();
    for c in 0..channels {
        bn.running_mean.data_mut()[c] = rng.uniform(-1.0, 1.0);
        bn.running_var.data_mut()[c] = rng.uniform(0.2, 3.0);
        bn.gamma.value.data_mut()[c] = rng.uniform(0.5, 2.0);
        bn.beta.value.data_mut()[c] = rng.uniform(-0.5, 0.5);
    }
    Network::new(vec![
        Layer::Conv2d(conv),
        Layer::BatchNorm2d(bn),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(lambda)),
        Layer::Flatten(tcl_nn::layers::Flatten::new()),
        Layer::Linear(Linear::new(channels * 36, 3, true, &mut rng).unwrap()),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bn_folding_preserves_outputs_for_random_statistics(
        seed in 0u64..1000,
        channels in 1usize..5,
        lambda in 0.5f32..3.0,
    ) {
        let net = random_bn_net(seed, channels, lambda);
        let mut original = net.clone();
        let mut folded = fold_batch_norm(&net).unwrap();
        let x = SeededRng::new(seed ^ 99).uniform_tensor([2, 2, 6, 6], -1.0, 1.0);
        let a = original.forward(&x, Mode::Eval).unwrap();
        let b = folded.forward(&x, Mode::Eval).unwrap();
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
    }

    #[test]
    fn hidden_spike_rates_approximate_normalized_activations(
        seed in 0u64..500,
        lambda in 0.5f32..2.5,
    ) {
        // Run the first converted layer for T steps: spike counts must be
        // within ±1 of T·clip(a)/λ for every neuron (reset-by-subtraction).
        let mut rng = SeededRng::new(seed);
        let mut fc = Linear::new(4, 6, true, &mut rng).unwrap();
        let net = Network::new(vec![
            Layer::Linear(fc.clone()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(lambda)),
            Layer::Linear(Linear::new(6, 2, true, &mut rng).unwrap()),
        ]);
        let calibration = rng.uniform_tensor([16, 4], -1.0, 1.0);
        let conversion = Converter::new(NormStrategy::TrainedClip)
            .convert(&net, &calibration)
            .unwrap();
        let x = rng.uniform_tensor([1, 4], -1.0, 1.0);
        // ANN hidden activation.
        let pre = fc.forward(&x, Mode::Eval).unwrap();
        let act: Vec<f32> = pre.data().iter().map(|v| v.clamp(0.0, lambda)).collect();
        // SNN hidden spikes.
        let mut first = tcl_snn::SpikingNetwork::new(vec![conversion.snn.nodes()[0].clone()]);
        let t = 200usize;
        let mut counts = vec![0.0f32; act.len()];
        for _ in 0..t {
            let s = first.step(&x).unwrap();
            for (c, v) in counts.iter_mut().zip(s.data()) {
                *c += v;
            }
        }
        for (i, (&count, &a)) in counts.iter().zip(&act).enumerate() {
            let expected = t as f32 * a / lambda;
            prop_assert!((count - expected).abs() <= 1.0 + 1e-3,
                "neuron {}: {} spikes vs expected {}", i, count, expected);
        }
    }

    #[test]
    fn norm_factors_scale_inversely_with_lambda(
        seed in 0u64..500,
        lam_a in 0.5f32..1.5,
        factor in 1.1f32..3.0,
    ) {
        // TrainedClip: converting the same network with a larger clip bound
        // λ' = k·λ scales the first layer's weights down by exactly k.
        let mut rng = SeededRng::new(seed);
        let fc = Linear::new(3, 4, true, &mut rng).unwrap();
        let tail = Linear::new(4, 2, true, &mut rng).unwrap();
        let make = |lam: f32| Network::new(vec![
            Layer::Linear(fc.clone()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(lam)),
            Layer::Linear(tail.clone()),
        ]);
        let calibration = rng.uniform_tensor([8, 3], -1.0, 1.0);
        let lam_b = lam_a * factor;
        let conv_a = Converter::new(NormStrategy::TrainedClip)
            .convert(&make(lam_a), &calibration).unwrap();
        let conv_b = Converter::new(NormStrategy::TrainedClip)
            .convert(&make(lam_b), &calibration).unwrap();
        let w = |c: &tcl_core::Conversion| -> Tensor {
            match c.snn.nodes().first().unwrap() {
                tcl_snn::SpikingNode::Spiking(l) => match &l.op {
                    tcl_snn::SynapticOp::Linear(synapse) => synapse.panel().clone(),
                    _ => panic!("expected linear"),
                },
                _ => panic!("expected spiking node"),
            }
        };
        let wa = w(&conv_a);
        let wb = w(&conv_b).scale(factor);
        prop_assert!(wa.max_abs_diff(&wb).unwrap() < 1e-4,
            "Ŵ must scale as 1/λ");
    }

    #[test]
    fn site_quantiles_are_monotone_in_p(
        seed in 0u64..500,
        p_lo in 0.5f32..0.8,
        gap in 0.05f32..0.19,
    ) {
        // Monotonicity of the underlying statistics. (The converter itself
        // additionally maps a zero quantile — common for post-ReLU medians —
        // to a unit norm-factor, so monotonicity is asserted on the stats.)
        let net = random_bn_net(seed, 3, 10.0);
        let calibration = SeededRng::new(seed ^ 7).uniform_tensor([16, 2, 6, 6], -1.0, 1.0);
        let folded = fold_batch_norm(&net).unwrap();
        let mut stats_net = folded.clone();
        let mut stats =
            tcl_core::collect_activation_stats(&mut stats_net, &calibration, 8).unwrap();
        let p_hi = p_lo + gap;
        for s in stats.iter_mut() {
            let lo = s.quantile(p_lo);
            let hi = s.quantile(p_hi);
            prop_assert!(lo <= hi + 1e-5);
            prop_assert!(hi <= s.max() + 1e-5);
        }
    }

    #[test]
    fn zero_quantile_sites_fall_back_to_unit_lambda(
        seed in 0u64..200,
    ) {
        // Converter guard: a percentile that lands on zero activation mass
        // must produce λ = 1, never a division by zero.
        let net = random_bn_net(seed, 2, 10.0);
        let calibration = SeededRng::new(seed ^ 5).uniform_tensor([8, 2, 6, 6], -1.0, 1.0);
        let conv = Converter::new(NormStrategy::Percentile(0.01))
            .convert(&net, &calibration).unwrap();
        for &lam in &conv.lambdas {
            prop_assert!(lam > 0.0 && lam.is_finite());
        }
    }

    #[test]
    fn conversion_emits_unit_thresholds_everywhere(
        seed in 0u64..500,
        channels in 1usize..4,
    ) {
        let net = random_bn_net(seed, channels, 1.5);
        let calibration = SeededRng::new(seed ^ 3).uniform_tensor([8, 2, 6, 6], -1.0, 1.0);
        let conversion = Converter::new(NormStrategy::MaxActivation)
            .convert(&net, &calibration).unwrap();
        prop_assert_eq!(conversion.snn.output_threshold(), Some(1.0));
    }
}
