//! Edge cases of the conversion pipeline: degenerate calibration,
//! clip-free paths, bias handling, and converter configuration.

use tcl_core::{collect_activation_stats, Converter, NormStrategy};
use tcl_nn::layers::{Clip, Conv2d, Flatten, GlobalAvgPool, Linear, Relu, ResidualBlock};
use tcl_nn::{Layer, Network};
use tcl_snn::{Readout, ResetMode, SimConfig};
use tcl_tensor::{SeededRng, Tensor};

fn tiny_mlp(rng: &mut SeededRng) -> Network {
    Network::new(vec![
        Layer::Linear(Linear::new(4, 6, true, rng).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(1.0)),
        Layer::Linear(Linear::new(6, 3, true, rng).unwrap()),
    ])
}

#[test]
fn all_negative_calibration_triggers_unit_lambda_fallbacks() {
    // Dead calibration (all activations zero after ReLU): every λ falls
    // back to 1 and conversion still succeeds.
    let mut rng = SeededRng::new(0);
    let mut fc = Linear::new(4, 6, false, &mut rng).unwrap();
    // Force negative pre-activations: strongly negative weights with
    // positive inputs.
    fc.weight.value.map_inplace(|v| -v.abs() - 0.1);
    let net = Network::new(vec![
        Layer::Linear(fc),
        Layer::Relu(Relu::new()),
        Layer::Linear(Linear::new(6, 2, true, &mut rng).unwrap()),
    ]);
    let calibration = rng.uniform_tensor([8, 4], 0.1, 1.0);
    let conv = Converter::new(NormStrategy::MaxActivation)
        .convert(&net, &calibration)
        .unwrap();
    assert!(conv.lambdas.iter().all(|&l| l == 1.0));
}

#[test]
fn single_calibration_sample_works() {
    let mut rng = SeededRng::new(1);
    let net = tiny_mlp(&mut rng);
    let calibration = rng.uniform_tensor([1, 4], -1.0, 1.0);
    for strategy in [
        NormStrategy::TrainedClip,
        NormStrategy::MaxActivation,
        NormStrategy::percentile_999(),
    ] {
        assert!(
            Converter::new(strategy).convert(&net, &calibration).is_ok(),
            "{strategy:?}"
        );
    }
}

#[test]
fn calibration_batch_larger_than_set_is_fine() {
    let mut rng = SeededRng::new(2);
    let net = tiny_mlp(&mut rng);
    let calibration = rng.uniform_tensor([3, 4], -1.0, 1.0);
    let conv = Converter::new(NormStrategy::MaxActivation)
        .with_calibration_batch(1000)
        .convert(&net, &calibration)
        .unwrap();
    assert_eq!(conv.lambdas.len(), 2);
}

#[test]
fn zero_calibration_batch_is_clamped_to_one() {
    let mut rng = SeededRng::new(3);
    let net = tiny_mlp(&mut rng);
    let calibration = rng.uniform_tensor([2, 4], -1.0, 1.0);
    // with_calibration_batch(0) silently clamps to 1 rather than erroring.
    let conv = Converter::new(NormStrategy::MaxActivation)
        .with_calibration_batch(0)
        .convert(&net, &calibration)
        .unwrap();
    assert_eq!(conv.lambdas.len(), 2);
}

#[test]
fn reset_mode_is_propagated_to_every_neuron_bank() {
    let mut rng = SeededRng::new(4);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, true, &mut rng).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Residual(ResidualBlock::new(2, 2, 1, false, None, &mut rng).unwrap()),
        Layer::GlobalAvgPool(GlobalAvgPool::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(2, 2, true, &mut rng).unwrap()),
    ]);
    let calibration = rng.uniform_tensor([4, 1, 6, 6], -1.0, 1.0);
    let conv = Converter::new(NormStrategy::MaxActivation)
        .with_reset_mode(ResetMode::Zero)
        .convert(&net, &calibration)
        .unwrap();
    for node in conv.snn.nodes() {
        match node {
            tcl_snn::SpikingNode::Spiking(l) => {
                assert_eq!(l.neurons.reset_mode(), ResetMode::Zero)
            }
            tcl_snn::SpikingNode::Residual(b) => {
                assert_eq!(b.ns_neurons.reset_mode(), ResetMode::Zero);
                assert_eq!(b.os_neurons.reset_mode(), ResetMode::Zero);
            }
            _ => {}
        }
    }
}

#[test]
fn bias_currents_survive_conversion() {
    // A network that relies entirely on its bias: zero weights, positive
    // bias. The SNN must still fire (the bias is injected every step).
    let fc =
        Linear::from_parts(Tensor::zeros([2, 2]), Some(Tensor::from_slice(&[0.8, 0.1]))).unwrap();
    let out = Linear::from_parts(
        Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
        None,
    )
    .unwrap();
    let net = Network::new(vec![
        Layer::Linear(fc),
        Layer::Relu(Relu::new()),
        Layer::Linear(out),
    ]);
    let mut rng = SeededRng::new(5);
    let calibration = rng.uniform_tensor([4, 2], -1.0, 1.0);
    let conv = Converter::new(NormStrategy::MaxActivation)
        .convert(&net, &calibration)
        .unwrap();
    let mut snn = conv.snn;
    let x = Tensor::zeros([1, 2]);
    snn.reset();
    let mut counts = [0.0f32; 2];
    for _ in 0..100 {
        let s = snn.step(&x).unwrap();
        counts[0] += s.at(0);
        counts[1] += s.at(1);
    }
    assert!(counts[0] > counts[1], "bias ordering lost: {counts:?}");
    assert!(
        counts[0] > 50.0,
        "strong bias neuron barely fired: {counts:?}"
    );
}

#[test]
fn stats_walker_counts_match_after_folding_any_model() {
    use tcl_models::{Architecture, ModelConfig};
    let mut rng = SeededRng::new(6);
    let cfg = ModelConfig::new((3, 8, 8), 4)
        .with_base_width(2)
        .with_clip_lambda(Some(2.0));
    for arch in [Architecture::ResNet34, Architecture::ResNet20] {
        let net = arch.build(&cfg, &mut rng).unwrap();
        let folded = tcl_core::fold_batch_norm(&net).unwrap();
        let mut stats_net = folded.clone();
        let calibration = rng.uniform_tensor([6, 3, 8, 8], -1.0, 1.0);
        let stats = collect_activation_stats(&mut stats_net, &calibration, 3).unwrap();
        assert_eq!(stats.len(), tcl_core::count_sites(&folded), "{arch}");
    }
}

#[test]
fn membrane_and_spike_readouts_agree_at_long_latency() {
    let mut rng = SeededRng::new(7);
    let net = tiny_mlp(&mut rng);
    let calibration = rng.uniform_tensor([16, 4], -1.0, 1.0);
    let x = rng.uniform_tensor([6, 4], -1.0, 1.0);
    let labels = vec![0, 1, 2, 0, 1, 2];
    let conv = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap();
    let long = 400;
    let spike_cfg = SimConfig::new(vec![long], 6, Readout::SpikeCount).unwrap();
    let mem_cfg = SimConfig::new(vec![long], 6, Readout::Membrane).unwrap();
    let a = tcl_snn::evaluate(&conv.snn.clone(), &x, &labels, &spike_cfg).unwrap();
    let b = tcl_snn::evaluate(&conv.snn.clone(), &x, &labels, &mem_cfg).unwrap();
    // Same converted network, same stimuli: the readouts converge.
    assert!((a.final_accuracy() - b.final_accuracy()).abs() <= 0.2);
}

#[test]
fn converter_skips_dropout_layers() {
    use tcl_models::{Architecture, ModelConfig};
    let mut rng = SeededRng::new(8);
    let cfg = ModelConfig::new((3, 8, 8), 4)
        .with_base_width(2)
        .with_clip_lambda(Some(2.0))
        .with_dropout(Some(0.5));
    let net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
    let calibration = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
    for strategy in [NormStrategy::TrainedClip, NormStrategy::SpikeNorm] {
        let conv = Converter::new(strategy)
            .convert(&net, &calibration)
            .unwrap();
        // Same node structure as the dropout-free network.
        assert!(conv.snn.nodes().iter().all(|n| n.kind_name() != "dropout"));
        // And the SNN still runs.
        let mut snn = conv.snn;
        let x = rng.uniform_tensor([1, 3, 8, 8], -1.0, 1.0);
        snn.reset();
        snn.step(&x).unwrap();
    }
}

#[test]
fn every_strategy_refuses_a_hidden_layer_without_activation() {
    // The first convolution feeds the second directly: no activation site
    // sits between them, so there is no λ to normalize it with. Every
    // strategy builds its spiking network through the same emitter, so
    // SpikeNorm refuses the net exactly as the others do.
    let mut rng = SeededRng::new(9);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(3, 2, 3, 1, 1, true, &mut rng).unwrap()),
        Layer::Conv2d(Conv2d::new(2, 2, 3, 1, 1, true, &mut rng).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(2.0)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(2 * 4 * 4, 3, true, &mut rng).unwrap()),
    ]);
    let calibration = rng.uniform_tensor([4, 3, 4, 4], -1.0, 1.0);
    for strategy in [
        NormStrategy::TrainedClip,
        NormStrategy::MaxActivation,
        NormStrategy::percentile_999(),
        NormStrategy::SpikeNorm,
    ] {
        let err = Converter::new(strategy)
            .convert(&net, &calibration)
            .unwrap_err();
        assert!(
            matches!(err, tcl_core::ConvertError::Unsupported { .. }),
            "{strategy:?}: {err}"
        );
    }
}
