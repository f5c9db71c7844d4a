//! Integration tests for the residual-block conversion of Section 5:
//! NS/OS splitting, the virtual identity convolution for type-A blocks, and
//! rate-coding fidelity through deep residual stacks.

use tcl_core::{Converter, NormStrategy};
use tcl_nn::layers::{Clip, Conv2d, Flatten, GlobalAvgPool, Linear, Relu, ResidualBlock, Shortcut};
use tcl_nn::{Layer, Mode, Network};
use tcl_snn::{evaluate, Readout, SimConfig};
use tcl_tensor::{ops::ConvGeometry, SeededRng, Tensor};

/// A tiny residual classifier: stem conv → one residual block → GAP →
/// linear. `projection` forces a type-B block even when shapes admit
/// identity.
fn residual_net(projection: bool, seed: u64) -> Network {
    let mut rng = SeededRng::new(seed);
    let channels = 4;
    let stem = Conv2d::new(2, channels, 3, 1, 1, true, &mut rng).unwrap();
    let mut block = ResidualBlock::new(channels, channels, 1, false, Some(1.5), &mut rng).unwrap();
    if projection {
        // Replace the identity shortcut with an explicit identity 1×1
        // projection — mathematically the same function as type A.
        let mut w = Tensor::zeros([channels, channels, 1, 1]);
        for c in 0..channels {
            w.data_mut()[c * channels + c] = 1.0;
        }
        let conv = Conv2d::from_parts(
            w,
            Some(Tensor::zeros([channels])),
            ConvGeometry::square(1, 1, 0).unwrap(),
        )
        .unwrap();
        block.shortcut = Shortcut::Projection { conv, bn: None };
    }
    Network::new(vec![
        Layer::Conv2d(stem),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(1.5)),
        Layer::Residual(block),
        Layer::GlobalAvgPool(GlobalAvgPool::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(4, 3, true, &mut rng).unwrap()),
    ])
}

/// Copies trained parameters from net `a` into net `b` so that a type-A and
/// a type-B network compute the identical function.
fn clone_with_projection(net: &Network, seed: u64) -> Network {
    let mut with_proj = residual_net(true, seed);
    // Copy stem, block convs, clips, and classifier verbatim.
    for (dst, src) in with_proj.layers_mut().iter_mut().zip(net.layers().iter()) {
        match (dst, src) {
            (Layer::Conv2d(d), Layer::Conv2d(s)) => {
                d.weight.value = s.weight.value.clone();
                if let (Some(db), Some(sb)) = (&mut d.bias, &s.bias) {
                    db.value = sb.value.clone();
                }
            }
            (Layer::Linear(d), Layer::Linear(s)) => {
                d.weight.value = s.weight.value.clone();
                if let (Some(db), Some(sb)) = (&mut d.bias, &s.bias) {
                    db.value = sb.value.clone();
                }
            }
            (Layer::Clip(d), Layer::Clip(s)) => {
                d.lambda.value = s.lambda.value.clone();
            }
            (Layer::Residual(d), Layer::Residual(s)) => {
                d.conv1.weight.value = s.conv1.weight.value.clone();
                if let (Some(db), Some(sb)) = (&mut d.conv1.bias, &s.conv1.bias) {
                    db.value = sb.value.clone();
                }
                d.conv2.weight.value = s.conv2.weight.value.clone();
                if let (Some(db), Some(sb)) = (&mut d.conv2.bias, &s.conv2.bias) {
                    db.value = sb.value.clone();
                }
                if let (Some(dc), Some(sc)) = (&mut d.clip1, &s.clip1) {
                    dc.lambda.value = sc.lambda.value.clone();
                }
                if let (Some(dc), Some(sc)) = (&mut d.clip_out, &s.clip_out) {
                    dc.lambda.value = sc.lambda.value.clone();
                }
            }
            _ => {}
        }
    }
    with_proj
}

#[test]
fn type_a_and_explicit_identity_projection_are_equivalent_anns() {
    let type_a = residual_net(false, 3);
    let type_b = clone_with_projection(&type_a, 3);
    let mut a = type_a.clone();
    let mut b = type_b.clone();
    let mut rng = SeededRng::new(4);
    let x = rng.uniform_tensor([3, 2, 6, 6], -1.0, 1.0);
    let ya = a.forward(&x, Mode::Eval).unwrap();
    let yb = b.forward(&x, Mode::Eval).unwrap();
    assert!(
        ya.max_abs_diff(&yb).unwrap() < 1e-5,
        "identity projection must match identity shortcut"
    );
}

#[test]
fn virtual_conv_makes_type_a_convert_like_type_b() {
    // Section 5's claim: with the virtual 1×1 unit convolution, type-A
    // blocks convert through the same OS algebra as type-B. Converting the
    // two equivalent networks must produce SNNs with identical behaviour.
    let type_a = residual_net(false, 5);
    let type_b = clone_with_projection(&type_a, 5);
    let mut rng = SeededRng::new(6);
    let calibration = rng.uniform_tensor([16, 2, 6, 6], -1.0, 1.0);
    let converter = Converter::new(NormStrategy::TrainedClip);
    let mut snn_a = converter.convert(&type_a, &calibration).unwrap().snn;
    let mut snn_b = converter.convert(&type_b, &calibration).unwrap().snn;
    let x = rng.uniform_tensor([2, 2, 6, 6], -1.0, 1.0);
    snn_a.reset();
    snn_b.reset();
    let mut count_a = Tensor::zeros([2, 3]);
    let mut count_b = Tensor::zeros([2, 3]);
    for _ in 0..60 {
        count_a.add_assign(&snn_a.step(&x).unwrap()).unwrap();
        count_b.add_assign(&snn_b.step(&x).unwrap()).unwrap();
    }
    assert!(
        count_a.max_abs_diff(&count_b).unwrap() < 1e-6,
        "type-A and equivalent type-B conversions diverged: {count_a} vs {count_b}"
    );
}

#[test]
fn residual_snn_rate_codes_the_ann_function() {
    // The OS layer output rate should approximate the clipped ANN
    // activation scaled by λ_out; here we check at the classification level
    // with a membrane readout: long-T SNN predictions match ANN argmaxes.
    let net = residual_net(false, 9);
    let mut ann = net.clone();
    let mut rng = SeededRng::new(10);
    let calibration = rng.uniform_tensor([24, 2, 6, 6], -1.0, 1.0);
    let x = rng.uniform_tensor([8, 2, 6, 6], -1.0, 1.0);
    let logits = ann.forward(&x, Mode::Eval).unwrap();
    let ann_preds = tcl_tensor::ops::argmax_rows(&logits).unwrap();
    let snn = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap()
        .snn;
    let cfg = SimConfig::new(vec![300], 8, Readout::Membrane).unwrap();
    let sweep = evaluate(&snn, &x, &ann_preds, &cfg).unwrap();
    assert!(
        sweep.final_accuracy() >= 0.75,
        "SNN should reproduce most ANN decisions, got {}",
        sweep.final_accuracy()
    );
}

#[test]
fn strided_projection_blocks_convert_and_run() {
    let mut rng = SeededRng::new(12);
    let block = ResidualBlock::new(2, 6, 2, false, Some(1.0), &mut rng).unwrap();
    assert!(!block.shortcut.is_identity());
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(2, 2, 3, 1, 1, true, &mut rng).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(1.0)),
        Layer::Residual(block),
        Layer::GlobalAvgPool(GlobalAvgPool::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(6, 2, true, &mut rng).unwrap()),
    ]);
    let calibration = rng.uniform_tensor([8, 2, 8, 8], -1.0, 1.0);
    let mut snn = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap()
        .snn;
    let x = rng.uniform_tensor([2, 2, 8, 8], -1.0, 1.0);
    snn.reset();
    for _ in 0..10 {
        let out = snn.step(&x).unwrap();
        assert_eq!(out.dims(), &[2, 2]);
    }
    assert!(snn.total_spikes() > 0);
}

#[test]
fn resnet_conversion_reloads_node_for_node() {
    use tcl_models::{Architecture, ModelConfig};
    let mut rng = SeededRng::new(41);
    let cfg = ModelConfig::new((3, 8, 8), 4)
        .with_base_width(2)
        .with_clip_lambda(Some(2.0));
    let mut net = Architecture::ResNet18.build(&cfg, &mut rng).unwrap();
    // Batch-norm statistics away from their initial values, so folding
    // moves every weight and bias.
    let x = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
    for _ in 0..3 {
        net.forward(&x, Mode::Train).unwrap();
    }
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &x)
        .unwrap();
    let path = std::env::temp_dir().join(format!("tcl-resnet-{}.tclk", std::process::id()));
    tcl_core::save_model(&path, &net, &conversion, &[3, 8, 8]).unwrap();
    let model = tcl_core::load_model(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let (nodes, reloaded) = (conversion.snn.nodes(), model.conversion.snn.nodes());
    assert_eq!(nodes.len(), reloaded.len());
    assert!(nodes.iter().any(|n| n.kind_name() == "residual"));
    for (i, (a, b)) in nodes.iter().zip(reloaded).enumerate() {
        // `Debug` prints every weight, bias, threshold and NS/OS tap in its
        // shortest round-trip form: equal text is equal bits without NaNs.
        let (a, b) = (format!("{a:?}"), format!("{b:?}"));
        assert!(!a.contains("NaN"), "node {i}");
        assert!(a == b, "node {i} differs after a reload");
    }
}
