//! The Sengupta et al. 2019 "SpikeNorm" baseline: sequential threshold
//! balancing driven by *spiking* statistics.
//!
//! Where Diehl/Rueckauer-style data-normalization scales weights from ANN
//! activation statistics, SpikeNorm leaves weights untouched and assigns
//! each layer's firing threshold from the maximum *synaptic current* the
//! layer receives while the network (with all earlier thresholds already
//! balanced) runs on calibration inputs. Because the statistics are
//! gathered from actual spike trains, the method accounts for conversion
//! artifacts layer by layer — at the cost of a sequential calibration
//! simulation that is quadratic in network depth.
//!
//! The paper's Table 1 carries Sengupta et al. rows as the
//! high-latency/high-accuracy baseline family; this module lets the same
//! harnesses produce those rows via [`crate::NormStrategy::SpikeNorm`].

use crate::error::{ConvertError, Result};
use crate::fold::fold_batch_norm;
use tcl_nn::layers::Shortcut;
use tcl_nn::{Layer, Network};
use tcl_snn::{
    IfNeurons, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode, SpikingResidual, SynapticOp,
};
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{Shape, Tensor};

/// Which neuron bank of a node is being balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bank {
    Main,
    ResidualNs,
    ResidualOs,
}

/// Emits an *unnormalized* spiking network (weights and biases copied
/// verbatim from the folded ANN; thresholds start at 1).
fn emit_unnormalized(folded: &Network, reset: ResetMode) -> Result<Vec<SpikingNode>> {
    let layers = folded.layers();
    let mut nodes = Vec::new();
    let mut i = 0usize;
    while i < layers.len() {
        match &layers[i] {
            Layer::Conv2d(conv) => {
                nodes.push(SpikingNode::Spiking(SpikingLayer::new(
                    SynapticOp::conv(
                        conv.weight.value.clone(),
                        conv.bias.as_ref().map(|b| b.value.clone()),
                        conv.geom,
                    )?,
                    IfNeurons::new(1.0, reset),
                )));
                while matches!(
                    layers.get(i + 1),
                    Some(Layer::Relu(_)) | Some(Layer::Clip(_))
                ) {
                    i += 1;
                }
            }
            Layer::Linear(linear) => {
                nodes.push(SpikingNode::Spiking(SpikingLayer::new(
                    SynapticOp::linear(
                        linear.weight.value.clone(),
                        linear.bias.as_ref().map(|b| b.value.clone()),
                    )?,
                    IfNeurons::new(1.0, reset),
                )));
                while matches!(
                    layers.get(i + 1),
                    Some(Layer::Relu(_)) | Some(Layer::Clip(_))
                ) {
                    i += 1;
                }
            }
            Layer::Residual(block) => {
                let c2_bias = block
                    .conv2
                    .bias
                    .as_ref()
                    .map(|b| b.value.clone())
                    .unwrap_or_else(|| Tensor::zeros([block.conv2.out_channels()]));
                let (sh_weight, sh_geom, sh_bias) = match &block.shortcut {
                    Shortcut::Projection { conv, .. } => (
                        conv.weight.value.clone(),
                        conv.geom,
                        conv.bias
                            .as_ref()
                            .map(|b| b.value.clone())
                            .unwrap_or_else(|| Tensor::zeros([conv.out_channels()])),
                    ),
                    Shortcut::Identity => {
                        let c = block.conv2.out_channels();
                        let mut w = Tensor::zeros([c, c, 1, 1]);
                        for ch in 0..c {
                            w.data_mut()[ch * c + ch] = 1.0;
                        }
                        (w, ConvGeometry::square(1, 1, 0)?, Tensor::zeros([c]))
                    }
                };
                nodes.push(SpikingNode::Residual(SpikingResidual {
                    ns_op: SynapticOp::conv(
                        block.conv1.weight.value.clone(),
                        block.conv1.bias.as_ref().map(|b| b.value.clone()),
                        block.conv1.geom,
                    )?,
                    ns_neurons: IfNeurons::new(1.0, reset),
                    os_main: SynapticOp::conv(
                        block.conv2.weight.value.clone(),
                        Some(c2_bias.add(&sh_bias)?),
                        block.conv2.geom,
                    )?,
                    os_shortcut: SynapticOp::conv(sh_weight, None, sh_geom)?,
                    os_neurons: IfNeurons::new(1.0, reset),
                }));
            }
            Layer::AvgPool2d(p) => nodes.push(SpikingNode::AvgPool {
                kernel: p.kernel,
                stride: p.stride,
            }),
            Layer::GlobalAvgPool(_) => nodes.push(SpikingNode::GlobalAvgPool),
            Layer::Flatten(_) => nodes.push(SpikingNode::Flatten),
            Layer::Dropout(_) => {} // identity at inference: emit nothing
            Layer::Relu(_) | Layer::Clip(_) => {
                return Err(ConvertError::Unsupported {
                    detail: format!("activation at layer {i} is not preceded by a weighted layer"),
                })
            }
            Layer::BatchNorm2d(_) => unreachable!("batch-norm was folded"),
            Layer::MaxPool2d(_) => {
                return Err(ConvertError::Unsupported {
                    detail: "max pooling has no spiking implementation".into(),
                })
            }
        }
        i += 1;
    }
    Ok(nodes)
}

/// Resets nodes `0..=k`.
fn reset_prefix(nodes: &mut [SpikingNode], k: usize) {
    for node in nodes.iter_mut().take(k + 1) {
        node.reset();
    }
}

/// Steps nodes `0..k` on `input`, returning the spikes entering node `k`.
fn step_prefix(nodes: &mut [SpikingNode], k: usize, input: &Tensor) -> Result<Tensor> {
    let mut x = input.clone();
    for node in nodes.iter_mut().take(k) {
        x = node.step(&x)?;
    }
    Ok(x)
}

/// Maximum element of a tensor, floored at zero.
fn max_positive(t: &Tensor) -> f32 {
    t.data().iter().copied().fold(0.0, f32::max)
}

/// Measures the peak input current into one bank of node `k` over a
/// calibration presentation and returns it.
fn measure_bank(
    nodes: &mut [SpikingNode],
    k: usize,
    bank: Bank,
    batch: &Tensor,
    timesteps: usize,
) -> Result<f32> {
    reset_prefix(nodes, k);
    let mut peak = 0.0f32;
    for _ in 0..timesteps {
        let x = step_prefix(nodes, k, batch)?;
        // Split borrows: node k is examined after the prefix was stepped.
        match (&mut nodes[k], bank) {
            (SpikingNode::Spiking(layer), Bank::Main) => {
                let current = layer.op.apply(&x)?;
                peak = peak.max(max_positive(&current));
                // The bank itself need not fire for its own balancing.
            }
            (SpikingNode::Residual(block), Bank::ResidualNs) => {
                let current = block.ns_op.apply(&x)?;
                peak = peak.max(max_positive(&current));
            }
            (SpikingNode::Residual(block), Bank::ResidualOs) => {
                // NS threshold is already balanced; run the NS bank to get
                // realistic NS spike trains.
                let ns_current = block.ns_op.apply(&x)?;
                let ns_spikes = block.ns_neurons.step(&ns_current)?;
                let mut os_current = block.os_main.apply(&ns_spikes)?;
                os_current.add_assign(&block.os_shortcut.apply(&x)?)?;
                peak = peak.max(max_positive(&os_current));
            }
            _ => {
                return Err(ConvertError::Calibration {
                    detail: format!("node {k} has no bank to balance"),
                })
            }
        }
    }
    Ok(peak)
}

/// Sets the threshold of one bank of node `k`.
fn set_threshold(
    nodes: &mut [SpikingNode],
    k: usize,
    bank: Bank,
    threshold: f32,
    reset: ResetMode,
) {
    let thr = if threshold > 1e-6 { threshold } else { 1.0 };
    match (&mut nodes[k], bank) {
        (SpikingNode::Spiking(layer), Bank::Main) => {
            layer.neurons = IfNeurons::new(thr, reset);
        }
        (SpikingNode::Residual(block), Bank::ResidualNs) => {
            block.ns_neurons = IfNeurons::new(thr, reset);
        }
        (SpikingNode::Residual(block), Bank::ResidualOs) => {
            block.os_neurons = IfNeurons::new(thr, reset);
        }
        _ => unreachable!("bank validated during measurement"),
    }
}

/// Converts a trained ANN with SpikeNorm threshold balancing.
///
/// Returns the spiking network plus the balanced thresholds in bank order
/// (NS before OS for residual nodes).
///
/// # Errors
///
/// As for [`crate::Converter::convert`]; additionally requires
/// `timesteps > 0`.
pub(crate) fn convert_spike_norm(
    net: &Network,
    calibration: &Tensor,
    timesteps: usize,
    calibration_batch: usize,
    reset: ResetMode,
) -> Result<(SpikingNetwork, Vec<f32>)> {
    if timesteps == 0 {
        return Err(ConvertError::Calibration {
            detail: "spike-norm needs at least one balancing timestep".into(),
        });
    }
    let n = calibration.dims().first().copied().unwrap_or(0);
    if n == 0 {
        return Err(ConvertError::Calibration {
            detail: "calibration set is empty".into(),
        });
    }
    let folded = fold_batch_norm(net)?;
    let mut nodes = emit_unnormalized(&folded, reset)?;
    let row = calibration.len() / n;
    let batch_n = calibration_batch.clamp(1, n);
    let mut bdims = calibration.dims().to_vec();
    bdims[0] = batch_n;
    let batch = Tensor::from_vec(
        Shape::new(bdims),
        calibration.data()[..batch_n * row].to_vec(),
    )?;
    let mut thresholds = Vec::new();
    // Cumulative product of balanced thresholds along the main path: the
    // incoming spike rates are scaled by 1/cum, so each bank's bias must be
    // scaled likewise before its threshold is measured — the
    // threshold-balancing analogue of Eq. 5's `b̂ = b/λ`. Without this the
    // bias current is injected at full scale every timestep while the spike
    // traffic is scaled down, which is exactly the bias-amplification
    // problem Section 3.1 of the paper describes for bias-free conversion
    // schemes.
    let mut cum = 1.0f32;
    for k in 0..nodes.len() {
        let banks: &[Bank] = match &nodes[k] {
            SpikingNode::Spiking(_) => &[Bank::Main],
            SpikingNode::Residual(_) => &[Bank::ResidualNs, Bank::ResidualOs],
            _ => &[],
        };
        for &bank in banks {
            match (&mut nodes[k], bank) {
                (SpikingNode::Spiking(layer), Bank::Main) => layer.op.scale_bias(1.0 / cum),
                (SpikingNode::Residual(block), Bank::ResidualNs) => {
                    block.ns_op.scale_bias(1.0 / cum)
                }
                (SpikingNode::Residual(block), Bank::ResidualOs) => {
                    // Main-path convention; the identity path's different
                    // cumulative scale is an inherent limitation of
                    // threshold balancing on residual nets (the paper's
                    // Section 5 algebra exists precisely to fix this).
                    block.os_main.scale_bias(1.0 / cum)
                }
                _ => unreachable!("banks listed only for weighted nodes"),
            }
            let peak = measure_bank(&mut nodes, k, bank, &batch, timesteps)?;
            set_threshold(&mut nodes, k, bank, peak, reset);
            let thr = if peak > 1e-6 { peak } else { 1.0 };
            thresholds.push(thr);
            cum *= thr;
        }
    }
    let mut snn = SpikingNetwork::new(nodes);
    snn.reset();
    Ok((snn, thresholds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{Converter, NormStrategy};
    use tcl_models::{Architecture, ModelConfig};
    use tcl_snn::{evaluate, Readout, SimConfig};
    use tcl_tensor::SeededRng;

    fn small_net(seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        let cfg = ModelConfig::new((3, 8, 8), 4).with_base_width(2);
        Architecture::Cnn6.build(&cfg, &mut rng).unwrap()
    }

    #[test]
    fn spike_norm_assigns_positive_thresholds() {
        let net = small_net(0);
        let mut rng = SeededRng::new(1);
        let calibration = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
        let (snn, thresholds) =
            convert_spike_norm(&net, &calibration, 20, 8, ResetMode::Subtract).unwrap();
        assert!(!thresholds.is_empty());
        assert!(thresholds.iter().all(|&t| t > 0.0));
        assert_eq!(
            snn.nodes()
                .iter()
                .filter(|n| matches!(n, SpikingNode::Spiking(_) | SpikingNode::Residual(_)))
                .count(),
            thresholds.len()
        );
    }

    #[test]
    fn via_converter_strategy() {
        let net = small_net(2);
        let mut rng = SeededRng::new(3);
        let calibration = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
        let conversion = Converter::new(NormStrategy::SpikeNorm)
            .convert(&net, &calibration)
            .unwrap();
        assert!(conversion.lambdas.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn spike_norm_snn_classifies_like_the_ann_at_long_latency() {
        use tcl_nn::Mode;
        let net = small_net(4);
        let mut rng = SeededRng::new(5);
        let calibration = rng.uniform_tensor([12, 3, 8, 8], -1.0, 1.0);
        let x = rng.uniform_tensor([6, 3, 8, 8], -1.0, 1.0);
        let mut ann = net.clone();
        let logits = ann.forward(&x, Mode::Eval).unwrap();
        let preds = tcl_tensor::ops::argmax_rows(&logits).unwrap();
        let conversion = Converter::new(NormStrategy::SpikeNorm)
            .convert(&net, &calibration)
            .unwrap();
        let cfg = SimConfig::new(vec![500], 6, Readout::Membrane).unwrap();
        let sweep = evaluate(&conversion.snn.clone(), &x, &preds, &cfg).unwrap();
        assert!(
            sweep.final_accuracy() >= 0.6,
            "spike-norm SNN should largely agree with the ANN, got {}",
            sweep.final_accuracy()
        );
    }

    #[test]
    fn zero_timesteps_is_rejected() {
        let net = small_net(6);
        let calibration = Tensor::zeros([2, 3, 8, 8]);
        assert!(convert_spike_norm(&net, &calibration, 0, 2, ResetMode::Subtract).is_err());
    }

    #[test]
    fn residual_networks_get_two_thresholds_per_block() {
        let mut rng = SeededRng::new(7);
        let cfg = ModelConfig::new((3, 8, 8), 4).with_base_width(2);
        let net = Architecture::ResNet20.build(&cfg, &mut rng).unwrap();
        let calibration = rng.uniform_tensor([4, 3, 8, 8], -1.0, 1.0);
        let (_, thresholds) =
            convert_spike_norm(&net, &calibration, 10, 4, ResetMode::Subtract).unwrap();
        // stem + 9 blocks × 2 + classifier = 20 banks.
        assert_eq!(thresholds.len(), 20);
    }
}
