//! The ANN-to-SNN converter: norm-factor resolution (Section 3.2 / 4) and
//! data-normalization (Eq. 5), including the residual-block algebra of
//! Section 5.

use crate::error::{ConvertError, Result};
use crate::fold::fold_batch_norm;
use crate::stats::{collect_activation_stats, count_sites};
use serde::{Deserialize, Serialize};
use tcl_nn::layers::Shortcut;
use tcl_nn::{Layer, Network};
use tcl_snn::{
    IfNeurons, ResetMode, SpikingLayer, SpikingNetwork, SpikingNode, SpikingResidual, SynapticOp,
};
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::Tensor;

/// How per-layer norm-factors `λ_l` (Eq. 5) are decided.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NormStrategy {
    /// Maximum activation over the calibration set (Diehl et al. 2015).
    /// Lossless but produces very large latency — the paper's motivating
    /// baseline.
    MaxActivation,
    /// Activation percentile over the calibration set (Rueckauer et
    /// al. 2017 use 0.999). Lower latency, but clips real signal when the
    /// distribution is wide.
    Percentile(f32),
    /// The trained clipping bound λ of each TCL layer (the paper's
    /// technique, Section 4). Requires a network trained with clipping
    /// layers.
    TrainedClip,
    /// Sequential spike-driven threshold balancing (Sengupta et al. 2019).
    /// Weights stay unscaled; each layer's threshold is the peak synaptic
    /// current observed while simulating calibration inputs with earlier
    /// layers already balanced. See [`crate::Converter::with_spike_norm_steps`].
    SpikeNorm,
}

impl NormStrategy {
    /// The Rueckauer et al. 99.9th-percentile baseline.
    pub fn percentile_999() -> Self {
        NormStrategy::Percentile(0.999)
    }

    /// Display name used by harness tables.
    pub fn name(&self) -> String {
        match self {
            NormStrategy::MaxActivation => "max-norm".to_string(),
            NormStrategy::Percentile(p) => format!("p{:.1}%", p * 100.0),
            NormStrategy::TrainedClip => "tcl".to_string(),
            NormStrategy::SpikeNorm => "spike-norm".to_string(),
        }
    }
}

/// A completed conversion: the spiking network plus the resolved per-site
/// norm-factors (useful for diagnostics and the paper's Figure 1 markers).
#[derive(Debug, Clone)]
pub struct Conversion {
    /// The converted spiking network (all thresholds are 1 in normalized
    /// units).
    pub snn: SpikingNetwork,
    /// Resolved norm-factors, one per activation site in walk order; the
    /// last entry is the output site.
    pub lambdas: Vec<f32>,
    /// The strategy that produced them.
    pub strategy: NormStrategy,
}

/// Converts trained ANNs to spiking networks.
///
/// The pipeline is the paper's Section 3–5:
///
/// 1. fold batch-norm into the preceding convolutions (Eq. 7);
/// 2. decide one norm-factor per activation site ([`NormStrategy`]);
/// 3. rescale weights `Ŵ = W·λ_pre/λ` and biases `b̂ = b/λ` (Eq. 5), with the
///    dual-path OS algebra for residual blocks (Section 5);
/// 4. emit IF spiking layers with threshold 1 and the configured reset mode.
///
/// # Examples
///
/// ```
/// use tcl_core::{Converter, NormStrategy};
/// use tcl_models::{Architecture, ModelConfig};
/// use tcl_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let cfg = ModelConfig::new((3, 8, 8), 4)
///     .with_base_width(2)
///     .with_clip_lambda(Some(2.0));
/// let net = Architecture::Cnn6.build(&cfg, &mut rng)?;
/// let calibration = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
/// let conversion = Converter::new(NormStrategy::TrainedClip)
///     .convert(&net, &calibration)?;
/// assert_eq!(conversion.lambdas.len(), 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Converter {
    /// Norm-factor strategy.
    pub strategy: NormStrategy,
    /// Neuron reset behaviour (the paper uses reset-by-subtraction).
    pub reset_mode: ResetMode,
    /// Batch size for calibration forward passes.
    pub calibration_batch: usize,
    /// Balancing timesteps per layer for [`NormStrategy::SpikeNorm`].
    pub spike_norm_steps: usize,
}

impl Converter {
    /// Creates a converter with reset-by-subtraction and calibration batch
    /// size 32.
    pub fn new(strategy: NormStrategy) -> Self {
        Converter {
            strategy,
            reset_mode: ResetMode::Subtract,
            calibration_batch: 32,
            spike_norm_steps: 30,
        }
    }

    /// Sets the neuron reset mode.
    pub fn with_reset_mode(mut self, reset_mode: ResetMode) -> Self {
        self.reset_mode = reset_mode;
        self
    }

    /// Sets the calibration batch size.
    pub fn with_calibration_batch(mut self, batch: usize) -> Self {
        self.calibration_batch = batch.max(1);
        self
    }

    /// Sets the per-layer balancing duration for [`NormStrategy::SpikeNorm`].
    pub fn with_spike_norm_steps(mut self, steps: usize) -> Self {
        self.spike_norm_steps = steps.max(1);
        self
    }

    /// Converts a trained ANN into a spiking network.
    ///
    /// `calibration` is a tensor of input stimuli (typically a few hundred
    /// training images) used to measure activation statistics; it is
    /// required for every strategy because the output layer's norm-factor
    /// is always statistics-derived.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError::Unsupported`] for max pooling or a
    /// classifier with a trailing activation, [`ConvertError::MissingClip`]
    /// when [`NormStrategy::TrainedClip`] meets a clip-less site, and
    /// calibration errors for empty input.
    pub fn convert(&self, net: &Network, calibration: &Tensor) -> Result<Conversion> {
        let _span = tcl_telemetry::span_with("convert", || {
            vec![
                ("layers", net.layers().len() as f64),
                (
                    "calib",
                    calibration.dims().first().copied().unwrap_or(0) as f64,
                ),
            ]
        });
        validate_convertible(net)?;
        if self.strategy == NormStrategy::SpikeNorm {
            let (snn, thresholds) = crate::spikenorm::convert_spike_norm(
                net,
                calibration,
                self.spike_norm_steps,
                self.calibration_batch,
                self.reset_mode,
            )?;
            record_lambda_gauges(&thresholds);
            return Ok(Conversion {
                snn,
                lambdas: thresholds,
                strategy: self.strategy,
            });
        }
        let folded = fold_batch_norm(net)?;
        let mut stats_net = folded.clone();
        let mut stats =
            collect_activation_stats(&mut stats_net, calibration, self.calibration_batch)?;
        let lambdas = self.resolve_lambdas(&folded, &mut stats)?;
        record_lambda_gauges(&lambdas);
        let snn = emit_spiking(&folded, &lambdas, self.reset_mode)?;
        Ok(Conversion {
            snn,
            lambdas,
            strategy: self.strategy,
        })
    }

    /// Resolves one λ per site (hidden sites per strategy; output site from
    /// the maximum positive logit).
    fn resolve_lambdas(
        &self,
        folded: &Network,
        stats: &mut [crate::stats::SiteStats],
    ) -> Result<Vec<f32>> {
        let clips = site_clip_bounds(folded);
        let sites = count_sites(folded);
        debug_assert_eq!(stats.len(), sites);
        debug_assert_eq!(clips.len(), sites - 1);
        let mut lambdas = Vec::with_capacity(sites);
        for site in 0..sites - 1 {
            let lam = match self.strategy {
                NormStrategy::TrainedClip => {
                    clips[site].ok_or_else(|| ConvertError::MissingClip {
                        detail: format!("activation site {site} has no clipping layer"),
                    })?
                }
                NormStrategy::MaxActivation => stats[site].max(),
                NormStrategy::Percentile(p) => {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(ConvertError::Calibration {
                            detail: format!("percentile {p} outside [0, 1]"),
                        });
                    }
                    stats[site].quantile(p)
                }
                NormStrategy::SpikeNorm => {
                    unreachable!("spike-norm is dispatched before λ resolution")
                }
            };
            // A dead site (all-zero activations) would produce λ = 0 and a
            // division by zero; treat it as unit scale.
            lambdas.push(if lam > 1e-6 { lam } else { 1.0 });
        }
        let out = stats[sites - 1].max();
        lambdas.push(if out > 1e-6 { out } else { 1.0 });
        Ok(lambdas)
    }
}

/// Publishes the resolved per-site norm-factors as indexed telemetry gauges
/// (`convert.lambda[i]`), so any run with `TCL_METRICS` set can inspect the
/// thresholds a conversion actually used.
fn record_lambda_gauges(lambdas: &[f32]) {
    if !tcl_telemetry::metrics_enabled() {
        return;
    }
    for (i, &lam) in lambdas.iter().enumerate() {
        tcl_telemetry::gauge_set_indexed("convert.lambda", i, f64::from(lam));
    }
}

/// Rejects constructs with no spiking equivalent before any work is done.
fn validate_convertible(net: &Network) -> Result<()> {
    if net.is_empty() {
        return Err(ConvertError::Unsupported {
            detail: "empty network".into(),
        });
    }
    for layer in net.layers() {
        if matches!(layer, Layer::MaxPool2d(_)) {
            return Err(ConvertError::Unsupported {
                detail: "max pooling has no spiking implementation; \
                         build the model with average pooling (Section 3.1)"
                    .into(),
            });
        }
    }
    match net.layers().last() {
        Some(Layer::Linear(_)) | Some(Layer::Conv2d(_)) => Ok(()),
        Some(other) => Err(ConvertError::Unsupported {
            detail: format!(
                "the network must end in a bare classifier layer for the \
                 spike-count readout, found {}",
                other.kind_name()
            ),
        }),
        None => unreachable!("checked non-empty"),
    }
}

/// Per-hidden-site clip bounds (None where a site has no clipping layer),
/// in the same order as the stats walker.
fn site_clip_bounds(net: &Network) -> Vec<Option<f32>> {
    let mut out = Vec::new();
    let layers = net.layers();
    let mut i = 0usize;
    while i < layers.len() {
        match &layers[i] {
            Layer::Relu(_) => {
                if let Some(Layer::Clip(c)) = layers.get(i + 1) {
                    out.push(Some(c.lambda_value()));
                    i += 1;
                } else {
                    out.push(None);
                }
            }
            Layer::Clip(c) => out.push(Some(c.lambda_value())),
            Layer::Residual(r) => {
                out.push(r.clip1.as_ref().map(|c| c.lambda_value()));
                out.push(r.clip_out.as_ref().map(|c| c.lambda_value()));
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Scales a weight tensor by `factor`.
fn scaled(weight: &Tensor, factor: f32) -> Tensor {
    weight.scale(factor)
}

/// Builds the virtual identity 1×1 convolution of a type-A residual block
/// (Section 5): `channels → channels`, unit diagonal kernel.
fn identity_conv_weight(channels: usize) -> Tensor {
    let mut w = Tensor::zeros([channels, channels, 1, 1]);
    for c in 0..channels {
        w.data_mut()[c * channels + c] = 1.0;
    }
    w
}

/// Emits the spiking network from a BN-folded ANN and resolved λs.
fn emit_spiking(folded: &Network, lambdas: &[f32], reset: ResetMode) -> Result<SpikingNetwork> {
    let layers = folded.layers();
    let mut nodes: Vec<SpikingNode> = Vec::new();
    let mut lam_prev = 1.0f32; // real-coded analog input is unscaled
    let mut site = 0usize;
    let hidden_sites = lambdas.len() - 1;
    let mut i = 0usize;
    while i < layers.len() {
        match &layers[i] {
            Layer::Conv2d(conv) => {
                let has_activation = matches!(
                    layers.get(i + 1),
                    Some(Layer::Relu(_)) | Some(Layer::Clip(_))
                );
                let lam = if has_activation {
                    let l = *lambdas.get(site).ok_or_else(|| site_underflow(site))?;
                    site += 1;
                    l
                } else if i + 1 == layers.len() {
                    lambdas[hidden_sites]
                } else {
                    return Err(ConvertError::Unsupported {
                        detail: format!("convolution at layer {i} has no following activation"),
                    });
                };
                nodes.push(SpikingNode::Spiking(SpikingLayer::new(
                    SynapticOp::conv(
                        scaled(&conv.weight.value, lam_prev / lam),
                        conv.bias.as_ref().map(|b| b.value.scale(1.0 / lam)),
                        conv.geom,
                    )?,
                    IfNeurons::new(1.0, reset),
                )));
                lam_prev = lam;
                // Skip the consumed activation layers.
                while matches!(
                    layers.get(i + 1),
                    Some(Layer::Relu(_)) | Some(Layer::Clip(_))
                ) {
                    i += 1;
                }
            }
            Layer::Linear(linear) => {
                let has_activation = matches!(
                    layers.get(i + 1),
                    Some(Layer::Relu(_)) | Some(Layer::Clip(_))
                );
                let lam = if has_activation {
                    let l = *lambdas.get(site).ok_or_else(|| site_underflow(site))?;
                    site += 1;
                    l
                } else if i + 1 == layers.len() {
                    lambdas[hidden_sites]
                } else {
                    return Err(ConvertError::Unsupported {
                        detail: format!("linear layer at {i} has no following activation"),
                    });
                };
                nodes.push(SpikingNode::Spiking(SpikingLayer::new(
                    SynapticOp::linear(
                        scaled(&linear.weight.value, lam_prev / lam),
                        linear.bias.as_ref().map(|b| b.value.scale(1.0 / lam)),
                    )?,
                    IfNeurons::new(1.0, reset),
                )));
                lam_prev = lam;
                while matches!(
                    layers.get(i + 1),
                    Some(Layer::Relu(_)) | Some(Layer::Clip(_))
                ) {
                    i += 1;
                }
            }
            Layer::Residual(block) => {
                let lam_pre = lam_prev;
                let lam_c1 = *lambdas.get(site).ok_or_else(|| site_underflow(site))?;
                let lam_out = *lambdas.get(site + 1).ok_or_else(|| site_underflow(site))?;
                site += 2;
                // NS (from Conv1): Ŵns = W_c1 · λ_pre/λ_c1, b̂ns = b_c1/λ_c1.
                let ns_op = SynapticOp::conv(
                    scaled(&block.conv1.weight.value, lam_pre / lam_c1),
                    block
                        .conv1
                        .bias
                        .as_ref()
                        .map(|b| b.value.scale(1.0 / lam_c1)),
                    block.conv1.geom,
                )?;
                // OS main (from Conv2): Ŵosn = W_c2 · λ_c1/λ_out.
                let c2_bias = block
                    .conv2
                    .bias
                    .as_ref()
                    .map(|b| b.value.clone())
                    .unwrap_or_else(|| Tensor::zeros([block.conv2.out_channels()]));
                // OS shortcut (from ConvSh or the virtual identity conv):
                // Ŵosi = W_sh · λ_pre/λ_out; b̂os = (b_c2 + b_sh)/λ_out.
                let (sh_weight, sh_geom, sh_bias) = match &block.shortcut {
                    Shortcut::Projection { conv, .. } => (
                        conv.weight.value.clone(),
                        conv.geom,
                        conv.bias
                            .as_ref()
                            .map(|b| b.value.clone())
                            .unwrap_or_else(|| Tensor::zeros([conv.out_channels()])),
                    ),
                    Shortcut::Identity => (
                        identity_conv_weight(block.conv2.out_channels()),
                        ConvGeometry::square(1, 1, 0)?,
                        Tensor::zeros([block.conv2.out_channels()]),
                    ),
                };
                let combined_bias = c2_bias.add(&sh_bias)?.scale(1.0 / lam_out);
                let os_main = SynapticOp::conv(
                    scaled(&block.conv2.weight.value, lam_c1 / lam_out),
                    Some(combined_bias),
                    block.conv2.geom,
                )?;
                let os_shortcut =
                    SynapticOp::conv(scaled(&sh_weight, lam_pre / lam_out), None, sh_geom)?;
                nodes.push(SpikingNode::Residual(SpikingResidual {
                    ns_op,
                    ns_neurons: IfNeurons::new(1.0, reset),
                    os_main,
                    os_shortcut,
                    os_neurons: IfNeurons::new(1.0, reset),
                }));
                lam_prev = lam_out;
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
                });
            }
            Layer::BatchNorm2d(_) => unreachable!("batch-norm was folded"),
            Layer::MaxPool2d(_) => unreachable!("max pooling rejected in validation"),
        }
        i += 1;
    }
    Ok(SpikingNetwork::new(nodes))
}

fn site_underflow(site: usize) -> ConvertError {
    ConvertError::Calibration {
        detail: format!("norm-factor list exhausted at site {site}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcl_models::{Architecture, ModelConfig, Pooling};
    use tcl_tensor::SeededRng;

    fn build(arch: Architecture, clip: Option<f32>, seed: u64) -> Network {
        let mut rng = SeededRng::new(seed);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(clip);
        arch.build(&cfg, &mut rng).unwrap()
    }

    fn calib(seed: u64) -> Tensor {
        SeededRng::new(seed).uniform_tensor([12, 3, 8, 8], -1.0, 1.0)
    }

    #[test]
    fn trained_clip_uses_clip_bounds_verbatim() {
        let net = build(Architecture::Cnn6, Some(2.0), 0);
        let conv = Converter::new(NormStrategy::TrainedClip);
        let c = conv.convert(&net, &calib(1)).unwrap();
        // 5 hidden sites at the initial λ = 2.0, one stats-derived output.
        assert_eq!(c.lambdas.len(), 6);
        for lam in &c.lambdas[..5] {
            assert!((lam - 2.0).abs() < 1e-6);
        }
        assert!(c.lambdas[5] > 0.0);
    }

    #[test]
    fn trained_clip_on_unclipped_network_fails() {
        let net = build(Architecture::Cnn6, None, 0);
        let conv = Converter::new(NormStrategy::TrainedClip);
        assert!(matches!(
            conv.convert(&net, &calib(1)),
            Err(ConvertError::MissingClip { .. })
        ));
    }

    #[test]
    fn max_norm_lambdas_bound_percentile_lambdas() {
        let net = build(Architecture::Cnn6, None, 2);
        let cal = calib(3);
        let max = Converter::new(NormStrategy::MaxActivation)
            .convert(&net, &cal)
            .unwrap();
        let pct = Converter::new(NormStrategy::percentile_999())
            .convert(&net, &cal)
            .unwrap();
        for (m, p) in max.lambdas.iter().zip(&pct.lambdas) {
            assert!(m + 1e-5 >= *p, "max {m} < percentile {p}");
        }
    }

    #[test]
    fn node_structure_mirrors_ann_structure() {
        let net = build(Architecture::Cnn6, Some(2.0), 4);
        let c = Converter::new(NormStrategy::TrainedClip)
            .convert(&net, &calib(5))
            .unwrap();
        let kinds: Vec<&str> = c.snn.nodes().iter().map(|n| n.kind_name()).collect();
        assert_eq!(
            kinds,
            vec![
                "spiking", "spiking", "avgpool", "spiking", "spiking", "avgpool", "flatten",
                "spiking", "spiking"
            ]
        );
    }

    #[test]
    fn resnet_conversion_emits_residual_nodes() {
        let net = build(Architecture::ResNet20, Some(2.0), 6);
        let c = Converter::new(NormStrategy::TrainedClip)
            .convert(&net, &calib(7))
            .unwrap();
        let residuals = c
            .snn
            .nodes()
            .iter()
            .filter(|n| n.kind_name() == "residual")
            .count();
        assert_eq!(residuals, 9);
        // stem site + 18 block sites + output.
        assert_eq!(c.lambdas.len(), 20);
    }

    #[test]
    fn max_pooling_is_rejected() {
        let mut rng = SeededRng::new(8);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_pooling(Pooling::Max);
        let net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
        let err = Converter::new(NormStrategy::MaxActivation)
            .convert(&net, &calib(9))
            .unwrap_err();
        assert!(matches!(err, ConvertError::Unsupported { .. }));
    }

    #[test]
    fn invalid_percentile_is_rejected() {
        let net = build(Architecture::Cnn6, None, 10);
        let err = Converter::new(NormStrategy::Percentile(1.5))
            .convert(&net, &calib(11))
            .unwrap_err();
        assert!(matches!(err, ConvertError::Calibration { .. }));
    }

    #[test]
    fn strategy_names_for_tables() {
        assert_eq!(NormStrategy::MaxActivation.name(), "max-norm");
        assert_eq!(NormStrategy::percentile_999().name(), "p99.9%");
        assert_eq!(NormStrategy::TrainedClip.name(), "tcl");
    }

    #[test]
    fn identity_conv_weight_is_diagonal() {
        let w = identity_conv_weight(3);
        assert_eq!(w.dims(), &[3, 3, 1, 1]);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert_eq!(w.at4(i, j, 0, 0), expected);
            }
        }
    }

    #[test]
    fn empty_network_is_rejected() {
        let net = Network::new(vec![]);
        assert!(Converter::new(NormStrategy::MaxActivation)
            .convert(&net, &calib(12))
            .is_err());
    }

    #[test]
    fn trailing_activation_is_rejected() {
        use tcl_nn::layers::{Linear, Relu};
        let mut rng = SeededRng::new(13);
        let net = Network::new(vec![
            Layer::Linear(Linear::new(4, 4, true, &mut rng).unwrap()),
            Layer::Relu(Relu::new()),
        ]);
        let cal = SeededRng::new(14).uniform_tensor([4, 4], 0.0, 1.0);
        let err = Converter::new(NormStrategy::MaxActivation)
            .convert(&net, &cal)
            .unwrap_err();
        assert!(matches!(err, ConvertError::Unsupported { .. }));
    }
}
