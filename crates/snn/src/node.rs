//! Spiking network nodes.

use crate::neuron::IfNeurons;
use crate::synop::SynapticOp;
use serde::{Deserialize, Serialize};
use tcl_tensor::{ops, Result, Tensor};

/// A spiking layer: a synaptic operator feeding a bank of IF neurons.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpikingLayer {
    /// The weighted connectivity (normalized per Eq. 5).
    pub op: SynapticOp,
    /// The IF neuron bank.
    pub neurons: IfNeurons,
}

impl SpikingLayer {
    /// Creates a spiking layer.
    pub fn new(op: SynapticOp, neurons: IfNeurons) -> Self {
        SpikingLayer { op, neurons }
    }

    /// One timestep: weights the incoming spikes and integrates.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn step(&mut self, input: &Tensor) -> Result<Tensor> {
        let current = self.op.apply(input)?;
        self.neurons.step(&current)
    }
}

/// A converted residual block (the paper's Figure 3C).
///
/// The **non-identity spiking layer (NS)** corresponds to Conv1; the
/// **output spiking layer (OS)** integrates two synaptic inputs — `Ŵosn`
/// from the NS spikes (derived from Conv2) and `Ŵosi` from the block input
/// spikes (derived from ConvSh, or from the virtual identity 1×1 convolution
/// for type-A blocks). The combined bias `b̂os = (b_c2 + b_sh)/λ_out` rides
/// on the main operator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpikingResidual {
    /// NS synaptic operator (`Ŵns`).
    pub ns_op: SynapticOp,
    /// NS neuron bank.
    pub ns_neurons: IfNeurons,
    /// OS main-path operator (`Ŵosn`, carries `b̂os`).
    pub os_main: SynapticOp,
    /// OS shortcut operator (`Ŵosi`, bias-free).
    pub os_shortcut: SynapticOp,
    /// OS neuron bank.
    pub os_neurons: IfNeurons,
}

impl SpikingResidual {
    /// One timestep through NS then OS.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from either path.
    pub fn step(&mut self, input: &Tensor) -> Result<Tensor> {
        let ns_current = self.ns_op.apply(input)?;
        let ns_spikes = self.ns_neurons.step(&ns_current)?;
        let mut os_current = self.os_main.apply(&ns_spikes)?;
        os_current.add_assign(&self.os_shortcut.apply(input)?)?;
        self.os_neurons.step(&os_current)
    }

    /// Resets both neuron banks.
    pub fn reset(&mut self) {
        self.ns_neurons.reset();
        self.os_neurons.reset();
    }

    /// Compacts both banks' batch dimensions (see [`IfNeurons::retain_rows`]).
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn retain_rows(&mut self, keep: &[usize]) -> Result<()> {
        self.ns_neurons.retain_rows(keep)?;
        self.os_neurons.retain_rows(keep)
    }

    /// Appends `extra` zero-state rows to both banks (see
    /// [`IfNeurons::grow_rows`]).
    pub fn grow_rows(&mut self, extra: usize) {
        self.ns_neurons.grow_rows(extra);
        self.os_neurons.grow_rows(extra);
    }
}

/// A node of a spiking network.
///
/// Pooling, flattening, and global pooling are stateless linear transforms
/// applied directly to spike tensors — an average of unit spikes is a valid
/// (fractional) input current for the next synaptic operator.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SpikingNode {
    /// Synapses + IF neurons.
    Spiking(SpikingLayer),
    /// Converted residual block.
    Residual(SpikingResidual),
    /// 2-D average pooling over spikes.
    AvgPool {
        /// Window extent.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling over spikes.
    GlobalAvgPool,
    /// Reshape `[N, C, H, W]` spikes to `[N, C·H·W]`.
    Flatten,
}

impl SpikingNode {
    /// Advances the node one timestep.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn step(&mut self, input: &Tensor) -> Result<Tensor> {
        match self {
            SpikingNode::Spiking(layer) => layer.step(input),
            SpikingNode::Residual(block) => block.step(input),
            SpikingNode::AvgPool { kernel, stride } => ops::avg_pool2d(input, *kernel, *stride),
            SpikingNode::GlobalAvgPool => ops::global_avg_pool(input),
            SpikingNode::Flatten => {
                let (n, c, h, w) = input.shape().as_nchw()?;
                input.reshape([n, c * h * w])
            }
        }
    }

    /// Resets any neuron state.
    pub fn reset(&mut self) {
        match self {
            SpikingNode::Spiking(layer) => layer.neurons.reset(),
            SpikingNode::Residual(block) => block.reset(),
            SpikingNode::AvgPool { .. } | SpikingNode::GlobalAvgPool | SpikingNode::Flatten => {}
        }
    }

    /// Compacts any neuron state's batch dimension to the rows in `keep`
    /// (stateless nodes have no per-sample state and are no-ops).
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn retain_rows(&mut self, keep: &[usize]) -> Result<()> {
        match self {
            SpikingNode::Spiking(layer) => layer.neurons.retain_rows(keep),
            SpikingNode::Residual(block) => block.retain_rows(keep),
            SpikingNode::AvgPool { .. } | SpikingNode::GlobalAvgPool | SpikingNode::Flatten => {
                Ok(())
            }
        }
    }

    /// Appends `extra` fresh (zero-state) rows to any neuron state's batch
    /// dimension — the admission dual of [`SpikingNode::retain_rows`]
    /// (stateless nodes have no per-sample state and are no-ops).
    pub fn grow_rows(&mut self, extra: usize) {
        match self {
            SpikingNode::Spiking(layer) => layer.neurons.grow_rows(extra),
            SpikingNode::Residual(block) => block.grow_rows(extra),
            SpikingNode::AvgPool { .. } | SpikingNode::GlobalAvgPool | SpikingNode::Flatten => {}
        }
    }

    /// Short lowercase kind name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SpikingNode::Spiking(_) => "spiking",
            SpikingNode::Residual(_) => "residual",
            SpikingNode::AvgPool { .. } => "avgpool",
            SpikingNode::GlobalAvgPool => "globalavgpool",
            SpikingNode::Flatten => "flatten",
        }
    }

    /// Spikes emitted since the last reset (both banks for residual nodes).
    pub fn spikes_emitted(&self) -> u64 {
        match self {
            SpikingNode::Spiking(l) => l.neurons.spikes_emitted(),
            SpikingNode::Residual(b) => {
                b.ns_neurons.spikes_emitted() + b.os_neurons.spikes_emitted()
            }
            _ => 0,
        }
    }

    /// Number of neurons (0 until shaped by the first step; stateless nodes
    /// always report 0).
    pub fn neuron_count(&self) -> usize {
        match self {
            SpikingNode::Spiking(l) => l.neurons.shape().map_or(0, |s| s.len()),
            SpikingNode::Residual(b) => {
                b.ns_neurons.shape().map_or(0, |s| s.len())
                    + b.os_neurons.shape().map_or(0, |s| s.len())
            }
            _ => 0,
        }
    }

    /// Spikes emitted per IF bank since the last reset, in bank order
    /// (spiking layers have one bank, residual blocks two — NS then OS;
    /// stateless nodes have none). Flattening these vectors in node order
    /// yields the same ordering as the conversion's activation sites, which
    /// is what the per-layer conversion diagnostics rely on.
    pub fn spikes_per_bank(&self) -> Vec<u64> {
        match self {
            SpikingNode::Spiking(l) => vec![l.neurons.spikes_emitted()],
            SpikingNode::Residual(b) => {
                vec![b.ns_neurons.spikes_emitted(), b.os_neurons.spikes_emitted()]
            }
            _ => Vec::new(),
        }
    }

    /// Neuron count per IF bank, in the same bank order as
    /// [`SpikingNode::spikes_per_bank`] (0 until shaped by the first step).
    pub fn neurons_per_bank(&self) -> Vec<usize> {
        match self {
            SpikingNode::Spiking(l) => vec![l.neurons.shape().map_or(0, |s| s.len())],
            SpikingNode::Residual(b) => vec![
                b.ns_neurons.shape().map_or(0, |s| s.len()),
                b.os_neurons.shape().map_or(0, |s| s.len()),
            ],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::ResetMode;

    fn unit_linear(in_f: usize, out_f: usize) -> SynapticOp {
        // Identity-ish: out_f x in_f with ones on the diagonal.
        let mut w = Tensor::zeros([out_f, in_f]);
        for i in 0..out_f.min(in_f) {
            w.data_mut()[i * in_f + i] = 1.0;
        }
        SynapticOp::linear(w, None).unwrap()
    }

    #[test]
    fn spiking_layer_rate_codes_its_input() {
        let mut layer =
            SpikingLayer::new(unit_linear(1, 1), IfNeurons::new(1.0, ResetMode::Subtract));
        let x = Tensor::from_vec([1, 1], vec![0.4]).unwrap();
        let mut count = 0.0;
        for _ in 0..50 {
            count += layer.step(&x).unwrap().at(0);
        }
        assert!((count - 20.0).abs() <= 1.0);
    }

    #[test]
    fn flatten_node_reshapes_spikes() {
        let mut node = SpikingNode::Flatten;
        let x = Tensor::ones([2, 3, 2, 2]);
        let y = node.step(&x).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
    }

    #[test]
    fn avgpool_node_produces_fractional_currents() {
        let mut node = SpikingNode::AvgPool {
            kernel: 2,
            stride: 2,
        };
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let y = node.step(&x).unwrap();
        assert_eq!(y.data(), &[0.5]);
    }

    #[test]
    fn residual_identity_paths_superpose() {
        // NS path contributes nothing (zero weights); shortcut is identity,
        // so the block should rate-code its input directly.
        let zero_conv = SynapticOp::linear(Tensor::zeros([2, 2]), None).unwrap();
        let mut block = SpikingResidual {
            ns_op: zero_conv.clone(),
            ns_neurons: IfNeurons::new(1.0, ResetMode::Subtract),
            os_main: zero_conv,
            os_shortcut: unit_linear(2, 2),
            os_neurons: IfNeurons::new(1.0, ResetMode::Subtract),
        };
        let x = Tensor::from_vec([1, 2], vec![0.5, 0.25]).unwrap();
        let mut counts = [0.0f32; 2];
        for _ in 0..40 {
            let s = block.step(&x).unwrap();
            counts[0] += s.at(0);
            counts[1] += s.at(1);
        }
        assert!((counts[0] - 20.0).abs() <= 1.0, "{counts:?}");
        assert!((counts[1] - 10.0).abs() <= 1.0, "{counts:?}");
    }

    #[test]
    fn node_reset_clears_counters() {
        let mut node = SpikingNode::Spiking(SpikingLayer::new(
            unit_linear(1, 1),
            IfNeurons::new(1.0, ResetMode::Subtract),
        ));
        let x = Tensor::from_vec([1, 1], vec![2.0]).unwrap();
        node.step(&x).unwrap();
        assert_eq!(node.spikes_emitted(), 1);
        assert_eq!(node.neuron_count(), 1);
        node.reset();
        assert_eq!(node.spikes_emitted(), 0);
        assert_eq!(node.neuron_count(), 0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SpikingNode::Flatten.kind_name(), "flatten");
        assert_eq!(
            SpikingNode::AvgPool {
                kernel: 2,
                stride: 2
            }
            .kind_name(),
            "avgpool"
        );
    }
}
