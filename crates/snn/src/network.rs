//! The spiking network container.

use crate::node::SpikingNode;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use tcl_tensor::{simd, Result, Shape, Tensor, TensorError};

/// A feed-forward spiking network produced by ANN-to-SNN conversion.
///
/// The first node receives the **analog** stimulus ("real coding",
/// Section 3.1): the input image acts as a constant input current rather
/// than being converted to a Poisson spike train, exactly as in Rueckauer
/// et al. 2017 and the paper. Because the stimulus is constant, so is node
/// 0's synaptic current: [`SpikingNetwork::drive`] computes it once per
/// presentation and [`SpikingNetwork::step_driven`] advances the network on
/// it, while [`SpikingNetwork::step`] still does both on every call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpikingNetwork {
    nodes: Vec<SpikingNode>,
}

/// What node 0 reads on every timestep of a presentation, computed once by
/// [`SpikingNetwork::drive`]: node 0's synaptic current `Ŵ₀·x + b̂₀` when
/// node 0 is a [`SpikingNode::Spiking`] layer, otherwise the stimulus
/// itself (borrowed, not copied).
///
/// Convolutions, pools and IF banks compute each batch row on its own, so a
/// row of the drive carries the bits a per-step recompute of that row
/// would. The engines keep one drive per batch of lanes: they gather its
/// rows when lanes retire and append rows when lanes are admitted.
#[derive(Debug, Clone)]
pub struct Drive<'a> {
    /// Node 0's current, or the stimulus, `[rows, ...]`.
    current: Cow<'a, Tensor>,
    /// Node 0's synaptic operations per row and timestep; `None` when node
    /// 0 is not a spiking layer (its own step counts them then). Kept so the
    /// `snn.synops` counter still counts node 0 on every step.
    synops: Option<Vec<u64>>,
}

impl Drive<'_> {
    /// A drive of the listed rows, in order (the early-exit compaction).
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub(crate) fn gather(&self, rows: &[usize]) -> Result<Drive<'static>> {
        let current = gather_lanes(&self.current, rows)?;
        Ok(Drive {
            current: Cow::Owned(current),
            synops: self
                .synops
                .as_ref()
                .map(|s| rows.iter().map(|&r| s[r]).collect()),
        })
    }

    /// Appends `other`'s rows after this drive's (lane admission).
    ///
    /// # Errors
    ///
    /// Returns an error if the row shapes differ, or one drive counts node
    /// 0's synaptic operations and the other does not.
    pub(crate) fn append(&mut self, other: &Drive<'_>) -> Result<()> {
        let mut dims = self.current.dims().to_vec();
        if dims.get(1..) != other.current.dims().get(1..)
            || self.synops.is_some() != other.synops.is_some()
        {
            return Err(TensorError::ShapeMismatch {
                left: dims,
                right: other.current.dims().to_vec(),
            });
        }
        dims[0] += other.current.dims()[0];
        let mut data = std::mem::replace(&mut self.current, Cow::Owned(Tensor::zeros([0])))
            .into_owned()
            .into_vec();
        data.extend_from_slice(other.current.data());
        self.current = Cow::Owned(Tensor::from_vec(Shape::new(dims), data)?);
        if let (Some(ours), Some(theirs)) = (&mut self.synops, &other.synops) {
            ours.extend_from_slice(theirs);
        }
        Ok(())
    }

    /// An owned copy (a no-op when node 0's current was computed).
    pub(crate) fn into_owned(self) -> Drive<'static> {
        Drive {
            current: Cow::Owned(self.current.into_owned()),
            synops: self.synops,
        }
    }
}

/// Gathers rows `lanes` of `data` along the first dimension.
///
/// The copy itself runs through the SIMD `gather_rows` kernel (a straight
/// bit copy at every dispatch level); bounds are validated here first so
/// callers get `Err` instead of a panic on a bad lane.
pub(crate) fn gather_lanes(data: &Tensor, lanes: &[usize]) -> Result<Tensor> {
    let dims = data.dims();
    let n = dims.first().copied().unwrap_or(0);
    if let Some(&bad) = lanes.iter().find(|&&lane| lane >= n) {
        return Err(TensorError::InvalidArgument {
            detail: format!("lane {bad} out of bounds for {n} rows"),
        });
    }
    let row = data.len() / n.max(1);
    let mut out = vec![0.0f32; lanes.len() * row];
    simd::gather_rows(simd::current(), data.data(), row, lanes, &mut out);
    let mut out_dims = dims.to_vec();
    out_dims[0] = lanes.len();
    Tensor::from_vec(Shape::new(out_dims), out)
}

/// Names the failing node in a step error.
fn node_error(i: usize, node: &SpikingNode, e: TensorError) -> TensorError {
    TensorError::InvalidArgument {
        detail: format!("node {i} ({}): {e}", node.kind_name()),
    }
}

impl SpikingNetwork {
    /// Creates a network from nodes in forward order.
    pub fn new(nodes: Vec<SpikingNode>) -> Self {
        SpikingNetwork { nodes }
    }

    /// The nodes, in forward order.
    pub fn nodes(&self) -> &[SpikingNode] {
        &self.nodes
    }

    /// Mutable access to the nodes, for harnesses that drive the network
    /// node-by-node (e.g. to measure per-layer spike traffic).
    pub fn nodes_mut(&mut self) -> &mut [SpikingNode] {
        &mut self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resets all neuron state (call between stimulus presentations).
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.reset();
        }
    }

    /// Advances the whole network one timestep with the stimulus `input`,
    /// returning the output layer's spikes. This is exactly
    /// `step_driven(&drive(input)?)`: node 0's current is recomputed on
    /// every call. A caller presenting one stimulus for many steps computes
    /// the drive once instead.
    ///
    /// # Errors
    ///
    /// Propagates shape errors, annotated with the failing node.
    pub fn step(&mut self, input: &Tensor) -> Result<Tensor> {
        let drive = self.drive(input)?;
        self.step_driven(&drive)
    }

    /// What node 0 reads for the stimulus `input` (see [`Drive`]): node 0's
    /// synaptic current when node 0 is a spiking layer, else `input`
    /// itself, borrowed. It depends only on `input` and node 0's weights,
    /// never on neuron state, so one drive serves every timestep of a
    /// constant stimulus.
    ///
    /// # Errors
    ///
    /// Propagates node 0's shape errors, annotated like [`SpikingNetwork::step`]'s.
    pub fn drive<'a>(&self, input: &'a Tensor) -> Result<Drive<'a>> {
        match self.nodes.first() {
            Some(node @ SpikingNode::Spiking(layer)) => {
                let (current, synops) = layer
                    .op
                    .current_with_synops(input)
                    .map_err(|e| node_error(0, node, e))?;
                Ok(Drive {
                    current: Cow::Owned(current),
                    synops: Some(synops),
                })
            }
            _ => Ok(Drive {
                current: Cow::Borrowed(input),
                synops: None,
            }),
        }
    }

    /// Advances the whole network one timestep on a [`Drive`] from
    /// [`SpikingNetwork::drive`], returning the output layer's spikes. A
    /// spiking node 0 integrates the drive's current directly; node 0's
    /// synaptic operations still count towards `snn.synops` on every step.
    ///
    /// # Errors
    ///
    /// Propagates shape errors, annotated with the failing node.
    pub fn step_driven(&mut self, drive: &Drive<'_>) -> Result<Tensor> {
        if tcl_telemetry::metrics_enabled() {
            if let Some(synops) = &drive.synops {
                tcl_telemetry::counter_add("snn.synops", synops.iter().sum());
            }
        }
        // Node 0 reads the drive in place; only node outputs are owned.
        let mut x: Option<Tensor> = None;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let input = x.as_ref().unwrap_or(&drive.current);
            let y = match &mut *node {
                SpikingNode::Spiking(layer) if i == 0 => layer.neurons.step(input),
                other => other.step(input),
            }
            .map_err(|e| node_error(i, node, e))?;
            x = Some(y);
        }
        Ok(x.unwrap_or_else(|| drive.current.clone().into_owned()))
    }

    /// Compacts every neuron bank's batch dimension to the rows listed in
    /// `keep` (indices into the current leading dimension, in order).
    ///
    /// This is the primitive behind the inference engine's early-exit lane
    /// compaction: retiring a sample drops its membrane row from every bank
    /// so the remaining samples simulate in a smaller batch.
    ///
    /// Convolutions, pooling and IF banks compute batch items
    /// independently, so their rows are unchanged by the compaction at
    /// every SIMD level. A linear synapse multiplies the batch as one
    /// matrix: at the `Scalar` and `Wide` levels a row's current still does
    /// not depend on its position, so the surviving samples' trajectories
    /// are bit-for-bit unchanged. At `Avx2` the blocked kernel fuses
    /// multiply-adds only for rows in full 4-row bands (see
    /// `tcl_tensor::ops::matmul`), so a sample that moves into or out of
    /// the ragged bottom rows may round differently — unless its linear
    /// inputs are binary spikes, whose products are exact. A linear layer
    /// after average pooling reads fractional inputs and is exposed.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range for a shaped bank.
    pub fn retain_rows(&mut self, keep: &[usize]) -> Result<()> {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.retain_rows(keep).map_err(|e| node_error(i, node, e))?;
        }
        Ok(())
    }

    /// Appends `extra` fresh (zero-state) rows to every neuron bank's batch
    /// dimension — the admission dual of [`SpikingNetwork::retain_rows`].
    ///
    /// A zero membrane row is bit-for-bit the state a reset bank adopts on
    /// its first step, so a grown lane simulates exactly as if it had been
    /// presented alone from step one; existing rows are untouched. That
    /// holds bitwise under the same condition as
    /// [`SpikingNetwork::retain_rows`]: at the `Scalar` and `Wide` levels,
    /// or at `Avx2` while every linear synapse reads binary spikes. This is
    /// the primitive behind the lane engine's continuous batching: new
    /// requests join the running timestep loop in lanes freed by early
    /// exit, without restarting the batch.
    pub fn grow_rows(&mut self, extra: usize) {
        for node in &mut self.nodes {
            node.grow_rows(extra);
        }
    }

    /// The final node's membrane potentials (used by the membrane readout),
    /// if the final node has neurons and at least one step has run.
    pub fn output_potential(&self) -> Option<&Tensor> {
        match self.nodes.last()? {
            SpikingNode::Spiking(l) => l.neurons.potential(),
            SpikingNode::Residual(b) => b.os_neurons.potential(),
            _ => None,
        }
    }

    /// The final node's firing threshold, if it has neurons.
    pub fn output_threshold(&self) -> Option<f32> {
        match self.nodes.last()? {
            SpikingNode::Spiking(l) => Some(l.neurons.threshold()),
            SpikingNode::Residual(b) => Some(b.os_neurons.threshold()),
            _ => None,
        }
    }

    /// Per-node spike counts since the last reset.
    pub fn spikes_per_node(&self) -> Vec<u64> {
        self.nodes.iter().map(SpikingNode::spikes_emitted).collect()
    }

    /// Per-node neuron counts (0 for stateless nodes or before shaping).
    pub fn neurons_per_node(&self) -> Vec<usize> {
        self.nodes.iter().map(SpikingNode::neuron_count).collect()
    }

    /// Total spikes since the last reset.
    pub fn total_spikes(&self) -> u64 {
        self.spikes_per_node().iter().sum()
    }

    /// Spike counts per IF bank, flattened in node order (residual blocks
    /// contribute two banks, NS then OS; stateless nodes contribute none).
    /// This ordering matches the conversion's activation-site order, so bank
    /// `i` corresponds to norm-factor `λ_i` — the mapping the per-layer
    /// conversion diagnostics depend on.
    pub fn spikes_per_bank(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .flat_map(SpikingNode::spikes_per_bank)
            .collect()
    }

    /// Neuron counts per IF bank, in the same flattened bank order as
    /// [`SpikingNetwork::spikes_per_bank`].
    pub fn neurons_per_bank(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .flat_map(SpikingNode::neurons_per_bank)
            .collect()
    }
}

impl FromIterator<SpikingNode> for SpikingNetwork {
    fn from_iter<I: IntoIterator<Item = SpikingNode>>(iter: I) -> Self {
        SpikingNetwork::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{IfNeurons, ResetMode};
    use crate::node::SpikingLayer;
    use crate::synop::SynapticOp;

    fn two_layer_net() -> SpikingNetwork {
        // Layer 1: identity 2→2; layer 2: sums both inputs into one output.
        let l1 = SpikingLayer::new(
            SynapticOp::linear(
                Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
                None,
            )
            .unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        );
        let l2 = SpikingLayer::new(
            SynapticOp::linear(Tensor::from_vec([1, 2], vec![0.5, 0.5]).unwrap(), None).unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        );
        SpikingNetwork::new(vec![SpikingNode::Spiking(l1), SpikingNode::Spiking(l2)])
    }

    #[test]
    fn step_propagates_through_all_nodes() {
        let mut net = two_layer_net();
        let x = Tensor::from_vec([1, 2], vec![0.8, 0.8]).unwrap();
        let mut count = 0.0;
        for _ in 0..100 {
            count += net.step(&x).unwrap().at(0);
        }
        // Layer 1 fires at rate ~0.8 on both neurons; layer 2 input ≈ 0.8.
        assert!((count - 80.0).abs() <= 3.0, "count {count}");
    }

    #[test]
    fn reset_between_presentations_clears_state() {
        let mut net = two_layer_net();
        let x = Tensor::from_vec([1, 2], vec![0.9, 0.9]).unwrap();
        for _ in 0..10 {
            net.step(&x).unwrap();
        }
        assert!(net.total_spikes() > 0);
        net.reset();
        assert_eq!(net.total_spikes(), 0);
        assert!(net.output_potential().is_none());
    }

    #[test]
    fn output_accessors_describe_final_layer() {
        let mut net = two_layer_net();
        assert_eq!(net.output_threshold(), Some(1.0));
        let x = Tensor::from_vec([1, 2], vec![0.5, 0.5]).unwrap();
        net.step(&x).unwrap();
        assert_eq!(net.output_potential().unwrap().dims(), &[1, 1]);
    }

    #[test]
    fn step_error_names_the_node() {
        let mut net = two_layer_net();
        let bad = Tensor::from_vec([1, 3], vec![0.0; 3]).unwrap();
        let err = net.step(&bad).unwrap_err();
        assert!(err.to_string().contains("node 0"), "{err}");
    }

    #[test]
    fn retain_rows_preserves_surviving_samples_bitwise() {
        // Run a 3-sample batch; in a clone, compact to samples {0, 2} after
        // step 2 and check the survivors' outputs match the full batch's.
        let x3 = Tensor::from_vec([3, 2], vec![0.8, 0.3, 0.1, 0.9, 0.6, 0.6]).unwrap();
        let x2 = Tensor::from_vec([2, 2], vec![0.8, 0.3, 0.6, 0.6]).unwrap();
        let mut full = two_layer_net();
        let mut compact = two_layer_net();
        for _ in 0..2 {
            full.step(&x3).unwrap();
            compact.step(&x3).unwrap();
        }
        compact.retain_rows(&[0, 2]).unwrap();
        for _ in 0..4 {
            let yf = full.step(&x3).unwrap();
            let yc = compact.step(&x2).unwrap();
            assert_eq!(yc.at(0), yf.at(0));
            assert_eq!(yc.at(1), yf.at(2));
        }
        assert_eq!(compact.output_potential().unwrap().dims(), &[2, 1]);
        // Out-of-range rows are rejected and name the failing node.
        let err = compact.retain_rows(&[5]).unwrap_err();
        assert!(err.to_string().contains("node 0"), "{err}");
        // Before any step there is no state, so compaction is a no-op.
        let mut fresh = two_layer_net();
        fresh.retain_rows(&[7]).unwrap();
    }

    #[test]
    fn grow_rows_admits_lanes_bitwise_identical_to_solo_runs() {
        // Run sample A alone for 3 steps, then grow a lane for sample B and
        // run both; B's outputs must match a network that only ever saw B,
        // and A's trajectory must be undisturbed by the admission.
        let xa = Tensor::from_vec([1, 2], vec![0.8, 0.3]).unwrap();
        let xb = Tensor::from_vec([1, 2], vec![0.1, 0.9]).unwrap();
        let xab = Tensor::from_vec([2, 2], vec![0.8, 0.3, 0.1, 0.9]).unwrap();
        let mut shared = two_layer_net();
        let mut solo_a = two_layer_net();
        let mut solo_b = two_layer_net();
        for _ in 0..3 {
            let ys = shared.step(&xa).unwrap();
            let ya = solo_a.step(&xa).unwrap();
            assert_eq!(ys.data(), ya.data());
        }
        shared.grow_rows(1);
        for _ in 0..5 {
            let ys = shared.step(&xab).unwrap();
            let ya = solo_a.step(&xa).unwrap();
            let yb = solo_b.step(&xb).unwrap();
            assert_eq!(ys.at(0), ya.at(0));
            assert_eq!(ys.at(1), yb.at(0));
        }
        // Growing before any step is a no-op (the first step shapes banks).
        let mut fresh = two_layer_net();
        fresh.grow_rows(4);
        assert_eq!(fresh.neurons_per_node(), vec![0, 0]);
    }

    #[test]
    fn spike_accounting_is_per_node() {
        let mut net = two_layer_net();
        let x = Tensor::from_vec([1, 2], vec![1.0, 1.0]).unwrap();
        for _ in 0..5 {
            net.step(&x).unwrap();
        }
        let per_node = net.spikes_per_node();
        assert_eq!(per_node.len(), 2);
        assert_eq!(per_node[0], 10); // 2 neurons × 5 steps at saturation
        assert_eq!(per_node[1], 5);
        assert_eq!(net.neurons_per_node(), vec![2, 1]);
    }
}
