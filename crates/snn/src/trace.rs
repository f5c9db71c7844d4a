//! Per-node spike-activity tracing.
//!
//! The latency/accuracy/energy trade-offs the paper discusses all reduce to
//! *when spikes arrive where*. [`trace_activity`] presents one stimulus and
//! records each node's firing rate at every timestep, which makes the
//! transient behaviour visible: deep layers stay silent until enough spikes
//! have propagated (the "spike wavefront" that dominates small-T error),
//! then settle to their rate-coded steady state.

use crate::network::SpikingNetwork;
use serde::{Deserialize, Serialize};
use tcl_telemetry::FixedHistogram;
use tcl_tensor::{Result, Tensor, TensorError};

/// A per-timestep record of each node's firing rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivityTrace {
    /// `rates[t][n]`: fraction of node `n`'s neurons that fired at step
    /// `t` (0 for stateless nodes).
    pub rates: Vec<Vec<f32>>,
    /// Node kind names, for labeling.
    pub node_kinds: Vec<String>,
}

impl ActivityTrace {
    /// Number of recorded timesteps.
    pub fn steps(&self) -> usize {
        self.rates.len()
    }

    /// Number of traced nodes.
    pub fn nodes(&self) -> usize {
        self.node_kinds.len()
    }

    /// Mean firing rate of node `n` over the whole trace, or `None` if `n`
    /// is out of range (or the trace is empty).
    pub fn mean_rate(&self, n: usize) -> Option<f32> {
        if self.rates.is_empty() || n >= self.nodes() {
            return None;
        }
        Some(self.rates.iter().map(|step| step[n]).sum::<f32>() / self.rates.len() as f32)
    }

    /// First timestep at which node `n` fired at all; `None` if it never
    /// fired or `n` is out of range.
    pub fn first_spike_step(&self, n: usize) -> Option<usize> {
        self.rates
            .iter()
            .position(|step| step.get(n).is_some_and(|&r| r > 0.0))
    }

    /// Folds node `n`'s per-step firing rates into a [`FixedHistogram`]
    /// over `[0, 1)` with `bins` buckets — the same representation the
    /// telemetry registry uses, so traced distributions and live
    /// `snn.firing_rate` metrics are directly comparable. Returns `None` if
    /// `n` is out of range.
    pub fn rate_histogram(&self, n: usize, bins: usize) -> Option<FixedHistogram> {
        if n >= self.nodes() {
            return None;
        }
        let mut hist = FixedHistogram::new(1.0, bins);
        for step in &self.rates {
            hist.record(f64::from(step[n]));
        }
        Some(hist)
    }
}

/// Aggregated per-timestep top-1 logit margins, recorded by the inference
/// engine's early-exit tracking.
///
/// At each timestep the engine computes, for every still-active sample, the
/// gap between the best and second-best readout score (the "margin" the
/// early-exit criterion watches). `MarginTrace` folds those per-sample
/// observations into a per-step mean over active samples, which makes the
/// margin trajectory — the paper's latency/accuracy trade-off seen from the
/// decision boundary — inspectable without storing `samples × T` floats.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MarginTrace {
    /// Sum of margins observed at each timestep (index 0 = step 1).
    margin_sum: Vec<f64>,
    /// Number of active samples observed at each timestep.
    active: Vec<u64>,
}

impl MarginTrace {
    /// An empty trace sized for `steps` timesteps.
    pub fn new(steps: usize) -> Self {
        MarginTrace {
            margin_sum: vec![0.0; steps],
            active: vec![0; steps],
        }
    }

    /// Number of timesteps the trace covers.
    pub fn steps(&self) -> usize {
        self.margin_sum.len()
    }

    /// Records one sample's margin at 0-indexed timestep `t`. Non-finite
    /// margins (single-class readouts) and out-of-range steps are ignored.
    pub fn record(&mut self, t: usize, margin: f32) {
        if t < self.margin_sum.len() && margin.is_finite() {
            self.margin_sum[t] += f64::from(margin);
            self.active[t] += 1;
        }
    }

    /// Folds another trace into this one (used to merge per-batch traces in
    /// batch order). Steps beyond `self`'s length extend it.
    pub fn merge(&mut self, other: &MarginTrace) {
        if other.margin_sum.len() > self.margin_sum.len() {
            self.margin_sum.resize(other.margin_sum.len(), 0.0);
            self.active.resize(other.active.len(), 0);
        }
        for (i, (&s, &n)) in other.margin_sum.iter().zip(&other.active).enumerate() {
            self.margin_sum[i] += s;
            self.active[i] += n;
        }
    }

    /// Mean margin over the samples active at 0-indexed step `t`, or `None`
    /// if no sample was active there (or `t` is out of range).
    pub fn mean_at(&self, t: usize) -> Option<f32> {
        match (self.margin_sum.get(t), self.active.get(t)) {
            (Some(&s), Some(&n)) if n > 0 => Some((s / n as f64) as f32),
            _ => None,
        }
    }

    /// Number of samples still active at 0-indexed step `t` (0 out of range).
    pub fn active_at(&self, t: usize) -> u64 {
        self.active.get(t).copied().unwrap_or(0)
    }
}

/// Presents `input` to a (reset) network for `steps` timesteps and records
/// per-node firing rates.
///
/// # Errors
///
/// Returns an error for `steps == 0` or network shape failures.
pub fn trace_activity(
    net: &mut SpikingNetwork,
    input: &Tensor,
    steps: usize,
) -> Result<ActivityTrace> {
    if steps == 0 {
        return Err(TensorError::InvalidArgument {
            detail: "trace needs at least one step".into(),
        });
    }
    net.reset();
    let node_kinds: Vec<String> = net
        .nodes()
        .iter()
        .map(|n| n.kind_name().to_string())
        .collect();
    let mut rates = Vec::with_capacity(steps);
    let mut prev_spikes: Vec<u64> = vec![0; net.len()];
    for _ in 0..steps {
        net.step(input)?;
        let spikes = net.spikes_per_node();
        let neurons = net.neurons_per_node();
        let step_rates: Vec<f32> = spikes
            .iter()
            .zip(&prev_spikes)
            .zip(&neurons)
            .map(|((&s, &p), &n)| {
                if n == 0 {
                    0.0
                } else {
                    (s - p) as f32 / n as f32
                }
            })
            .collect();
        prev_spikes = spikes;
        rates.push(step_rates);
    }
    Ok(ActivityTrace { rates, node_kinds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{IfNeurons, ResetMode};
    use crate::node::{SpikingLayer, SpikingNode};
    use crate::synop::SynapticOp;

    fn deep_net(layers: usize) -> SpikingNetwork {
        let node = || {
            SpikingNode::Spiking(SpikingLayer::new(
                SynapticOp::linear(Tensor::from_vec([1, 1], vec![1.0]).unwrap(), None).unwrap(),
                IfNeurons::new(1.0, ResetMode::Subtract),
            ))
        };
        SpikingNetwork::new((0..layers).map(|_| node()).collect())
    }

    #[test]
    fn rates_are_fractions() {
        let mut net = deep_net(3);
        let x = Tensor::from_vec([1, 1], vec![0.6]).unwrap();
        let trace = trace_activity(&mut net, &x, 50).unwrap();
        assert_eq!(trace.steps(), 50);
        for step in &trace.rates {
            for &r in step {
                assert!((0.0..=1.0).contains(&r));
            }
        }
        assert_eq!(trace.node_kinds, vec!["spiking"; 3]);
    }

    #[test]
    fn spike_wavefront_reaches_deeper_layers_later() {
        let mut net = deep_net(4);
        let x = Tensor::from_vec([1, 1], vec![0.4]).unwrap();
        let trace = trace_activity(&mut net, &x, 60).unwrap();
        let firsts: Vec<Option<usize>> = (0..4).map(|n| trace.first_spike_step(n)).collect();
        for w in firsts.windows(2) {
            let (a, b) = (w[0].unwrap(), w[1].unwrap());
            assert!(a <= b, "wavefront went backwards: {firsts:?}");
        }
        // Layer 0 fires by step ceil(1/0.4) - 1 = 2 (0-indexed).
        assert_eq!(firsts[0], Some(2));
    }

    #[test]
    fn steady_state_rate_matches_input() {
        let mut net = deep_net(2);
        let x = Tensor::from_vec([1, 1], vec![0.3]).unwrap();
        let trace = trace_activity(&mut net, &x, 200).unwrap();
        // Over a long trace, both layers fire at ~0.3.
        assert!((trace.mean_rate(0).unwrap() - 0.3).abs() < 0.02);
        assert!((trace.mean_rate(1).unwrap() - 0.3).abs() < 0.02);
    }

    #[test]
    fn out_of_range_node_index_returns_none() {
        let mut net = deep_net(2);
        let x = Tensor::from_vec([1, 1], vec![0.5]).unwrap();
        let trace = trace_activity(&mut net, &x, 10).unwrap();
        assert_eq!(trace.nodes(), 2);
        assert!(trace.mean_rate(2).is_none());
        assert!(trace.first_spike_step(2).is_none());
        assert!(trace.rate_histogram(2, 8).is_none());
        let empty = ActivityTrace {
            rates: vec![],
            node_kinds: vec!["spiking".into()],
        };
        assert!(empty.mean_rate(0).is_none());
    }

    #[test]
    fn rate_histogram_matches_mean_rate() {
        let mut net = deep_net(1);
        let x = Tensor::from_vec([1, 1], vec![0.5]).unwrap();
        let trace = trace_activity(&mut net, &x, 40).unwrap();
        let hist = trace.rate_histogram(0, 10).unwrap();
        assert_eq!(hist.total(), 40);
        let mean = trace.mean_rate(0).unwrap();
        assert!((hist.mean() - f64::from(mean)).abs() < 1e-6);
        // A single neuron's per-step rate is 0 or 1, so exactly two buckets
        // fill: the first (0.0) and the last (1.0 clamps into it).
        assert_eq!(hist.counts().iter().filter(|&&c| c > 0).count(), 2);
    }

    #[test]
    fn zero_steps_is_rejected() {
        let mut net = deep_net(1);
        let x = Tensor::from_vec([1, 1], vec![0.3]).unwrap();
        assert!(trace_activity(&mut net, &x, 0).is_err());
    }

    #[test]
    fn margin_trace_records_merges_and_averages() {
        let mut a = MarginTrace::new(3);
        a.record(0, 2.0);
        a.record(0, 4.0);
        a.record(1, 1.0);
        a.record(5, 9.0); // out of range: ignored
        a.record(2, f32::INFINITY); // non-finite: ignored
        assert_eq!(a.mean_at(0), Some(3.0));
        assert_eq!(a.mean_at(1), Some(1.0));
        assert_eq!(a.mean_at(2), None);
        assert_eq!(a.mean_at(7), None);
        assert_eq!(a.active_at(0), 2);
        let mut b = MarginTrace::new(4);
        b.record(0, 6.0);
        b.record(3, 0.5);
        a.merge(&b);
        assert_eq!(a.steps(), 4);
        assert_eq!(a.mean_at(0), Some(4.0));
        assert_eq!(a.mean_at(3), Some(0.5));
        // Merging a shorter (even empty) trace leaves the tail untouched.
        a.merge(&MarginTrace::new(0));
        assert_eq!(a.steps(), 4);
    }

    #[test]
    fn trace_resets_network_first() {
        let mut net = deep_net(1);
        let x = Tensor::from_vec([1, 1], vec![0.9]).unwrap();
        // Pollute the state, then trace; the trace must be deterministic.
        for _ in 0..7 {
            net.step(&x).unwrap();
        }
        let a = trace_activity(&mut net, &x, 20).unwrap();
        let b = trace_activity(&mut net, &x, 20).unwrap();
        assert_eq!(a.rates, b.rates);
    }
}
