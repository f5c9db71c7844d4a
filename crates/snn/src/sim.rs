//! Batched SNN evaluation with latency checkpoints.

use crate::engine::{Engine, ExitPolicy};
use crate::network::SpikingNetwork;
use serde::{Deserialize, Serialize};
use tcl_tensor::{par, Result, Tensor, TensorError};

/// How class scores are read out of the output layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Readout {
    /// Count output spikes and take the argmax (the paper's choice,
    /// Section 3.1: "we simply count the number of spiking signals and take
    /// the maximum").
    #[default]
    SpikeCount,
    /// Total integrated current of the output neurons
    /// (`V + V_thr · spike_count` under reset-by-subtraction): a smoother
    /// readout common in conversion toolkits, provided for ablation.
    Membrane,
}

/// How the analog stimulus is injected into the first layer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum InputCoding {
    /// "Real coding" (Section 3.1, the paper's choice): the analog image is
    /// applied as a constant input current at every timestep. The image
    /// does not change, so neither does node 0's synaptic current: the
    /// engines compute it once per sample ([`SpikingNetwork::drive`]) and
    /// feed it to every step.
    #[default]
    Analog,
    /// Stochastic rate coding in the style of Sengupta et al. 2019: each
    /// pixel emits a signed unit impulse with probability proportional to
    /// its magnitude (clamped to 1). Noisier, hence slower to converge —
    /// provided for the classical-input-scheme comparison.
    Poisson {
        /// Seed for the per-step Bernoulli draws (per-batch derived).
        seed: u64,
    },
}

/// Configuration for [`evaluate`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Latency checkpoints (in timesteps) at which accuracy is recorded;
    /// simulation runs to the largest value. Must be nonempty, sorted, and
    /// nonzero.
    pub checkpoints: Vec<usize>,
    /// Mini-batch size for stimulus presentation.
    pub batch_size: usize,
    /// Output readout rule.
    pub readout: Readout,
    /// Input injection scheme (defaults to [`InputCoding::Analog`]).
    pub input_coding: InputCoding,
}

impl SimConfig {
    /// Creates a configuration, validating the checkpoint list.
    ///
    /// # Errors
    ///
    /// Returns an error if `checkpoints` is empty, unsorted, or contains 0,
    /// or if `batch_size` is 0.
    pub fn new(checkpoints: Vec<usize>, batch_size: usize, readout: Readout) -> Result<Self> {
        let config = SimConfig {
            checkpoints,
            batch_size,
            readout,
            input_coding: InputCoding::Analog,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the invariants [`SimConfig::new`] establishes. All fields are
    /// public (so configs can be literal-constructed and deserialized), which
    /// means a config can reach [`evaluate`] without ever passing through
    /// `new` — the evaluators therefore re-validate instead of panicking on
    /// an empty or unsorted checkpoint list.
    ///
    /// # Errors
    ///
    /// Returns an error if `checkpoints` is empty, unsorted, or contains 0,
    /// or if `batch_size` is 0.
    pub fn validate(&self) -> Result<()> {
        if self.checkpoints.is_empty() {
            return Err(TensorError::InvalidArgument {
                detail: "at least one checkpoint required".into(),
            });
        }
        if self.checkpoints[0] == 0 || self.checkpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TensorError::InvalidArgument {
                detail: "checkpoints must be strictly increasing and nonzero".into(),
            });
        }
        if self.batch_size == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "batch size must be nonzero".into(),
            });
        }
        Ok(())
    }

    /// Switches the input injection scheme.
    pub fn with_input_coding(mut self, input_coding: InputCoding) -> Self {
        self.input_coding = input_coding;
        self
    }

    /// The paper's Table 1 latency grid: T ∈ {50, 100, 150, 200, 250}.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn table1(batch_size: usize) -> Result<Self> {
        Self::new(
            vec![50, 100, 150, 200, 250],
            batch_size,
            Readout::SpikeCount,
        )
    }
}

/// Accuracy at each latency checkpoint, plus spike-activity statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// `(timesteps, accuracy)` pairs in checkpoint order.
    pub accuracies: Vec<(usize, f32)>,
    /// Average spikes emitted per neuron per timestep (activity/energy
    /// proxy), averaged over all presentations.
    pub mean_firing_rate: f32,
    /// Total spikes across the run.
    pub total_spikes: u64,
    /// Number of samples evaluated.
    pub samples: usize,
}

impl SweepResult {
    /// Accuracy at latency `t`, if `t` was a checkpoint.
    pub fn accuracy_at(&self, t: usize) -> Option<f32> {
        self.accuracies
            .iter()
            .find(|(ct, _)| *ct == t)
            .map(|(_, a)| *a)
    }

    /// The last (largest-latency) accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.accuracies.last().map_or(0.0, |(_, a)| *a)
    }
}

/// Evaluates SNN classification accuracy over a latency sweep.
///
/// For every mini-batch the network is reset, the stimulus is presented
/// for `max(checkpoints)` timesteps (under analog coding as node 0's
/// current, computed once per batch), output spikes are accumulated, and
/// predictions are recorded at each checkpoint.
///
/// Mini-batches are independent presentations (the network is reset between
/// them), so they run in parallel: this is a one-shot wrapper over the
/// persistent [`Engine`] with early exit off, and each engine worker
/// simulates batches on its own clone of the network with the per-batch
/// tallies folded in batch order. The result is bitwise identical to a
/// serial sweep for every thread count; set `TCL_THREADS=1` to force serial
/// execution. Callers evaluating the same network repeatedly should hold an
/// [`Engine`] and use [`Engine::evaluate_shared`] to keep the per-worker
/// replicas across calls.
///
/// # Errors
///
/// Returns an error for invalid configuration, empty/mismatched data, or
/// network shape failures. With multiple failing batches, the error of the
/// earliest batch is returned.
///
/// # Examples
///
/// See the crate-level example, which builds a one-layer network and runs a
/// sweep.
pub fn evaluate(
    net: &SpikingNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &SimConfig,
) -> Result<SweepResult> {
    let n = images.dims().first().copied().unwrap_or(0);
    let max_t = config.checkpoints.last().copied().unwrap_or(0);
    let batch_count = n.div_ceil(config.batch_size.max(1));
    let _span = tcl_telemetry::span_with("snn.evaluate", || {
        vec![
            ("samples", n as f64),
            ("max_t", max_t as f64),
            ("batches", batch_count as f64),
        ]
    });
    let mut engine = Engine::with_threads(par::current().threads());
    engine
        .evaluate(net, images, labels, config, ExitPolicy::Off)
        .map(|r| r.sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{IfNeurons, ResetMode};
    use crate::node::{SpikingLayer, SpikingNode};
    use crate::synop::SynapticOp;

    /// A 2-class "network" whose weights copy the input features, so the
    /// larger feature wins once enough spikes accumulate.
    fn copy_net() -> SpikingNetwork {
        SpikingNetwork::new(vec![SpikingNode::Spiking(SpikingLayer::new(
            SynapticOp::linear(
                Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
                None,
            )
            .unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        ))])
    }

    fn toy_data() -> (Tensor, Vec<usize>) {
        // Feature 0 dominant → class 0; feature 1 dominant → class 1.
        let images =
            Tensor::from_vec([4, 2], vec![0.9, 0.1, 0.8, 0.3, 0.2, 0.7, 0.05, 0.6]).unwrap();
        (images, vec![0, 0, 1, 1])
    }

    #[test]
    fn accuracy_improves_with_latency_and_reaches_one() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![2, 50], 2, Readout::SpikeCount).unwrap();
        let result = evaluate(&net, &x, &y, &cfg).unwrap();
        let early = result.accuracy_at(2).unwrap();
        let late = result.accuracy_at(50).unwrap();
        assert!(late >= early);
        assert_eq!(late, 1.0, "{result:?}");
        assert_eq!(result.samples, 4);
        assert!(result.total_spikes > 0);
        assert!(result.mean_firing_rate > 0.0 && result.mean_firing_rate <= 1.0);
    }

    #[test]
    fn membrane_readout_is_accurate_even_at_t1() {
        let net = copy_net();
        let (x, y) = toy_data();
        let cfg = SimConfig::new(vec![1], 4, Readout::Membrane).unwrap();
        let result = evaluate(&net, &x, &y, &cfg).unwrap();
        // After one step the membrane equals the analog input exactly.
        assert_eq!(result.final_accuracy(), 1.0);
    }

    #[test]
    fn config_validation_rejects_bad_checkpoints() {
        assert!(SimConfig::new(vec![], 1, Readout::SpikeCount).is_err());
        assert!(SimConfig::new(vec![0, 5], 1, Readout::SpikeCount).is_err());
        assert!(SimConfig::new(vec![5, 5], 1, Readout::SpikeCount).is_err());
        assert!(SimConfig::new(vec![5, 3], 1, Readout::SpikeCount).is_err());
        assert!(SimConfig::new(vec![5], 0, Readout::SpikeCount).is_err());
        assert!(SimConfig::table1(8).is_ok());
    }

    #[test]
    fn evaluate_validates_data() {
        let net = copy_net();
        let cfg = SimConfig::new(vec![5], 2, Readout::SpikeCount).unwrap();
        let x = Tensor::zeros([2, 2]);
        assert!(evaluate(&net, &x, &[0], &cfg).is_err());
        let empty = Tensor::zeros([0, 2]);
        assert!(evaluate(&net, &empty, &[], &cfg).is_err());
    }

    #[test]
    fn batching_does_not_change_results() {
        let (x, y) = toy_data();
        let cfg_b1 = SimConfig::new(vec![30], 1, Readout::SpikeCount).unwrap();
        let cfg_b4 = SimConfig::new(vec![30], 4, Readout::SpikeCount).unwrap();
        let r1 = evaluate(&copy_net(), &x, &y, &cfg_b1).unwrap();
        let r4 = evaluate(&copy_net(), &x, &y, &cfg_b4).unwrap();
        assert_eq!(r1.accuracies, r4.accuracies);
        assert_eq!(r1.total_spikes, r4.total_spikes);
    }
}

#[cfg(test)]
mod input_coding_tests {
    use super::*;
    use crate::neuron::{IfNeurons, ResetMode};
    use crate::node::{SpikingLayer, SpikingNode};
    use crate::synop::SynapticOp;

    fn identity_net() -> SpikingNetwork {
        SpikingNetwork::new(vec![SpikingNode::Spiking(SpikingLayer::new(
            SynapticOp::linear(
                Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap(),
                None,
            )
            .unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        ))])
    }

    fn toy() -> (Tensor, Vec<usize>) {
        (
            Tensor::from_vec([4, 2], vec![0.9, 0.1, 0.8, 0.2, 0.1, 0.9, 0.2, 0.8]).unwrap(),
            vec![0, 0, 1, 1],
        )
    }

    #[test]
    fn poisson_coding_reaches_analog_accuracy_with_enough_time() {
        let (x, y) = toy();
        let cfg = SimConfig::new(vec![400], 4, Readout::SpikeCount)
            .unwrap()
            .with_input_coding(InputCoding::Poisson { seed: 7 });
        let result = evaluate(&identity_net(), &x, &y, &cfg).unwrap();
        assert_eq!(result.final_accuracy(), 1.0, "{result:?}");
    }

    #[test]
    fn poisson_runs_are_reproducible() {
        let (x, y) = toy();
        let cfg = SimConfig::new(vec![50], 2, Readout::SpikeCount)
            .unwrap()
            .with_input_coding(InputCoding::Poisson { seed: 3 });
        let a = evaluate(&identity_net(), &x, &y, &cfg).unwrap();
        let b = evaluate(&identity_net(), &x, &y, &cfg).unwrap();
        assert_eq!(a.accuracies, b.accuracies);
        assert_eq!(a.total_spikes, b.total_spikes);
    }

    #[test]
    fn analog_converges_no_slower_than_poisson_on_short_budgets() {
        // At identical tiny T, deterministic analog input is at least as
        // accurate as the stochastic code (in expectation; the fixed seeds
        // here make it deterministic for the test).
        let (x, y) = toy();
        let analog_cfg = SimConfig::new(vec![10], 4, Readout::SpikeCount).unwrap();
        let poisson_cfg = SimConfig::new(vec![10], 4, Readout::SpikeCount)
            .unwrap()
            .with_input_coding(InputCoding::Poisson { seed: 11 });
        let analog = evaluate(&identity_net(), &x, &y, &analog_cfg).unwrap();
        let poisson = evaluate(&identity_net(), &x, &y, &poisson_cfg).unwrap();
        assert!(analog.final_accuracy() >= poisson.final_accuracy() - 0.25);
    }

    #[test]
    fn default_coding_is_analog() {
        let cfg = SimConfig::table1(8).unwrap();
        assert_eq!(cfg.input_coding, InputCoding::Analog);
    }
}
