//! # tcl-snn
//!
//! An integrate-and-fire spiking neural network simulator, built as the
//! execution substrate for the TCL ANN-to-SNN reproduction (Ho & Chang,
//! DAC 2021).
//!
//! The model is exactly the paper's Section 2: IF neurons (Eqs. 1–2) with
//! reset-by-subtraction (Eq. 3, [`ResetMode::Subtract`]; reset-to-zero is
//! provided for the information-loss ablation), analog "real-coded" input at
//! the first layer, average pooling applied directly to spike trains, and a
//! spike-count classification readout ([`Readout::SpikeCount`]).
//!
//! Networks are built from [`SpikingNode`]s — ordinary spiking layers,
//! stateless pooling/flatten transforms, and the converted residual block
//! [`SpikingResidual`] with its NS/OS dual-input structure (the paper's
//! Figure 3C). The `tcl-core` crate produces [`SpikingNetwork`]s from
//! trained ANNs; [`evaluate`] sweeps them over latency checkpoints, and the
//! persistent [`Engine`] amortizes worker setup across repeated sweeps and
//! adds per-sample early exit ([`ExitPolicy::Adaptive`]). Both step their
//! batches on [`LaneEngine`], the one stepping loop, which also serves
//! samples one at a time.
//!
//! ## Example: rate coding in one layer
//!
//! ```
//! use tcl_snn::{evaluate, IfNeurons, Readout, ResetMode, SimConfig,
//!               SpikingLayer, SpikingNetwork, SpikingNode, SynapticOp};
//! use tcl_tensor::Tensor;
//!
//! // One identity layer: spike rates mirror the analog inputs.
//! let layer = SpikingLayer::new(
//!     SynapticOp::linear(Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0])?, None)?,
//!     IfNeurons::new(1.0, ResetMode::Subtract),
//! );
//! let mut net = SpikingNetwork::new(vec![SpikingNode::Spiking(layer)]);
//! let images = Tensor::from_vec([2, 2], vec![0.9, 0.1, 0.1, 0.9])?;
//! let cfg = SimConfig::new(vec![50], 2, Readout::SpikeCount)?;
//! let sweep = evaluate(&net, &images, &[0, 1], &cfg)?;
//! assert_eq!(sweep.final_accuracy(), 1.0);
//! # Ok::<(), tcl_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod lanes;
mod network;
mod neuron;
mod node;
mod sim;
mod synop;
mod trace;

pub use engine::{Engine, EngineResult, ExitPolicy};
pub use lanes::{LaneEngine, LaneId, LaneOutput};
pub use network::{Drive, SpikingNetwork};
pub use neuron::{IfNeurons, ResetMode};
pub use node::{SpikingLayer, SpikingNode, SpikingResidual};
pub use sim::{evaluate, InputCoding, Readout, SimConfig, SweepResult};
pub use synop::{ConvSynapse, CurrentPath, LinearSynapse, SynapticOp};
pub use trace::{trace_activity, ActivityTrace, MarginTrace};
