//! # tcl-nn
//!
//! A from-scratch, layer-wise backpropagation neural-network framework built
//! for the TCL ANN-to-SNN reproduction (Ho & Chang, DAC 2021).
//!
//! The framework provides exactly what the paper's training recipe needs:
//!
//! * the standard vision layers — [`layers::Conv2d`], [`layers::Linear`],
//!   [`layers::BatchNorm2d`], pooling, flatten, and the composite
//!   [`layers::ResidualBlock`] (He et al. 2016, Section 5 of the paper);
//! * the paper's contribution as a first-class layer: [`layers::Clip`], the
//!   **trainable clipping layer** of Eqs. 8–9, whose trained bound λ becomes
//!   the norm-factor of the ANN-to-SNN data-normalization (Eq. 5);
//! * softmax cross-entropy ([`softmax_cross_entropy`]), SGD with momentum
//!   and per-parameter-kind weight decay ([`Sgd`]), the paper's step
//!   learning-rate schedule ([`StepSchedule`]), and a mini-batch training
//!   loop ([`train`]).
//!
//! Layers are a closed [`Layer`] enum rather than trait objects so the
//! conversion passes in `tcl-core` can rewrite networks with exhaustive
//! pattern matches.
//!
//! ## Example: train a tiny clipped MLP
//!
//! ```
//! use tcl_nn::{layers::{Clip, Linear, Relu}, Layer, Network, TrainConfig, train};
//! use tcl_tensor::{SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(0);
//! let mut net = Network::new(vec![
//!     Layer::Linear(Linear::new(2, 8, true, &mut rng)?),
//!     Layer::Relu(Relu::new()),
//!     Layer::Clip(Clip::new(2.0)),
//!     Layer::Linear(Linear::new(8, 2, true, &mut rng)?),
//! ]);
//! let x = Tensor::from_vec([4, 2], vec![1.0, 1.0, 0.9, 1.1, -1.0, -1.0, -0.9, -1.1])?;
//! let y = vec![0, 0, 1, 1];
//! let cfg = TrainConfig::standard(5, 2, 0.05, &[])?;
//! let report = train(&mut net, &x, &y, None, &cfg)?;
//! assert_eq!(report.epochs.len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod augment;
pub mod checkpoint;
mod error;
mod io;
mod layer;
pub mod layers;
mod loss;
mod network;
mod optim;
mod param;
mod trainer;

pub use augment::{augment_batch, AugmentConfig};
pub use checkpoint::{config_fingerprint, CheckpointConfig, CheckpointStore, TrainCheckpoint};
pub use error::{NnError, Result};
pub use layer::{Layer, Mode};
pub use loss::{softmax_cross_entropy, LossOutput};
pub use network::Network;
pub use optim::{Sgd, StepSchedule, LAMBDA_FLOOR};
pub use param::{Param, ParamKind};
pub use trainer::{evaluate, select_rows, train, EpochStats, TrainConfig, TrainReport, Trainer};
