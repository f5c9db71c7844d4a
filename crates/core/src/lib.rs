//! # tcl-core
//!
//! The primary contribution of *"TCL: an ANN-to-SNN Conversion with
//! Trainable Clipping Layers"* (Ho & Chang, DAC 2021), reproduced in Rust:
//! converting trained analog neural networks into integrate-and-fire
//! spiking networks whose per-layer thresholds come from **trained clipping
//! bounds** rather than post-hoc activation statistics.
//!
//! ## Pipeline
//!
//! 1. **Train** an ANN whose every ReLU is followed by a trainable clipping
//!    layer (`tcl_nn::layers::Clip`, Eqs. 8–9) — see `tcl-models` builders
//!    with `clip_lambda: Some(λ₀)`.
//! 2. **Fold** batch normalization into the preceding convolutions
//!    ([`fold_batch_norm`], Eq. 7).
//! 3. **Resolve norm-factors** per activation site ([`NormStrategy`]):
//!    the trained λ (TCL), the activation maximum (Diehl et al.), or an
//!    activation percentile (Rueckauer et al.) measured over calibration
//!    data ([`collect_activation_stats`]).
//! 4. **Data-normalize** weights and biases ([`Converter`], Eq. 5), with
//!    the dual-path NS/OS algebra for residual blocks (Section 5,
//!    including the virtual identity convolution for type-A blocks).
//! 5. **Simulate** the resulting `tcl_snn::SpikingNetwork` over a latency
//!    grid ([`convert_and_evaluate`]), or save the conversion
//!    ([`save_model`]) for `tcl_serve --model` to serve.
//!
//! ## Example
//!
//! ```
//! use tcl_core::{Converter, NormStrategy};
//! use tcl_models::{Architecture, ModelConfig};
//! use tcl_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let cfg = ModelConfig::new((3, 8, 8), 4)
//!     .with_base_width(2)
//!     .with_clip_lambda(Some(2.0)); // TCL layers after every ReLU
//! let net = Architecture::Cnn6.build(&cfg, &mut rng)?;
//! let calibration = rng.uniform_tensor([16, 3, 8, 8], -1.0, 1.0);
//! let conversion = Converter::new(NormStrategy::TrainedClip)
//!     .convert(&net, &calibration)?;
//! println!("norm-factors: {:?}", conversion.lambdas);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod convert;
mod diagnostics;
mod error;
mod fold;
mod model;
mod pipeline;
mod spikenorm;
mod stats;

pub use convert::{Conversion, Converter, NormStrategy};
pub use diagnostics::{diagnose_conversion, ConversionDiagnostics, SiteDiagnostic};
pub use error::{ConvertError, Result};
pub use fold::fold_batch_norm;
pub use model::{decode_model, encode_model, load_model, save_model, ConvertedModel};
pub use pipeline::{
    convert_and_evaluate, convert_and_evaluate_with, train_resumable, ConversionReport,
    EngineReport,
};
pub use stats::{collect_activation_stats, collect_site_histogram, count_sites, SiteStats};
