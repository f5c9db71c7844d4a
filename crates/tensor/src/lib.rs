//! # tcl-tensor
//!
//! Dense `f32` tensors and the numeric kernels behind the TCL ANN-to-SNN
//! reproduction (Ho & Chang, DAC 2021): row-major [`Tensor`]s, im2col
//! convolutions, pooling, softmax/reductions, deterministic RNG, and the
//! histogram machinery used to analyze activation distributions (the paper's
//! Figure 1 and the Rueckauer percentile baseline).
//!
//! The crate is deliberately minimal: no broadcasting DSL, no autograd tape —
//! just the contiguous-buffer kernels the `tcl-nn` layer library composes.
//! Every stochastic helper takes an explicit seed ([`SeededRng`]) so whole
//! experiments replay bit-identically.
//!
//! ## Example
//!
//! ```
//! use tcl_tensor::{ops, ops::ConvGeometry, SeededRng, Tensor};
//!
//! let mut rng = SeededRng::new(42);
//! let image = rng.uniform_tensor([1, 3, 8, 8], 0.0, 1.0);
//! let kernel = rng.kaiming_normal([4, 3, 3, 3], 3 * 3 * 3);
//! let geom = ConvGeometry::square(3, 1, 1)?;
//! let features = ops::conv2d(&image, &kernel, None, geom)?;
//! assert_eq!(features.dims(), &[1, 4, 8, 8]);
//! # Ok::<(), tcl_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod hist;
pub mod ops;
mod ops_impl;
pub mod par;
mod rng;
mod shape;
mod tensor;

/// Runtime SIMD dispatch (re-export of [`tcl_simd`]): [`simd::current`]
/// resolves the active [`simd::Level`], [`simd::with_level`] scopes an
/// override, and golden binaries pin via [`simd::pin`]. Downstream crates
/// reach the vector kernels through this module so `tcl-simd` stays the
/// single unsafe island.
pub use tcl_simd as simd;

pub use error::{Result, TensorError};
pub use hist::Histogram;
pub use par::Parallelism;
pub use rng::SeededRng;
pub use shape::Shape;
pub use tensor::Tensor;
