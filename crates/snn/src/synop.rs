//! Synaptic operators: the weighted connections between spiking layers.

use serde::{Deserialize, Serialize};
use tcl_tensor::ops::{self, ConvGeometry};
use tcl_tensor::{Result, Tensor, TensorError};

/// A linear synaptic operator applied to spike (or analog, for the first
/// layer) tensors each timestep — the `Σ W·Θ + b` of Eq. 1.
///
/// Biases are injected as a constant current every step, which is why the
/// data-normalization of Eq. 5 divides them by the layer's own norm-factor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SynapticOp {
    /// Convolutional connectivity.
    Conv {
        /// Kernel, `[out_c, in_c, kh, kw]`.
        weight: Tensor,
        /// Optional per-channel bias current.
        bias: Option<Tensor>,
        /// Convolution geometry.
        geom: ConvGeometry,
    },
    /// Fully connected connectivity; build it with [`SynapticOp::linear`].
    Linear(LinearSynapse),
}

/// The weights of a fully connected synapse, stored as the `[in_f, out_f]`
/// panel `Wᵀ` that both current kernels read.
///
/// The panel is laid out once, when the operator is built at conversion,
/// instead of transposing `W` on every timestep. It is the only copy of the
/// weights the operator keeps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSynapse {
    /// `Wᵀ`, `[in_f, out_f]`.
    panel: Tensor,
    /// Optional bias current, `[out_f]`.
    bias: Option<Tensor>,
}

impl LinearSynapse {
    /// Input features (`in_f`).
    pub fn in_features(&self) -> usize {
        self.panel.dims()[0]
    }

    /// Output features (`out_f`).
    pub fn out_features(&self) -> usize {
        self.panel.dims()[1]
    }

    /// The stored `[in_f, out_f]` weight panel.
    pub fn panel(&self) -> &Tensor {
        &self.panel
    }

    /// Computes `input @ Wᵀ + b`, routing mostly-zero spike matrices through
    /// the sparse-row kernel. `nonzero` is the caller's count of nonzero
    /// `input` entries.
    ///
    /// Both paths read the stored panel; the sparse kernel then skips zero
    /// input entries (a spike raster is mostly zeros), while the dense
    /// blocked kernel wins once average activity is high. The crossover
    /// sits at ~12.5% activity: both kernels run SIMD row updates, but the
    /// dense kernel's packed register tiles still move roughly twice the
    /// useful flops per cycle, so the skip must eliminate well over half
    /// the rows to pay for its strided access. Results agree within
    /// per-element rounding: both kernels accumulate each output element in
    /// ascending input order, and the zero-skip drops exact zeros only,
    /// which is safe because converted weights are finite — but the dense
    /// tile may fuse multiply-adds at the AVX2 dispatch level while the
    /// sparse path rounds each step, so the two paths are bitwise identical
    /// only under `TCL_SIMD=scalar` (or `wide`).
    fn current(&self, input: &Tensor, nonzero: usize) -> Result<Tensor> {
        let (rows, in_f) = input.shape().as_matrix()?;
        let (wk, out_f) = (self.in_features(), self.out_features());
        if wk != in_f {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: in_f,
                right_rows: wk,
            });
        }
        let mut out = Tensor::zeros([rows, out_f]);
        if nonzero * 8 >= rows * in_f {
            ops::matmul_into(
                input.data(),
                self.panel.data(),
                out.data_mut(),
                rows,
                in_f,
                out_f,
            );
        } else {
            if tcl_telemetry::metrics_enabled() {
                tcl_telemetry::counter_add(
                    "snn.zero_skips",
                    ((rows * in_f - nonzero) * out_f) as u64,
                );
            }
            ops::matmul_into_sparse(
                input.data(),
                self.panel.data(),
                out.data_mut(),
                rows,
                in_f,
                out_f,
            );
        }
        if let Some(b) = &self.bias {
            for row in out.data_mut().chunks_exact_mut(out_f.max(1)) {
                for (v, &bv) in row.iter_mut().zip(b.data()) {
                    *v += bv;
                }
            }
        }
        Ok(out)
    }
}

/// Nonzero entries of `data` — spikes, or analog currents for the first
/// layer.
fn count_nonzero(data: &[f32]) -> usize {
    data.iter().filter(|&&v| v != 0.0).count()
}

impl SynapticOp {
    /// Builds a fully connected operator from an `[out_f, in_f]` weight
    /// matrix and an optional `[out_f]` bias, laying the weights out as the
    /// panel the per-timestep kernels read (see [`LinearSynapse`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 2 or the bias length is not
    /// `out_f`.
    pub fn linear(weight: Tensor, bias: Option<Tensor>) -> Result<Self> {
        let (out_f, in_f) = weight.shape().as_matrix()?;
        if let Some(b) = &bias {
            if b.len() != out_f {
                return Err(TensorError::LengthMismatch {
                    expected: out_f,
                    actual: b.len(),
                });
            }
        }
        let mut panel = Tensor::zeros([in_f, out_f]);
        ops::transpose_into(weight.data(), panel.data_mut(), out_f, in_f);
        Ok(SynapticOp::Linear(LinearSynapse { panel, bias }))
    }

    /// Applies the operator to an input tensor.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernel.
    pub fn apply(&self, input: &Tensor) -> Result<Tensor> {
        // One nonzero scan serves both the synop counter and the linear
        // density gate.
        let metrics = tcl_telemetry::metrics_enabled();
        let nonzero = if metrics || matches!(self, SynapticOp::Linear(_)) {
            count_nonzero(input.data())
        } else {
            0
        };
        if metrics {
            tcl_telemetry::counter_add("snn.synops", (nonzero * self.fanout()) as u64);
        }
        match self {
            SynapticOp::Conv { weight, bias, geom } => {
                ops::conv2d(input, weight, bias.as_ref(), *geom)
            }
            SynapticOp::Linear(synapse) => synapse.current(input, nonzero),
        }
    }

    /// Weights one nonzero input entry drives: `out_c·kh·kw` for a
    /// convolution (ignoring border truncation), `out_f` for a linear map.
    fn fanout(&self) -> usize {
        match self {
            SynapticOp::Conv { weight, .. } => {
                weight.len() / weight.dims().get(1).copied().unwrap_or(1).max(1)
            }
            SynapticOp::Linear(synapse) => synapse.out_features(),
        }
    }

    /// Estimated synaptic operations for one application of this operator
    /// to `input` — one weight application per nonzero input entry (spike or
    /// analog current), the event-driven energy proxy the paper's Section 4
    /// comparisons assume. Convolutions use the per-input fan-out
    /// `out_c·kh·kw` and ignore border truncation.
    ///
    /// This is the quantity `apply` accumulates into the `snn.synops`
    /// telemetry counter; it is public so the engine can report per-sample
    /// synop savings without a metrics sink attached.
    pub fn synop_estimate(&self, input: &Tensor) -> u64 {
        (count_nonzero(input.data()) * self.fanout()) as u64
    }

    /// Number of synaptic weights (a cost/energy proxy).
    pub fn weight_count(&self) -> usize {
        match self {
            SynapticOp::Conv { weight, .. } => weight.len(),
            SynapticOp::Linear(synapse) => synapse.panel.len(),
        }
    }

    /// Scales all weights in place (used by conversion tests).
    pub fn scale_weights(&mut self, factor: f32) {
        match self {
            SynapticOp::Conv { weight, .. } => weight.scale_inplace(factor),
            SynapticOp::Linear(synapse) => synapse.panel.scale_inplace(factor),
        }
    }

    /// Scales the bias current in place, if there is one (threshold
    /// balancing divides it by the preceding layers' threshold product).
    pub fn scale_bias(&mut self, factor: f32) {
        let bias = match self {
            SynapticOp::Conv { bias, .. } => bias,
            SynapticOp::Linear(synapse) => &mut synapse.bias,
        };
        if let Some(b) = bias {
            b.scale_inplace(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_op_applies_weight_and_bias() {
        let op = SynapticOp::linear(
            Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 2.0]).unwrap(),
            Some(Tensor::from_slice(&[0.5, -0.5])),
        )
        .unwrap();
        let x = Tensor::from_vec([1, 2], vec![3.0, 4.0]).unwrap();
        let y = op.apply(&x).unwrap();
        assert_eq!(y.data(), &[3.5, 7.5]);
    }

    #[test]
    fn conv_op_applies_geometry() {
        let op = SynapticOp::Conv {
            weight: Tensor::ones([1, 1, 2, 2]),
            bias: None,
            geom: ConvGeometry::square(2, 2, 0).unwrap(),
        };
        let x = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
        let y = op.apply(&x).unwrap();
        assert_eq!(y.data(), &[6.0]);
    }

    #[test]
    fn linear_bias_length_is_validated() {
        // Rejected where the operator is built, before any timestep.
        assert!(SynapticOp::linear(Tensor::zeros([2, 2]), Some(Tensor::zeros([3]))).is_err());
        assert!(SynapticOp::linear(Tensor::zeros([2, 2, 1]), None).is_err());
        // The input width is still checked per call.
        let op = SynapticOp::linear(Tensor::zeros([2, 2]), Some(Tensor::zeros([2]))).unwrap();
        assert!(op.apply(&Tensor::zeros([1, 3])).is_err());
    }

    #[test]
    fn synop_estimate_counts_nonzero_driven_weights() {
        let linear = SynapticOp::linear(Tensor::ones([3, 4]), None).unwrap();
        let x = Tensor::from_vec([1, 4], vec![1.0, 0.0, 0.5, 0.0]).unwrap();
        assert_eq!(linear.synop_estimate(&x), 6); // 2 nonzeros × 3 outputs
        let conv = SynapticOp::Conv {
            weight: Tensor::ones([2, 1, 2, 2]),
            bias: None,
            geom: ConvGeometry::square(2, 1, 0).unwrap(),
        };
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(conv.synop_estimate(&x), 16); // 2 nonzeros × (2·2·2)
    }

    #[test]
    fn weight_count_and_scaling() {
        let mut op = SynapticOp::linear(Tensor::ones([2, 3]), None).unwrap();
        assert_eq!(op.weight_count(), 6);
        op.scale_weights(0.5);
        let y = op.apply(&Tensor::ones([1, 3])).unwrap();
        assert_eq!(y.data(), &[1.5, 1.5]);
    }
}
