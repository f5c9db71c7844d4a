//! Synaptic operators: the weighted connections between spiking layers.
//!
//! Both operators have an **event path** for binary spike inputs: a spike
//! is exactly `1.0`, so a synapse fed by an IF bank needs one add per spike
//! and tap instead of a multiply-add per input (the paper's Eq. 1). The
//! event path runs only when it is bitwise equal to the dense product —
//! binary input and finite weights (see [`tcl_tensor::ops::spike_conv_applies`])
//! — and the input alone chooses it: an IF-fed node always takes it.
//!
//! A pooled spike map holds fractions (`{0, ¼, ½, ¾, 1}` after a 2×2
//! pool), so it misses the event path. A convolution still skips its zero
//! entries on the **weighted event path**: one multiply-add per nonzero
//! input and tap, bitwise the GEMM where
//! [`tcl_tensor::ops::weighted_conv_applies`] holds. A linear map takes its
//! dense product from a weight panel packed once, at conversion. Every
//! path a synapse can take computes the same bits, except the linear
//! zero-skip on sparse non-binary input (see [`LinearSynapse`]), so the
//! path is a matter of speed; [`SynapticOp::path`] names it.

use serde::{Deserialize, Serialize};
use tcl_tensor::ops::{self, ConvGeometry, SpikeScan};
use tcl_tensor::{simd, Result, Tensor, TensorError};

/// The kernel [`SynapticOp::apply`] runs on one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurrentPath {
    /// Binary spikes into finite weights: one add per spike and tap (an
    /// accumulate), bitwise the dense product.
    Events,
    /// A convolution on sparse non-binary input: one multiply-add per
    /// nonzero input and tap, bitwise the GEMM.
    WeightedEvents,
    /// A linear map on sparse non-binary input: the zero-skipping sparse
    /// row kernel.
    SparseRows,
    /// The dense product: im2col + GEMM for a convolution, the packed
    /// weight panel for a linear map.
    Dense,
}

/// A linear synaptic operator applied to spike (or analog, for the first
/// layer) tensors each timestep — the `Σ W·Θ + b` of Eq. 1.
///
/// Biases are injected as a constant current every step, which is why the
/// data-normalization of Eq. 5 divides them by the layer's own norm-factor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SynapticOp {
    /// Convolutional connectivity; build it with [`SynapticOp::conv`].
    Conv(ConvSynapse),
    /// Fully connected connectivity; build it with [`SynapticOp::linear`].
    Linear(LinearSynapse),
}

/// The weights of a convolutional synapse, in the two layouts its current
/// kernels read: the `[O, C, kh, kw]` kernel the im2col + GEMM path
/// multiplies, and the tap-major `[C, kh, kw, O]` vectors (see
/// [`ops::ConvTaps`]) both event paths add per nonzero input.
///
/// Both are laid out once, when the operator is built at conversion, along
/// with whether every weight is finite; [`SynapticOp::scale_weights`] keeps
/// the three in step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvSynapse {
    /// Kernel, `[O, C, kh, kw]`.
    weight: Tensor,
    /// Tap vectors for the event path.
    taps: ops::ConvTaps,
    /// Optional per-channel bias current, `[O]`.
    bias: Option<Tensor>,
    geom: ConvGeometry,
    /// Every weight is finite, so skipping zero inputs is exact.
    finite: bool,
}

impl ConvSynapse {
    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeometry {
        self.geom
    }

    /// Output channels (`O`).
    pub fn out_channels(&self) -> usize {
        self.weight.dims()[0]
    }

    /// The kernel an input with this scan takes: the event path on binary
    /// spikes, the weighted event path where it is bitwise the GEMM and
    /// sparse enough to pay, else im2col + GEMM.
    fn path(&self, input: &Tensor, scan: SpikeScan) -> CurrentPath {
        if ops::spike_conv_applies(self.geom, self.finite, scan) {
            return CurrentPath::Events;
        }
        let weighted = input.shape().as_nchw().is_ok_and(|(_, _, h, w)| {
            self.geom.output_hw(h, w).is_ok_and(|out_hw| {
                ops::weighted_conv_applies(
                    simd::current(),
                    self.geom,
                    self.out_channels(),
                    out_hw,
                    self.finite,
                    scan,
                    input.len(),
                )
            })
        });
        if weighted {
            CurrentPath::WeightedEvents
        } else {
            CurrentPath::Dense
        }
    }

    /// The input current. Every path produces the same bits (see the
    /// module docs).
    fn current(&self, input: &Tensor, scan: SpikeScan) -> Result<Tensor> {
        match self.path(input, scan) {
            CurrentPath::Events => {
                ops::conv2d_spikes(input, &self.taps, self.bias.as_ref(), self.geom)
            }
            CurrentPath::WeightedEvents => {
                ops::conv2d_weighted_events(input, &self.taps, self.bias.as_ref(), self.geom)
            }
            _ => ops::conv2d(input, &self.weight, self.bias.as_ref(), self.geom),
        }
    }
}

/// The weights of a fully connected synapse, stored as the `[in_f, out_f]`
/// panel `Wᵀ` that both current kernels read.
///
/// The panel is laid out once, when the operator is built at conversion,
/// instead of transposing `W` on every timestep, together with its full
/// 16-column tiles packed for the dense kernel ([`ops::PackedPanel`]), so
/// no timestep copies a weight; [`SynapticOp::scale_weights`] keeps the two
/// layouts in step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSynapse {
    /// `Wᵀ`, `[in_f, out_f]`, with its packed column tiles.
    panel: ops::PackedPanel,
    /// Optional bias current, `[out_f]`.
    bias: Option<Tensor>,
    /// Every weight is finite, so skipping zero inputs is exact.
    finite: bool,
}

impl LinearSynapse {
    /// Input features (`in_f`).
    pub fn in_features(&self) -> usize {
        self.panel.panel().dims()[0]
    }

    /// Output features (`out_f`).
    pub fn out_features(&self) -> usize {
        self.panel.panel().dims()[1]
    }

    /// The stored `[in_f, out_f]` weight panel.
    pub fn panel(&self) -> &Tensor {
        self.panel.panel()
    }

    /// The kernel an input of `len` entries with this scan takes: the event
    /// path on binary spikes, the sparse rows below 1-in-8 activity, else
    /// the dense product.
    fn path(&self, len: usize, scan: SpikeScan) -> CurrentPath {
        if scan.binary && self.finite {
            CurrentPath::Events
        } else if self.finite && scan.nonzero * 8 < len {
            CurrentPath::SparseRows
        } else {
            CurrentPath::Dense
        }
    }

    /// Computes `input @ Wᵀ + b`, routing spike rasters and mostly-zero
    /// inputs through the sparse-row kernel.
    ///
    /// The sparse kernel reads the row-major panel and skips zero input
    /// entries; the dense kernel reads the panel's packed tiles. On binary
    /// input (the event path) the sparse kernel always runs: each surviving
    /// update is `1·w`, an exact add, so it equals the dense product bitwise
    /// at every SIMD level. On other input it runs below ~12.5% activity,
    /// where the skip pays for its strided access: the dense kernel's
    /// packed register tiles move roughly twice the useful flops per cycle,
    /// so the skip must eliminate well over half the rows. There the two
    /// paths agree within per-element rounding: both accumulate each output
    /// element in ascending input order, and both fuse multiply-adds at the
    /// AVX2 dispatch level (the sparse kernel's [`simd::axpy`] fuses, as
    /// the dense full tiles do), but the dense kernel's ragged rows and
    /// columns do not fuse. So at AVX2 the ragged rows (the last
    /// `rows % 4`) are fused below the density gate and unfused above it.
    ///
    /// Skipping is exact only for finite weights (`0·NaN` is NaN), so a
    /// synapse with a non-finite weight always takes the dense kernel and
    /// its outputs do not depend on spike density.
    fn current(&self, input: &Tensor, scan: SpikeScan) -> Result<Tensor> {
        let (rows, in_f) = input.shape().as_matrix()?;
        let (wk, out_f) = (self.in_features(), self.out_features());
        if wk != in_f {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: in_f,
                right_rows: wk,
            });
        }
        let mut out = Tensor::zeros([rows, out_f]);
        if self.path(rows * in_f, scan) == CurrentPath::Dense {
            ops::matmul_into_packed(input.data(), &self.panel, out.data_mut(), rows);
        } else {
            if tcl_telemetry::metrics_enabled() {
                tcl_telemetry::counter_add(
                    "snn.zero_skips",
                    ((rows * in_f - scan.nonzero) * out_f) as u64,
                );
            }
            ops::matmul_into_sparse(
                input.data(),
                self.panel().data(),
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

/// Whether every entry of `t` is finite.
fn all_finite(t: &Tensor) -> bool {
    t.data().iter().all(|v| v.is_finite())
}

impl SynapticOp {
    /// Builds a convolutional operator from an `[O, C, kh, kw]` kernel, an
    /// optional `[O]` bias and its geometry, laying the weights out in both
    /// layouts the per-timestep kernels read (see [`ConvSynapse`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 4, its kernel extents
    /// disagree with `geom`, or the bias length is not `O`.
    pub fn conv(weight: Tensor, bias: Option<Tensor>, geom: ConvGeometry) -> Result<Self> {
        let (out_c, _, kh, kw) = weight.shape().as_nchw()?;
        if kh != geom.kernel_h || kw != geom.kernel_w {
            return Err(TensorError::InvalidArgument {
                detail: format!(
                    "weight kernel {kh}x{kw} disagrees with geometry {}x{}",
                    geom.kernel_h, geom.kernel_w
                ),
            });
        }
        check_bias(bias.as_ref(), out_c)?;
        let taps = ops::ConvTaps::new(&weight)?;
        let finite = all_finite(&weight);
        Ok(SynapticOp::Conv(ConvSynapse {
            weight,
            taps,
            bias,
            geom,
            finite,
        }))
    }

    /// Builds a fully connected operator from an `[out_f, in_f]` weight
    /// matrix and an optional `[out_f]` bias, laying the weights out as the
    /// panel and packed tiles the per-timestep kernels read (see
    /// [`LinearSynapse`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 2 or the bias length is not
    /// `out_f`.
    pub fn linear(weight: Tensor, bias: Option<Tensor>) -> Result<Self> {
        let (out_f, in_f) = weight.shape().as_matrix()?;
        check_bias(bias.as_ref(), out_f)?;
        let mut panel = Tensor::zeros([in_f, out_f]);
        ops::transpose_into(weight.data(), panel.data_mut(), out_f, in_f);
        let finite = all_finite(&panel);
        Ok(SynapticOp::Linear(LinearSynapse {
            panel: ops::PackedPanel::new(panel)?,
            bias,
            finite,
        }))
    }

    /// Applies the operator to an input tensor.
    ///
    /// One scan of `input` yields its nonzero count and whether it is a
    /// binary spike raster; that serves the synop counter and the choice
    /// of [`CurrentPath`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernel.
    pub fn apply(&self, input: &Tensor) -> Result<Tensor> {
        let scan = SpikeScan::of(input.data());
        if tcl_telemetry::metrics_enabled() {
            tcl_telemetry::counter_add("snn.synops", (scan.nonzero * self.fanout()) as u64);
        }
        self.current(input, scan)
    }

    /// The input current for `input`, whose scan is `scan`.
    fn current(&self, input: &Tensor, scan: SpikeScan) -> Result<Tensor> {
        match self {
            SynapticOp::Conv(synapse) => synapse.current(input, scan),
            SynapticOp::Linear(synapse) => synapse.current(input, scan),
        }
    }

    /// The current [`SynapticOp::apply`] returns, plus the synaptic
    /// operations of each batch row (its nonzero entries times the fan-out),
    /// without adding them to the `snn.synops` counter: the caller counts
    /// them on every timestep that reads the current.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying kernel.
    pub(crate) fn current_with_synops(&self, input: &Tensor) -> Result<(Tensor, Vec<u64>)> {
        let rows = input.dims().first().copied().unwrap_or(1).max(1);
        let mut scan = SpikeScan {
            nonzero: 0,
            binary: true,
        };
        let mut synops = Vec::with_capacity(rows);
        for r in input.data().chunks((input.len() / rows).max(1)) {
            let s = SpikeScan::of(r);
            synops.push((s.nonzero * self.fanout()) as u64);
            scan.nonzero += s.nonzero;
            scan.binary &= s.binary;
        }
        Ok((self.current(input, scan)?, synops))
    }

    /// The kernel [`SynapticOp::apply`] runs on `input`.
    pub fn path(&self, input: &Tensor) -> CurrentPath {
        let scan = SpikeScan::of(input.data());
        match self {
            SynapticOp::Conv(synapse) => synapse.path(input, scan),
            SynapticOp::Linear(synapse) => synapse.path(input.len(), scan),
        }
    }

    /// Whether [`SynapticOp::apply`] runs the event path on `input`: one add
    /// per nonzero input and tap (accumulates), not a multiply-add per input
    /// (MACs). True for binary spike input when every weight is finite and,
    /// for a convolution, the geometry fits [`ops::conv2d_spikes`]. The
    /// weighted event path multiplies, so it does not count.
    pub fn is_event_driven(&self, input: &Tensor) -> bool {
        self.path(input) == CurrentPath::Events
    }

    /// Weights one nonzero input entry drives: `out_c·kh·kw` for a
    /// convolution (ignoring border truncation), `out_f` for a linear map.
    fn fanout(&self) -> usize {
        match self {
            SynapticOp::Conv(synapse) => {
                synapse.out_channels() * synapse.geom.kernel_h * synapse.geom.kernel_w
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
        (SpikeScan::of(input.data()).nonzero * self.fanout()) as u64
    }

    /// Number of synaptic weights (a cost/energy proxy).
    pub fn weight_count(&self) -> usize {
        match self {
            SynapticOp::Conv(synapse) => synapse.weight.len(),
            SynapticOp::Linear(synapse) => synapse.panel().len(),
        }
    }

    /// Scales all weights in place (used by conversion tests), keeping
    /// every stored layout and the finiteness flag in step.
    pub fn scale_weights(&mut self, factor: f32) {
        match self {
            SynapticOp::Conv(synapse) => {
                synapse.weight.scale_inplace(factor);
                synapse.taps.scale_inplace(factor);
                synapse.finite = all_finite(&synapse.weight);
            }
            SynapticOp::Linear(synapse) => {
                synapse.panel.scale_inplace(factor);
                synapse.finite = all_finite(synapse.panel.panel());
            }
        }
    }

    /// Scales the bias current in place, if there is one (threshold
    /// balancing divides it by the preceding layers' threshold product).
    pub fn scale_bias(&mut self, factor: f32) {
        let bias = match self {
            SynapticOp::Conv(synapse) => &mut synapse.bias,
            SynapticOp::Linear(synapse) => &mut synapse.bias,
        };
        if let Some(b) = bias {
            b.scale_inplace(factor);
        }
    }
}

/// Rejects a bias whose length is not the operator's output width.
fn check_bias(bias: Option<&Tensor>, outputs: usize) -> Result<()> {
    match bias {
        Some(b) if b.len() != outputs => Err(TensorError::LengthMismatch {
            expected: outputs,
            actual: b.len(),
        }),
        _ => Ok(()),
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
        let op = SynapticOp::conv(
            Tensor::ones([1, 1, 2, 2]),
            None,
            ConvGeometry::square(2, 2, 0).unwrap(),
        )
        .unwrap();
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
        let conv = SynapticOp::conv(
            Tensor::ones([2, 1, 2, 2]),
            None,
            ConvGeometry::square(2, 1, 0).unwrap(),
        )
        .unwrap();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(conv.synop_estimate(&x), 16); // 2 nonzeros × (2·2·2)
    }

    #[test]
    fn conv_constructor_validates_rank_kernel_and_bias() {
        let geom = ConvGeometry::square(3, 1, 1).unwrap();
        assert!(SynapticOp::conv(Tensor::zeros([2, 1, 3]), None, geom).is_err());
        assert!(SynapticOp::conv(Tensor::zeros([2, 1, 2, 2]), None, geom).is_err());
        let bias = Some(Tensor::zeros([3]));
        assert!(SynapticOp::conv(Tensor::zeros([2, 1, 3, 3]), bias, geom).is_err());
        assert!(
            SynapticOp::conv(Tensor::zeros([2, 1, 3, 3]), Some(Tensor::zeros([2])), geom).is_ok()
        );
    }

    /// A NaN weight must reach the output whatever the input density: the
    /// zero-skip would drop `0·NaN`, so every skip path stays off.
    #[test]
    fn non_finite_weights_keep_every_skip_path_off() {
        let mut weight = Tensor::ones([2, 16]);
        weight.data_mut()[3] = f32::NAN; // output 0, input 3
        let op = SynapticOp::linear(weight, None).unwrap();
        let sparse_analog = Tensor::from_fn([1, 16], |i| if i == 0 { 0.5 } else { 0.0 });
        let dense_analog = Tensor::from_fn([1, 16], |i| if i < 6 && i != 3 { 0.5 } else { 0.0 });
        let spikes = Tensor::from_fn([1, 16], |i| if i == 0 { 1.0 } else { 0.0 });
        for x in [&sparse_analog, &dense_analog, &spikes] {
            assert!(!op.is_event_driven(x));
            let y = op.apply(x).unwrap();
            assert!(y.data()[0].is_nan(), "input {x}: {y}");
            assert!(y.data()[1].is_finite(), "input {x}: {y}");
        }

        let mut kernel = Tensor::ones([1, 1, 3, 3]);
        kernel.data_mut()[4] = f32::INFINITY;
        let op = SynapticOp::conv(kernel, None, ConvGeometry::square(3, 1, 1).unwrap()).unwrap();
        let x = Tensor::from_fn([1, 1, 4, 4], |i| if i == 0 { 1.0 } else { 0.0 });
        assert!(!op.is_event_driven(&x));
        // Every output's centre tap reads a zero or the spike: inf·0 is NaN.
        let y = op.apply(&x).unwrap();
        assert!(
            y.data().iter().all(|v| v.is_nan() || v.is_infinite()),
            "{y}"
        );
        assert!(y.data()[1].is_nan(), "{y}");
    }

    #[test]
    fn scale_weights_keeps_layouts_and_finiteness_in_step() {
        let geom = ConvGeometry::square(3, 1, 1).unwrap();
        let weight = Tensor::from_fn([2, 2, 3, 3], |i| (i as f32 * 0.37).sin());
        let mut op = SynapticOp::conv(weight.clone(), None, geom).unwrap();
        op.scale_weights(0.3);
        let x = Tensor::from_fn([1, 2, 5, 5], |i| f32::from(i % 3 == 0));
        assert!(op.is_event_driven(&x));
        let want = ops::conv2d(&x, &weight.scale(0.3), None, geom).unwrap();
        let got = op.apply(&x).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        op.scale_weights(f32::INFINITY);
        assert!(!op.is_event_driven(&x));
        let mut linear = SynapticOp::linear(Tensor::ones([2, 2]), None).unwrap();
        let spikes = Tensor::ones([1, 2]);
        assert!(linear.is_event_driven(&spikes));
        linear.scale_weights(f32::NAN);
        assert!(!linear.is_event_driven(&spikes));
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
