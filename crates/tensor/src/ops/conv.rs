//! 2-D convolution via im2col/col2im.
//!
//! Convolution is lowered to matrix multiplication: each sliding window of
//! the (zero-padded) input is unrolled into a column (`im2col`), the kernel
//! is viewed as an `[out_c, in_c·kh·kw]` matrix, and the output is their
//! product. The backward pass reuses the same lowering: `col2im` is the exact
//! adjoint of `im2col` (a property-tested invariant), which makes input
//! gradients a transpose-product followed by re-folding.
//!
//! A sparse input has a cheaper forward pass, one event per nonzero input
//! entry and no lowering: [`conv2d_spikes`] adds each spike's tap vectors,
//! with no multiply, and [`conv2d_weighted_events`] adds `q·tap` for an
//! entry `q`. Where [`spike_conv_applies`] (binary spikes) or
//! [`weighted_conv_applies`] (any other values) holds, they return
//! [`conv2d`]'s exact bits.

use crate::error::{Result, TensorError};
use crate::ops::matmul::{matmul_into, transpose_into};
use crate::par;
use crate::par::min_items_per_worker;
use crate::simd;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Geometry of a 2-D convolution: kernel size, stride, and symmetric zero
/// padding.
///
/// # Examples
///
/// ```
/// use tcl_tensor::ops::ConvGeometry;
///
/// // A padded 3x3 "same" convolution on an 8x8 input.
/// let g = ConvGeometry::new(3, 3, 1, 1)?;
/// assert_eq!(g.output_hw(8, 8)?, (8, 8));
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Symmetric zero padding (same on all four sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry, validating that the kernel is non-empty and the
    /// stride nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero kernel extent or
    /// zero stride.
    pub fn new(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Result<Self> {
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "kernel extents must be nonzero".into(),
            });
        }
        if stride == 0 {
            return Err(TensorError::InvalidArgument {
                detail: "stride must be nonzero".into(),
            });
        }
        Ok(ConvGeometry {
            kernel_h,
            kernel_w,
            stride,
            padding,
        })
    }

    /// Square-kernel convenience constructor.
    ///
    /// # Errors
    ///
    /// As for [`ConvGeometry::new`].
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        Self::new(kernel, kernel, stride, padding)
    }

    /// Output spatial extent for an input of `in_h x in_w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::WindowDoesNotFit`] if the padded input is
    /// smaller than the kernel.
    pub fn output_hw(&self, in_h: usize, in_w: usize) -> Result<(usize, usize)> {
        let ph = in_h + 2 * self.padding;
        let pw = in_w + 2 * self.padding;
        if ph < self.kernel_h || pw < self.kernel_w {
            return Err(TensorError::WindowDoesNotFit {
                detail: format!(
                    "kernel {}x{} on padded input {}x{}",
                    self.kernel_h, self.kernel_w, ph, pw
                ),
            });
        }
        Ok((
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        ))
    }
}

thread_local! {
    /// The padded planes of the last padded lowering on this thread,
    /// reused so a lowering writes its padding into an existing buffer.
    static PADDED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Calls `f(planes, padded_h, padded_w)` with `input`'s `channels` planes
/// surrounded by a `pad`-wide zero border; `input` itself when `pad == 0`.
///
/// Every sliding window lies inside the padded planes, so the lowering
/// reads each tap without a bounds test and writes no padding of its own.
/// The planes live in a per-thread buffer that every call rewrites whole
/// (border zeros included), so no call sees another's data, and no call
/// allocates once the buffer has grown to the largest image lowered.
fn with_padded_planes<R>(
    input: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    pad: usize,
    f: impl FnOnce(&[f32], usize, usize) -> R,
) -> R {
    if pad == 0 {
        return f(input, in_h, in_w);
    }
    let (ph, pw) = (in_h + 2 * pad, in_w + 2 * pad);
    PADDED.with_borrow_mut(|planes| {
        // One fill zeroes the border; the image rows then overwrite the
        // interior, so every call rewrites the buffer whole.
        planes.clear();
        planes.resize(channels * ph * pw, 0.0);
        if in_w > 0 {
            for (dst, src) in planes
                .chunks_exact_mut(ph * pw)
                .flat_map(|plane| plane[pad * pw..(pad + in_h) * pw].chunks_exact_mut(pw))
                .zip(input.chunks_exact(in_w))
            {
                copy_row(&mut dst[pad..pad + in_w], src);
            }
        }
        f(planes, ph, pw)
    })
}

/// Copies `src` into the equally long `dst` in fixed 8-lane blocks, so a
/// short image row moves as a few vector stores instead of a `memcpy` call.
#[inline]
fn copy_row(dst: &mut [f32], src: &[f32]) {
    let mut dst_blocks = dst.chunks_exact_mut(8);
    let mut src_blocks = src.chunks_exact(8);
    for (d, s) in (&mut dst_blocks).zip(&mut src_blocks) {
        if let (Ok(d), Ok(s)) = (<&mut [f32; 8]>::try_from(d), <&[f32; 8]>::try_from(s)) {
            *d = *s;
        }
    }
    for (d, &s) in dst_blocks
        .into_remainder()
        .iter_mut()
        .zip(src_blocks.remainder())
    {
        *d = s;
    }
}

/// One stride-1 `cols` row whose output rows are `W` wide: output row `oh`
/// is `src[oh·pw..][..W]`, moved as one fixed-size array copy.
#[inline]
fn copy_rows_fixed<const W: usize>(dst: &mut [f32], src: &[f32], pw: usize) {
    for (oh, d) in dst.chunks_exact_mut(W).enumerate() {
        let s = &src[oh * pw..oh * pw + W];
        if let (Ok(d), Ok(s)) = (<&mut [f32; W]>::try_from(d), <&[f32; W]>::try_from(s)) {
            *d = *s;
        }
    }
}

/// One `cols` row (`out_h` output rows of `out_w`) lowered from `src`, the
/// padded plane from the row's first tap on. Stride 1 at the output widths
/// the models use (8, 16, 32) takes fixed-size copies; other widths copy
/// each row in 8-lane blocks, and larger strides gather.
#[inline]
fn lower_row(dst: &mut [f32], src: &[f32], pw: usize, out_w: usize, stride: usize) {
    match (stride, out_w) {
        (1, 8) => copy_rows_fixed::<8>(dst, src, pw),
        (1, 16) => copy_rows_fixed::<16>(dst, src, pw),
        (1, 32) => copy_rows_fixed::<32>(dst, src, pw),
        _ => lower_row_generic(dst, src, pw, out_w, stride),
    }
}

/// [`lower_row`] for any width and stride: one row copy (stride 1) or
/// strided gather per output row.
fn lower_row_generic(dst: &mut [f32], src: &[f32], pw: usize, out_w: usize, stride: usize) {
    for (oh, dst_row) in dst.chunks_exact_mut(out_w).enumerate() {
        let src = &src[oh * stride * pw..];
        if stride == 1 {
            copy_row(dst_row, &src[..out_w]);
        } else {
            for (d, &s) in dst_row.iter_mut().zip(src.iter().step_by(stride)) {
                *d = s;
            }
        }
    }
}

/// Unrolls sliding windows of a single image `[C, H, W]` (given as a flat
/// slice) into a `[C*kh*kw, out_h*out_w]` column matrix.
///
/// Out-of-bounds (padding) positions contribute zeros. The image is padded
/// once per call into a reused per-thread buffer, so every `cols` row
/// segment is a plain copy of a padded image row (stride 1; fixed-size at
/// output widths 8, 16 and 32) or a branch-free strided gather: no
/// per-element bounds test, no per-row padding fills.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
pub fn im2col_single(
    input: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    geom: ConvGeometry,
    out_h: usize,
    out_w: usize,
    cols: &mut [f32],
) {
    let col_width = out_h * out_w;
    debug_assert_eq!(input.len(), channels * in_h * in_w);
    debug_assert_eq!(
        cols.len(),
        channels * geom.kernel_h * geom.kernel_w * col_width
    );
    if col_width == 0 {
        return;
    }
    let stride = geom.stride;
    with_padded_planes(
        input,
        channels,
        in_h,
        in_w,
        geom.padding,
        |planes, ph, pw| {
            let mut rows = cols.chunks_exact_mut(col_width);
            for plane in planes.chunks_exact((ph * pw).max(1)) {
                for kh in 0..geom.kernel_h {
                    for kw in 0..geom.kernel_w {
                        let Some(dst) = rows.next() else { return };
                        lower_row(dst, &plane[kh * pw + kw..], pw, out_w, stride);
                    }
                }
            }
        },
    );
}

/// [`im2col_single`] written transposed: `cols_t` is `[out_h*out_w,
/// C*kh*kw]`, i.e. `cols_t[p·rows + r] = cols[r·(out_h·out_w) + p]` with the
/// same bits. The weight-gradient product wants this layout, and writing it
/// directly saves materializing `cols` and transposing it.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
pub fn im2col_transposed_single(
    input: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    geom: ConvGeometry,
    out_h: usize,
    out_w: usize,
    cols_t: &mut [f32],
) {
    let rows = channels * geom.kernel_h * geom.kernel_w;
    debug_assert_eq!(input.len(), channels * in_h * in_w);
    debug_assert_eq!(cols_t.len(), rows * out_h * out_w);
    let stride = geom.stride;
    with_padded_planes(
        input,
        channels,
        in_h,
        in_w,
        geom.padding,
        |planes, ph, pw| {
            for (p, dst) in cols_t.chunks_exact_mut(rows.max(1)).enumerate() {
                let (oh, ow) = (p / out_w, p % out_w);
                let mut taps = dst.iter_mut();
                for plane in planes.chunks_exact((ph * pw).max(1)) {
                    for kh in 0..geom.kernel_h {
                        let src = &plane[(oh * stride + kh) * pw + ow * stride..][..geom.kernel_w];
                        // `src` leads the zip so the exhausted side is the short one
                        // and no tap slot is consumed past the kernel row.
                        for (&s, d) in src.iter().zip(&mut taps) {
                            *d = s;
                        }
                    }
                }
            }
        },
    );
}

/// The outputs `o` in `0..out_len` whose input coordinate
/// `o·stride + offset` lands inside `0..in_len`, as a half-open range
/// `[lo, hi)` (empty when no output touches the input).
fn valid_outputs(out_len: usize, in_len: usize, offset: isize, stride: usize) -> (usize, usize) {
    let stride = stride as isize;
    let last = in_len as isize - 1 - offset;
    if last < 0 {
        return (0, 0);
    }
    let hi = ((last / stride + 1) as usize).min(out_len);
    let lo = if offset >= 0 {
        0
    } else {
        ((-offset + stride - 1) / stride) as usize
    };
    (lo.min(hi), hi)
}

/// Folds a `[C*kh*kw, out_h*out_w]` column matrix back into an image
/// `[C, H, W]`, *accumulating* overlapping contributions.
///
/// This is the adjoint of [`im2col_single`]: for all `x`, `y` it holds that
/// `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`. Each `cols` row is folded over the
/// range of outputs whose tap lands inside the image, computed once per row,
/// so the inner loop carries no bounds test; every image element still
/// receives its contributions in `(c, kh, kw, oh, ow)` order, so the sums
/// round exactly as a per-element fold would.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
pub fn col2im_single(
    cols: &[f32],
    channels: usize,
    in_h: usize,
    in_w: usize,
    geom: ConvGeometry,
    out_h: usize,
    out_w: usize,
    output: &mut [f32],
) {
    let col_width = out_h * out_w;
    debug_assert_eq!(output.len(), channels * in_h * in_w);
    debug_assert_eq!(
        cols.len(),
        channels * geom.kernel_h * geom.kernel_w * col_width
    );
    let pad = geom.padding as isize;
    let stride = geom.stride;
    let mut rows = cols.chunks_exact(col_width.max(1));
    for plane in output.chunks_exact_mut((in_h * in_w).max(1)) {
        for kh in 0..geom.kernel_h {
            let offset_h = kh as isize - pad;
            let (oh0, oh1) = valid_outputs(out_h, in_h, offset_h, stride);
            for kw in 0..geom.kernel_w {
                let Some(src) = rows.next() else { return };
                let offset_w = kw as isize - pad;
                let (ow0, ow1) = valid_outputs(out_w, in_w, offset_w, stride);
                if ow0 == ow1 {
                    continue;
                }
                // In range, both coordinates are nonnegative.
                let iw0 = (ow0 * stride) as isize + offset_w;
                for oh in oh0..oh1 {
                    let ih = (oh * stride) as isize + offset_h;
                    let dst = &mut plane[(ih * in_w as isize + iw0) as usize..];
                    let src_row = &src[oh * out_w + ow0..oh * out_w + ow1];
                    if stride == 1 {
                        for (d, &s) in dst.iter_mut().zip(src_row) {
                            *d += s;
                        }
                    } else {
                        for (d, &s) in dst.iter_mut().step_by(stride).zip(src_row) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// * `input` — `[N, C, H, W]`
/// * `weight` — `[O, C, kh, kw]`
/// * `bias` — optional `[O]`
///
/// Returns `[N, O, out_h, out_w]`.
///
/// # Errors
///
/// Returns an error if the ranks are wrong, channel counts disagree, the
/// kernel does not fit the padded input, or the bias length differs from the
/// output channel count.
///
/// # Examples
///
/// ```
/// use tcl_tensor::{ops, Tensor};
/// use tcl_tensor::ops::ConvGeometry;
///
/// // 1x1 convolution with weight 1 is the identity.
/// let x = Tensor::from_fn([1, 1, 2, 2], |i| i as f32);
/// let w = Tensor::ones([1, 1, 1, 1]);
/// let g = ConvGeometry::square(1, 1, 0)?;
/// let y = ops::conv2d(&x, &w, None, g)?;
/// assert_eq!(y.data(), x.data());
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (out_c, wc, kh, kw) = weight.shape().as_nchw()?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight.dims().to_vec(),
        });
    }
    if kh != geom.kernel_h || kw != geom.kernel_w {
        return Err(TensorError::InvalidArgument {
            detail: format!(
                "weight kernel {kh}x{kw} disagrees with geometry {}x{}",
                geom.kernel_h, geom.kernel_w
            ),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::LengthMismatch {
                expected: out_c,
                actual: b.len(),
            });
        }
    }
    let (out_h, out_w) = geom.output_hw(h, w)?;
    let _span = tcl_telemetry::span_with("conv2d", || {
        vec![
            ("batch", n as f64),
            ("in_c", c as f64),
            ("out_c", out_c as f64),
            ("out_h", out_h as f64),
            ("out_w", out_w as f64),
        ]
    });
    let col_rows = c * kh * kw;
    let col_width = out_h * out_w;
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    let item_in = c * h * w;
    let item_out = out_c * out_h * out_w;
    // Batch items write disjoint output slices, so they fan out across
    // threads; each worker keeps a private im2col buffer. Inside a worker
    // the matmul stays serial (nested fan-out is suppressed), while a
    // single-worker run lets the matmul parallelize over rows instead.
    let min_items = min_items_per_worker(out_c * col_rows * col_width);
    par::par_items_mut(
        par::current(),
        out.data_mut(),
        item_out,
        1,
        min_items,
        |first_item, run| {
            let mut cols = vec![0.0f32; col_rows * col_width];
            for (i, dst) in run.chunks_exact_mut(item_out.max(1)).enumerate() {
                let ni = first_item + i;
                let src = &input.data()[ni * item_in..(ni + 1) * item_in];
                im2col_single(src, c, h, w, geom, out_h, out_w, &mut cols);
                matmul_into(weight.data(), &cols, dst, out_c, col_rows, col_width);
                if let Some(b) = bias {
                    for (o, &bv) in b.data().iter().enumerate() {
                        for v in dst[o * col_width..(o + 1) * col_width].iter_mut() {
                            *v += bv;
                        }
                    }
                }
            }
        },
    );
    Ok(out)
}

/// One pass over a synaptic input: how many entries are nonzero, and
/// whether every entry is exactly `0.0` (either sign) or `1.0` — a binary
/// spike raster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeScan {
    /// Nonzero entries.
    pub nonzero: usize,
    /// Every entry is `±0.0` or `1.0` (NaN is not).
    pub binary: bool,
}

impl SpikeScan {
    /// Scans `data` once. Counts accumulate per 1024-entry run in `u32`
    /// and the tests are combined with `&`/`|`, not short-circuits, so the
    /// loop vectorizes.
    pub fn of(data: &[f32]) -> Self {
        let mut nonzero = 0usize;
        let mut odd = 0u32;
        for run in data.chunks(1024) {
            let mut count = 0u32;
            for &v in run {
                count += u32::from(v != 0.0);
                odd |= u32::from((v != 0.0) & (v != 1.0));
            }
            nonzero += count as usize;
        }
        SpikeScan {
            nonzero,
            binary: odd == 0,
        }
    }
}

/// Whether [`conv2d_spikes`] handles `geom`: stride 1 and padding at most
/// one less than each kernel extent, so every output window lies inside
/// the accumulator margin.
pub fn spike_conv_fits(geom: ConvGeometry) -> bool {
    geom.stride == 1 && geom.padding < geom.kernel_h && geom.padding < geom.kernel_w
}

/// Whether the event path computes [`conv2d`]'s bits for this call: the
/// input is binary, every weight is finite and the geometry fits.
///
/// A spike is exactly `1.0`, so `fma(w, 1, acc)` and `acc + w·1` both
/// round to `acc + w`; a skipped zero input would have added `±0`, which
/// changes nothing because an accumulator that starts at `+0` and adds
/// finite weights is never `-0`. The event path visits spikes in
/// ascending `(c, y, x)` order, which visits each output's taps in the
/// GEMM's ascending `(c, kh, kw)` order. A non-finite weight breaks the
/// second step (`0·inf` is NaN), so it keeps the GEMM.
pub fn spike_conv_applies(geom: ConvGeometry, weights_finite: bool, scan: SpikeScan) -> bool {
    scan.binary && weights_finite && spike_conv_fits(geom)
}

/// Whether [`conv2d_weighted_events`] computes [`conv2d`]'s bits for a
/// non-binary input at `level`, and is the faster of the two: the
/// geometry fits, every weight is finite, the GEMM fuses wherever the
/// event walk does, and at most [`WEIGHTED_EVENT_DENSITY`] of the input's
/// `len` entries are nonzero.
///
/// The walk adds `q·tap` for each nonzero entry `q` with [`simd::axpy`],
/// whose multiply-add is fused at [`simd::Level::Avx2`] and unfused below,
/// exactly as the GEMM's full `MR`×`NR` tiles are. Its tap rows are whole
/// 8-lane blocks, so it has no unfused tail. But at `Avx2` only the GEMM's
/// full tiles fuse, so the walk applies there only when the `O` output
/// channels fill whole 4-row bands and the `out_h·out_w` output pixels
/// fill whole 16-column tiles (`out_hw` is the output extent). Each output
/// then sees the GEMM's products in its ascending `(c, kh, kw)` order, and
/// the GEMM's extra terms, one per zero input, add an exact `±0` (`0·w`
/// with `w` finite). Such a term can only change the sign of a zero
/// accumulator, and the copy-out adds `+0` to every accumulator as the
/// GEMM's store does, so the bits agree; a NaN or an infinite input is
/// nonzero and is multiplied in as the GEMM multiplies it.
pub fn weighted_conv_applies(
    level: simd::Level,
    geom: ConvGeometry,
    out_c: usize,
    out_hw: (usize, usize),
    weights_finite: bool,
    scan: SpikeScan,
    len: usize,
) -> bool {
    let fused_tiles = level != simd::Level::Avx2
        || (out_c.is_multiple_of(MR) && (out_hw.0 * out_hw.1).is_multiple_of(NR));
    let (num, den) = WEIGHTED_EVENT_DENSITY;
    weights_finite && spike_conv_fits(geom) && fused_tiles && scan.nonzero * den <= len * num
}

/// The densest non-binary input, as `(numerator, denominator)` of the
/// share of nonzero entries, that takes the weighted event path: the
/// crossover against the GEMM, measured with the
/// `conv_{events,gemm}_8x8x8_o16_batch5_q{25,50,75}` kernel-bench rows.
pub const WEIGHTED_EVENT_DENSITY: (usize, usize) = (1, 2);

/// Rows (output channels) of the GEMM's fused register tile.
const MR: usize = simd::kernels::MR;
/// Columns (output pixels) of the GEMM's fused register tile.
const NR: usize = simd::kernels::NR;

/// Lanes per tap block: each tap vector is padded to whole 8-lane blocks.
const LANES: usize = 8;

/// An `[O, C, kh, kw]` kernel laid out as the tap vectors
/// [`conv2d_spikes`] adds: `[C, kh, kw, O']`, with `O` padded with zeros
/// to `O'`, the next multiple of 8, and both kernel axes reversed, so
/// entry `[c][kh-1-a][kw-1-b][o]` holds `weight[o][c][a][b]`.
///
/// Whole 8-lane blocks make every tap add a run of full vector adds, for
/// any `O`. Reversed, the `kw` taps one spike adds along an accumulator
/// row sit in ascending order, so each kernel row is one contiguous run of
/// `kw·O'` lanes in both operands. Build it once per kernel, not per call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvTaps {
    /// `[C, kh, kw, O']`.
    taps: Tensor,
    /// `O`.
    out_c: usize,
}

impl ConvTaps {
    /// Lays `weight` out as tap vectors.
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank 4.
    pub fn new(weight: &Tensor) -> Result<Self> {
        let (out_c, c, kh, kw) = weight.shape().as_nchw()?;
        let padded = out_c.div_ceil(LANES) * LANES;
        let mut taps = Tensor::zeros([c, kh, kw, padded]);
        let src = weight.data();
        for (t, dst) in taps.data_mut().chunks_exact_mut(padded.max(1)).enumerate() {
            let (ci, a, b) = (t / (kh * kw), kh - 1 - t / kw % kh, kw - 1 - t % kw);
            for (o, d) in dst[..out_c].iter_mut().enumerate() {
                *d = src[((o * c + ci) * kh + a) * kw + b];
            }
        }
        Ok(ConvTaps { taps, out_c })
    }

    /// The padded `[C, kh, kw, O']` tap tensor.
    pub fn taps(&self) -> &Tensor {
        &self.taps
    }

    /// Output channels (`O`, before padding).
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Scales every tap in place, as scaling the kernel would.
    pub fn scale_inplace(&mut self, factor: f32) {
        self.taps.scale_inplace(factor);
    }
}

thread_local! {
    /// [`conv2d_spikes`]' margin accumulator, kept per thread so a call
    /// reuses the buffer of the last one instead of allocating its own.
    static SPIKE_ACC: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Copies one margin-accumulator row out as row `oy` of every output
/// plane: `cells` holds `out_w` cells `padded` lanes apart, lane `o` of
/// cell `ox` going to `dst[o·col_width + oy·out_w + ox]`. Whole groups of
/// 8 columns by 8 channels move as one transpose; the last `out_w % 8`
/// columns, and the channels of a block past `out_c`, are skipped or
/// copied one by one. A bit copy at every level.
#[allow(clippy::too_many_arguments)] // geometry is explicit by design in the hot path
#[inline(always)]
fn copy_out_row(
    level: simd::Level,
    cells: &[f32],
    padded: usize,
    out_c: usize,
    oy: usize,
    out_w: usize,
    col_width: usize,
    dst: &mut [f32],
) {
    let groups = out_w - out_w % LANES;
    for o0 in (0..out_c).step_by(LANES) {
        let channels = (out_c - o0).min(LANES);
        for ox0 in (0..groups).step_by(LANES) {
            let src = &cells[ox0 * padded + o0..];
            let at = o0 * col_width + oy * out_w + ox0;
            if channels == LANES {
                simd::transpose_8x8(level, src, padded, &mut dst[at..], col_width);
            } else {
                let mut block = [0.0f32; LANES * LANES];
                simd::transpose_8x8(level, src, padded, &mut block, LANES);
                for (r, row) in block.chunks_exact(LANES).take(channels).enumerate() {
                    dst[at + r * col_width..][..LANES].copy_from_slice(row);
                }
            }
        }
        for ox in groups..out_w {
            for o in o0..o0 + channels {
                dst[o * col_width + oy * out_w + ox] = cells[ox * padded + o];
            }
        }
    }
}

/// The geometry [`add_events`] walks: the input's `channels × h × w`
/// planes, and in lanes the taps of one kernel row (`seg = kw·O'`), one
/// margin cell (`padded = O'`) and one margin row (`mrow`).
#[derive(Clone, Copy)]
struct SpikeWalk {
    channels: usize,
    h: usize,
    w: usize,
    kh: usize,
    seg: usize,
    padded: usize,
    mrow: usize,
}

/// Adds every nonzero entry `q` of one item `src` into the margin
/// accumulator `acc`: as `q·tap` when `WEIGHTED`, else as a spike (`tap`).
///
/// Each input row gets a [`simd::nonzero_mask`] word per 64 entries.
/// Rows of up to 32 entries share a word at a power-of-two stride (8, 16
/// or 32 bits), so a bit's row and column come from a shift and a mask,
/// never a division, and one walk serves several short rows. The set bits
/// are walked in ascending order, which visits entries in ascending
/// `(y, x)`: an entry adds each of its channel's `kh` kernel rows of taps,
/// `seg` lanes, to the margin row it reaches as one [`simd::axpy`] (or
/// [`simd::add_assign`], which a spike's exact `1·tap` needs no multiply
/// for, and which keeps the spike walk ~25% faster). Inlined into one copy
/// per `level`, so the kernels dispatch at compile time.
#[inline(always)]
fn add_events<const SEG: usize, const WEIGHTED: bool>(
    level: simd::Level,
    src: &[f32],
    taps: &[f32],
    acc: &mut [f32],
    g: SpikeWalk,
) {
    let SpikeWalk {
        channels,
        h,
        w,
        kh,
        padded,
        mrow,
        ..
    } = g;
    debug_assert!(SEG == 0 || SEG == g.seg);
    let seg = if SEG == 0 { g.seg } else { SEG };
    // Bits per row in a shared word, and rows per word (1 past 32 entries).
    let (row_bits, rows_per_word) = match w {
        0..=8 => (8, 8),
        9..=16 => (16, 4),
        17..=32 => (32, 2),
        _ => (simd::MASK_BITS, 1),
    };
    let shift = row_bits.trailing_zeros();
    for ch in 0..channels {
        let kernel = &taps[ch * kh * seg..(ch + 1) * kh * seg];
        let plane = &src[ch * h * w..(ch + 1) * h * w];
        for y0 in (0..h).step_by(rows_per_word) {
            for x0 in (0..w).step_by(simd::MASK_BITS) {
                let mut mask = 0u64;
                for r in 0..rows_per_word.min(h - y0) {
                    let row = &plane[(y0 + r) * w..(y0 + r + 1) * w];
                    let word = &row[x0..w.min(x0 + simd::MASK_BITS)];
                    mask |= simd::nonzero_mask(level, word) << (r * row_bits);
                }
                while mask != 0 {
                    let bit = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let (y, x) = (y0 + (bit >> shift), x0 + (bit & (row_bits - 1)));
                    let at = y * mrow + x * padded;
                    for a in 0..kh {
                        let cells = &mut acc[at + a * mrow..at + a * mrow + seg];
                        let taps = &kernel[a * seg..(a + 1) * seg];
                        if WEIGHTED {
                            simd::axpy(level, plane[y * w + x], taps, cells);
                        } else {
                            simd::add_assign(level, cells, taps);
                        }
                    }
                }
            }
        }
    }
}

/// Event-driven forward convolution of a binary spike raster: every
/// nonzero input entry adds its tap vectors, with no multiply and no
/// im2col.
///
/// * `input` — `[N, C, H, W]`, read as spikes: any nonzero entry counts
///   as `1.0`
/// * `taps` — the kernel as [`ConvTaps`]
/// * `bias` — optional `[O]`
///
/// Returns `[N, O, out_h, out_w]`. When [`spike_conv_applies`] holds, the
/// result is bitwise equal to [`conv2d`] on the same kernel at every SIMD
/// level: the vector kernels it calls only compare, add once per lane or
/// move bits.
///
/// Each item accumulates into a zeroed `[H+kh-1][W+kw-1][O']` margin
/// buffer, reused across calls on a thread. The spikes are found with
/// [`simd::nonzero_mask`] words and visited plane by plane in ascending
/// `(y, x)` order: a spike at `(y, x)` adds kernel row `a` of its
/// channel's taps to the `kw` cells from `(y+a, x)` as one
/// [`simd::add_assign`] over `kw·O'` lanes, so no tap needs a bounds test
/// and no position needs a division. Each in-image margin row then gets
/// the bias plus `+0` (one add per element; see [`conv2d_weighted_events`])
/// and is copied out by [`simd::transpose_8x8`] into `[O, out_h, out_w]`.
///
/// # Errors
///
/// Returns an error if the input is not rank 4, the taps' channels or
/// kernel disagree with the input or the geometry, the bias length differs
/// from `O`, the kernel does not fit the padded input, or
/// [`spike_conv_fits`] does not hold.
pub fn conv2d_spikes(
    input: &Tensor,
    taps: &ConvTaps,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    conv2d_events::<false>(input, taps, bias, geom)
}

/// Event-driven forward convolution of any input: every nonzero input
/// entry `q` (NaN and ±inf included) adds `q` times its tap vectors, with
/// no im2col.
///
/// * `input` — `[N, C, H, W]`; zeros of either sign are skipped
/// * `taps` — the kernel as [`ConvTaps`]
/// * `bias` — optional `[O]`
///
/// Returns `[N, O, out_h, out_w]`. When [`weighted_conv_applies`] holds at
/// the current SIMD level, the result is bitwise equal to [`conv2d`] on
/// the same kernel.
///
/// The walk is [`conv2d_spikes`]' with one [`simd::axpy`] of `q` per
/// kernel row in place of the add: fused at `Avx2`, unfused below, as the
/// GEMM's full tiles are. A fused product that underflows can leave a `-0`
/// accumulator where the GEMM, adding `0·w` for a skipped zero input, has
/// `+0`; the GEMM then stores `0 + acc` into its zeroed output. The
/// copy-out's add of `b + 0` (`+0` without a bias) gives the same bits:
/// `acc + (b + 0)` equals `(0 + acc) + b` for every `acc` and `b`.
///
/// # Errors
///
/// As for [`conv2d_spikes`].
pub fn conv2d_weighted_events(
    input: &Tensor,
    taps: &ConvTaps,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    conv2d_events::<true>(input, taps, bias, geom)
}

/// The body of [`conv2d_spikes`] (`WEIGHTED` false) and
/// [`conv2d_weighted_events`] (`WEIGHTED` true).
fn conv2d_events<const WEIGHTED: bool>(
    input: &Tensor,
    taps: &ConvTaps,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (tc, kh, kw, padded) = taps.taps.shape().as_nchw()?;
    let out_c = taps.out_c;
    if tc != c {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: taps.taps.dims().to_vec(),
        });
    }
    if kh != geom.kernel_h || kw != geom.kernel_w || !spike_conv_fits(geom) {
        return Err(TensorError::InvalidArgument {
            detail: format!(
                "spike conv: taps {kh}x{kw} with geometry {geom:?} (needs stride 1, padding < kernel)"
            ),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::LengthMismatch {
                expected: out_c,
                actual: b.len(),
            });
        }
    }
    let (out_h, out_w) = geom.output_hw(h, w)?;
    let name = if WEIGHTED {
        "conv2d_weighted_events"
    } else {
        "conv2d_spikes"
    };
    let _span = tcl_telemetry::span_with(name, || {
        vec![
            ("batch", n as f64),
            ("in_c", c as f64),
            ("out_c", out_c as f64),
            ("out_h", out_h as f64),
            ("out_w", out_w as f64),
        ]
    });
    let (mh, mw) = (h + kh - 1, w + kw - 1);
    let walk = SpikeWalk {
        channels: c,
        h,
        w,
        kh,
        seg: kw * padded,
        padded,
        mrow: mw * padded,
    };
    let mrow = walk.mrow;
    // Output (oy, ox) sits at margin cell (oy + top, ox + left).
    let (top, left) = (kh - 1 - geom.padding, kw - 1 - geom.padding);
    let taps = taps.taps.data();
    let col_width = out_h * out_w;
    let item_in = c * h * w;
    let item_out = out_c * col_width;
    let row_lanes = out_w * padded;
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    let level = simd::current();
    // One item: its entries into the zeroed margin, then the in-image
    // window, bias added, out as `[O, out_h, out_w]`.
    let event_item = |level, src: &[f32], acc: &mut [f32], bias_row: &[f32], dst: &mut [f32]| {
        // The same walk, with the tap-row length a constant for a 3×3
        // kernel into 8 or 16 channels (cnn6's event-driven convolutions):
        // the adds then unroll, which halves their cost.
        match walk.seg {
            24 => add_events::<24, WEIGHTED>(level, src, taps, acc, walk),
            48 => add_events::<48, WEIGHTED>(level, src, taps, acc, walk),
            _ => add_events::<0, WEIGHTED>(level, src, taps, acc, walk),
        }
        for oy in 0..out_h {
            let row = (oy + top) * mrow + left * padded;
            let cells = &mut acc[row..row + row_lanes];
            simd::add_assign(level, cells, bias_row);
            copy_out_row(level, cells, padded, out_c, oy, out_w, col_width, dst);
        }
    };
    // The dense multiply-add count, as conv2d estimates it.
    let min_items = min_items_per_worker(item_in * kh * kw * out_c);
    par::par_items_mut(
        par::current(),
        out.data_mut(),
        item_out,
        1,
        min_items,
        |first_item, run| {
            SPIKE_ACC.with_borrow_mut(|buf| {
                buf.resize(mh * mrow + row_lanes, 0.0);
                let (acc, bias_row) = buf.split_at_mut(mh * mrow);
                // One margin row of `b + 0` (zeros without a bias): adding
                // it is `conv2d`'s `(0 + acc) + b`, `-0` included.
                for cell in bias_row.chunks_exact_mut(padded.max(1)) {
                    for (o, v) in cell.iter_mut().enumerate() {
                        *v = bias.and_then(|b| b.data().get(o)).map_or(0.0, |&b| b + 0.0);
                    }
                }
                for (i, dst) in run.chunks_exact_mut(item_out.max(1)).enumerate() {
                    let ni = first_item + i;
                    let src = &input.data()[ni * item_in..(ni + 1) * item_in];
                    acc.fill(0.0);
                    // One copy of the item per level, so the kernels' level
                    // dispatch folds away inside the per-entry loop.
                    match level {
                        simd::Level::Scalar => {
                            event_item(simd::Level::Scalar, src, acc, bias_row, dst)
                        }
                        simd::Level::Wide => event_item(simd::Level::Wide, src, acc, bias_row, dst),
                        simd::Level::Avx2 => event_item(simd::Level::Avx2, src, acc, bias_row, dst),
                    }
                }
            });
        },
    );
    Ok(out)
}

/// Gradients of [`conv2d`] with respect to input, weight, and bias.
#[derive(Debug, Clone)]
pub struct Conv2dGradients {
    /// Gradient with respect to the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight, `[O, C, kh, kw]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[O]` (zeros when the forward pass
    /// had no bias — callers simply ignore it).
    pub grad_bias: Tensor,
}

/// Backward 2-D convolution.
///
/// Given the forward inputs and the upstream gradient `grad_output`
/// (`[N, O, out_h, out_w]`), computes gradients for input, weight, and bias.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the forward geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    geom: ConvGeometry,
) -> Result<Conv2dGradients> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (out_c, _, kh, kw) = weight.shape().as_nchw()?;
    let (gn, go, goh, gow) = grad_output.shape().as_nchw()?;
    let (out_h, out_w) = geom.output_hw(h, w)?;
    if gn != n || go != out_c || goh != out_h || gow != out_w {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, out_c, out_h, out_w],
            right: grad_output.dims().to_vec(),
        });
    }
    let col_rows = c * kh * kw;
    let col_width = out_h * out_w;
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let mut grad_weight = Tensor::zeros(weight.shape().clone());
    let mut grad_bias = Tensor::zeros([out_c]);
    let item_in = c * h * w;
    let item_out = out_c * col_width;

    // Phase 1 — input gradients, parallel over batch items: each item's
    // `dCols = Wᵀ @ dY` and col2im fold write a disjoint grad_input slice.
    // Per-item bias partials ride along in lockstep slots and are folded in
    // item order afterwards, so results are thread-count-invariant.
    let mut wt = vec![0.0f32; out_c * col_rows];
    transpose_into(weight.data(), &mut wt, out_c, col_rows);
    let mut bias_partials = vec![0.0f32; n * out_c];
    let min_items = min_items_per_worker(col_rows * out_c * col_width);
    par::par_items_mut2(
        par::current(),
        grad_input.data_mut(),
        item_in,
        &mut bias_partials,
        out_c,
        1,
        min_items,
        |first_item, gi_run, db_run| {
            let mut dcols = vec![0.0f32; col_rows * col_width];
            for (i, (dst, db)) in gi_run
                .chunks_exact_mut(item_in.max(1))
                .zip(db_run.chunks_exact_mut(out_c.max(1)))
                .enumerate()
            {
                let ni = first_item + i;
                let gout = &grad_output.data()[ni * item_out..(ni + 1) * item_out];
                dcols.fill(0.0);
                matmul_into(&wt, gout, &mut dcols, col_rows, out_c, col_width);
                col2im_single(&dcols, c, h, w, geom, out_h, out_w, dst);
                for (o, gb) in db.iter_mut().enumerate() {
                    *gb = gout[o * col_width..(o + 1) * col_width].iter().sum::<f32>();
                }
            }
        },
    );
    for item in bias_partials.chunks_exact(out_c.max(1)) {
        for (gb, &p) in grad_bias.data_mut().iter_mut().zip(item) {
            *gb += p;
        }
    }

    // Phase 2 — weight gradients, serial over items (the accumulation into
    // dW is a reduction, so item order is kept fixed); the inner matmul
    // parallelizes over its own output rows.
    let mut cols_t = vec![0.0f32; col_rows * col_width];
    for ni in 0..n {
        let src = &input.data()[ni * item_in..(ni + 1) * item_in];
        // dW += dY @ colsᵀ  ([O, CW] @ [CW, CR] -> [O, CR]), with colsᵀ
        // lowered directly in its transposed layout.
        im2col_transposed_single(src, c, h, w, geom, out_h, out_w, &mut cols_t);
        let gout = &grad_output.data()[ni * item_out..(ni + 1) * item_out];
        matmul_into(
            gout,
            &cols_t,
            grad_weight.data_mut(),
            out_c,
            col_width,
            col_rows,
        );
    }
    Ok(Conv2dGradients {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validates_arguments() {
        assert!(ConvGeometry::new(0, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(3, 3, 1, 0).is_ok());
    }

    #[test]
    fn output_hw_matches_formula() {
        let g = ConvGeometry::square(3, 1, 1).unwrap();
        assert_eq!(g.output_hw(8, 8).unwrap(), (8, 8));
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        assert_eq!(g.output_hw(8, 8).unwrap(), (4, 4));
        let g = ConvGeometry::square(5, 1, 0).unwrap();
        assert!(g.output_hw(3, 3).is_err());
    }

    #[test]
    fn identity_1x1_convolution() {
        let x = Tensor::from_fn([2, 3, 4, 4], |i| (i as f32).sin());
        let mut w = Tensor::zeros([3, 3, 1, 1]);
        for c in 0..3 {
            w.set4(c, c, 0, 0, 1.0);
        }
        let g = ConvGeometry::square(1, 1, 0).unwrap();
        let y = conv2d(&x, &w, None, g).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_adds_per_output_channel() {
        let x = Tensor::zeros([1, 1, 3, 3]);
        let w = Tensor::zeros([2, 1, 3, 3]);
        let b = Tensor::from_slice(&[1.5, -2.0]);
        let g = ConvGeometry::square(3, 1, 1).unwrap();
        let y = conv2d(&x, &w, Some(&b), g).unwrap();
        for h in 0..3 {
            for wd in 0..3 {
                assert_eq!(y.at4(0, 0, h, wd), 1.5);
                assert_eq!(y.at4(0, 1, h, wd), -2.0);
            }
        }
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let x = Tensor::zeros([1, 2, 4, 4]);
        let w = Tensor::zeros([1, 3, 3, 3]);
        let g = ConvGeometry::square(3, 1, 1).unwrap();
        assert!(conv2d(&x, &w, None, g).is_err());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = Tensor::from_fn([1, 2, 5, 5], |i| ((i * 31 % 13) as f32 - 6.0) * 0.1);
        let w = Tensor::from_fn([3, 2, 3, 3], |i| ((i * 7 % 9) as f32 - 4.0) * 0.1);
        let b = Tensor::from_slice(&[0.1, -0.2, 0.3]);
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        // Loss = sum of outputs, so upstream gradient is all-ones.
        let y = conv2d(&x, &w, Some(&b), g).unwrap();
        let gout = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&x, &w, &gout, g).unwrap();
        let eps = 1e-2f32;
        let loss = |xt: &Tensor, wt: &Tensor, bt: &Tensor| -> f32 {
            conv2d(xt, wt, Some(bt), g).unwrap().sum()
        };
        // Check a scattering of coordinates in each gradient.
        for idx in [0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (grads.grad_input.at(idx) - fd).abs() < 1e-2,
                "input idx {idx}: analytic {} vs fd {fd}",
                grads.grad_input.at(idx)
            );
        }
        for idx in [0usize, 11, 35, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (grads.grad_weight.at(idx) - fd).abs() < 1e-2,
                "weight idx {idx}: analytic {} vs fd {fd}",
                grads.grad_weight.at(idx)
            );
        }
        for idx in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((grads.grad_bias.at(idx) - fd).abs() < 1e-2);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        let c = 2;
        let (h, w) = (5, 4);
        let g = ConvGeometry::square(3, 2, 1).unwrap();
        let (oh, ow) = g.output_hw(h, w).unwrap();
        let col_len = c * 9 * oh * ow;
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..col_len).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut cols = vec![0.0; col_len];
        im2col_single(&x, c, h, w, g, oh, ow, &mut cols);
        let mut folded = vec![0.0; c * h * w];
        col2im_single(&y, c, h, w, g, oh, ow, &mut folded);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
