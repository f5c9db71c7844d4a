//! Spatial pooling kernels.
//!
//! The conversion pipeline (Section 3.1 of the paper) replaces max-pooling by
//! average-pooling, because an average of spike trains is itself a valid
//! synaptic current while a max is not. Both are provided: max-pooling for
//! the unconstrained ANN baselines, average pooling for convertible networks.
//!
//! All kernels iterate `[N, C]` planes through contiguous slices and fan the
//! plane loop out across threads (see [`crate::par`]); planes are fully
//! independent, so results are bitwise identical for every thread count.

use crate::error::{Result, TensorError};
use crate::ops::conv::ConvGeometry;
use crate::par::{self, min_items_per_worker};
use crate::tensor::Tensor;

/// Forward average pooling with window `kernel`, stride `stride`, no padding.
///
/// Input `[N, C, H, W]`, output `[N, C, H/stride-ish, W/stride-ish]` per the
/// usual floor formula.
///
/// # Errors
///
/// Returns an error for rank mismatches or a window larger than the input.
///
/// # Examples
///
/// ```
/// use tcl_tensor::{ops, Tensor};
///
/// let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0])?;
/// let y = ops::avg_pool2d(&x, 2, 2)?;
/// assert_eq!(y.data(), &[4.0]);
/// # Ok::<(), tcl_tensor::TensorError>(())
/// ```
pub fn avg_pool2d(input: &Tensor, kernel: usize, stride: usize) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let geom = ConvGeometry::square(kernel, stride, 0)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let _span = tcl_telemetry::span_with("avg_pool2d", || {
        vec![
            ("planes", (n * c) as f64),
            ("kernel", kernel as f64),
            ("stride", stride as f64),
        ]
    });
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let inv = 1.0 / (kernel * kernel) as f32;
    let in_plane = h * w;
    let out_plane = oh * ow;
    let min_planes = min_items_per_worker(out_plane * kernel * kernel);
    par::par_items_mut(
        par::current(),
        out.data_mut(),
        out_plane,
        1,
        min_planes,
        |first_plane, run| {
            for (i, dst) in run.chunks_exact_mut(out_plane).enumerate() {
                let src = &input.data()[(first_plane + i) * in_plane..][..in_plane];
                if kernel == 2 && stride == 2 {
                    avg_pool_2x2_plane(src, w, ow, dst, inv);
                    continue;
                }
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..kernel {
                            let row = &src[(y * stride + ky) * w + x * stride..][..kernel];
                            for &v in row {
                                acc += v;
                            }
                        }
                        dst[y * ow + x] = acc * inv;
                    }
                }
            }
        },
    );
    Ok(out)
}

/// One plane of 2×2, stride-2 average pooling: `dst` is the `[oh, ow]`
/// output, `src` the `[h, w]` input with `w` columns.
///
/// Each output adds its window in the generic loop's order, starting from
/// `0.0` (so a `-0.0` window still gives `+0.0`), and scales by `inv`: the
/// bits equal the generic loop's, without its per-tap slicing.
fn avg_pool_2x2_plane(src: &[f32], w: usize, ow: usize, dst: &mut [f32], inv: f32) {
    for (y, out_row) in dst.chunks_exact_mut(ow).enumerate() {
        let top = &src[2 * y * w..][..2 * ow];
        let bottom = &src[(2 * y + 1) * w..][..2 * ow];
        for ((d, a), b) in out_row
            .iter_mut()
            .zip(top.chunks_exact(2))
            .zip(bottom.chunks_exact(2))
        {
            *d = ((((0.0 + a[0]) + a[1]) + b[0]) + b[1]) * inv;
        }
    }
}

/// Backward average pooling: spreads each output gradient uniformly over its
/// window.
///
/// # Errors
///
/// Returns an error if `grad_output`'s shape disagrees with the forward
/// geometry.
pub fn avg_pool2d_backward(
    input_shape: &crate::Shape,
    grad_output: &Tensor,
    kernel: usize,
    stride: usize,
) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw()?;
    let geom = ConvGeometry::square(kernel, stride, 0)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let (gn, gc, gh, gw) = grad_output.shape().as_nchw()?;
    if (gn, gc, gh, gw) != (n, c, oh, ow) {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c, oh, ow],
            right: grad_output.dims().to_vec(),
        });
    }
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let inv = 1.0 / (kernel * kernel) as f32;
    let in_plane = h * w;
    let out_plane = oh * ow;
    let min_planes = min_items_per_worker(out_plane * kernel * kernel);
    par::par_items_mut(
        par::current(),
        grad_input.data_mut(),
        in_plane,
        1,
        min_planes,
        |first_plane, run| {
            for (i, dst) in run.chunks_exact_mut(in_plane).enumerate() {
                let gout = &grad_output.data()[(first_plane + i) * out_plane..][..out_plane];
                for y in 0..oh {
                    for x in 0..ow {
                        let g = gout[y * ow + x] * inv;
                        for ky in 0..kernel {
                            let row = &mut dst[(y * stride + ky) * w + x * stride..][..kernel];
                            for v in row {
                                *v += g;
                            }
                        }
                    }
                }
            }
        },
    );
    Ok(grad_input)
}

/// Result of a max-pooling forward pass: the pooled tensor plus the flat
/// input index of each window's winner (needed by the backward pass).
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled values, `[N, C, out_h, out_w]`.
    pub output: Tensor,
    /// For each output element, the flat index into the input buffer of the
    /// element that won its window.
    pub argmax: Vec<usize>,
}

/// Forward max pooling with window `kernel`, stride `stride`, no padding.
///
/// # Errors
///
/// Returns an error for rank mismatches or a window larger than the input.
pub fn max_pool2d(input: &Tensor, kernel: usize, stride: usize) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let geom = ConvGeometry::square(kernel, stride, 0)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let in_plane = h * w;
    let out_plane = oh * ow;
    let mut argmax = vec![0usize; n * c * out_plane];
    let min_planes = min_items_per_worker(out_plane * kernel * kernel);
    par::par_items_mut2(
        par::current(),
        out.data_mut(),
        out_plane,
        &mut argmax,
        out_plane,
        1,
        min_planes,
        |first_plane, run, arg_run| {
            for (i, (dst, args)) in run
                .chunks_exact_mut(out_plane)
                .zip(arg_run.chunks_exact_mut(out_plane))
                .enumerate()
            {
                let plane = first_plane + i;
                let base = plane * in_plane;
                let src = &input.data()[base..base + in_plane];
                for y in 0..oh {
                    for x in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..kernel {
                            let iy = y * stride + ky;
                            for kx in 0..kernel {
                                let ix = x * stride + kx;
                                let v = src[iy * w + ix];
                                if v > best {
                                    best = v;
                                    best_idx = base + iy * w + ix;
                                }
                            }
                        }
                        dst[y * ow + x] = best;
                        args[y * ow + x] = best_idx;
                    }
                }
            }
        },
    );
    Ok(MaxPoolOutput {
        output: out,
        argmax,
    })
}

/// Backward max pooling: routes each output gradient to its window's winner.
///
/// # Errors
///
/// Returns an error if `grad_output` length disagrees with `argmax`.
pub fn max_pool2d_backward(
    input_shape: &crate::Shape,
    grad_output: &Tensor,
    argmax: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_output.len(),
        });
    }
    let mut grad_input = Tensor::zeros(input_shape.clone());
    let gi = grad_input.data_mut();
    for (g, &idx) in grad_output.data().iter().zip(argmax) {
        gi[idx] += g;
    }
    Ok(grad_input)
}

/// Global average pooling: `[N, C, H, W]` → `[N, C, 1, 1]`.
///
/// Used as the final spatial reduction in the ResNet family; like average
/// pooling it is spike-compatible.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let mut out = Tensor::zeros([n, c, 1, 1]);
    let plane = h * w;
    let inv = 1.0 / plane as f32;
    let min_planes = min_items_per_worker(plane);
    par::par_items_mut(
        par::current(),
        out.data_mut(),
        1,
        1,
        min_planes,
        |first_plane, run| {
            for (i, dst) in run.iter_mut().enumerate() {
                let base = (first_plane + i) * plane;
                let s: f32 = input.data()[base..base + plane].iter().sum();
                *dst = s * inv;
            }
        },
    );
    Ok(out)
}

/// Backward of [`global_avg_pool`].
///
/// # Errors
///
/// Returns an error if `grad_output` is not `[N, C, 1, 1]` for the given
/// input shape.
pub fn global_avg_pool_backward(
    input_shape: &crate::Shape,
    grad_output: &Tensor,
) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw()?;
    let (gn, gc, gh, gw) = grad_output.shape().as_nchw()?;
    if (gn, gc, gh, gw) != (n, c, 1, 1) {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c, 1, 1],
            right: grad_output.dims().to_vec(),
        });
    }
    let plane = h * w;
    let inv = 1.0 / plane as f32;
    let mut grad_input = Tensor::zeros([n, c, h, w]);
    let min_planes = min_items_per_worker(plane);
    par::par_items_mut(
        par::current(),
        grad_input.data_mut(),
        plane,
        1,
        min_planes,
        |first_plane, run| {
            for (i, dst) in run.chunks_exact_mut(plane).enumerate() {
                let g = grad_output.data()[first_plane + i] * inv;
                dst.fill(g);
            }
        },
    );
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn avg_pool_averages_windows() {
        let x = Tensor::from_fn([1, 1, 4, 4], |i| i as f32);
        let y = avg_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let shape = Shape::new([1, 1, 4, 4]);
        let gout = Tensor::from_vec([1, 1, 2, 2], vec![4.0, 8.0, 12.0, 16.0]).unwrap();
        let gin = avg_pool2d_backward(&shape, &gout, 2, 2).unwrap();
        assert_eq!(gin.at4(0, 0, 0, 0), 1.0);
        assert_eq!(gin.at4(0, 0, 0, 2), 2.0);
        assert_eq!(gin.at4(0, 0, 3, 3), 4.0);
        assert!((gin.sum() - gout.sum()).abs() < 1e-6);
    }

    #[test]
    fn max_pool_takes_window_maximum() {
        let x =
            Tensor::from_vec([1, 1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 4.0, 9.0]).unwrap();
        let y = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.output.data(), &[5.0, 9.0]);
        assert_eq!(y.argmax, vec![1, 7]);
    }

    #[test]
    fn max_pool_backward_routes_to_winner() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 5.0, 2.0, 0.0]).unwrap();
        let fwd = max_pool2d(&x, 2, 2).unwrap();
        let gout = Tensor::from_vec([1, 1, 1, 1], vec![3.0]).unwrap();
        let gin = max_pool2d_backward(x.shape(), &gout, &fwd.argmax).unwrap();
        assert_eq!(gin.data(), &[0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_with_stride_one_overlaps() {
        let x = Tensor::from_fn([1, 1, 3, 3], |i| i as f32);
        let y = avg_pool2d(&x, 2, 1).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial_dims() {
        let x = Tensor::from_fn([2, 3, 2, 2], |i| i as f32);
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3, 1, 1]);
        assert_eq!(y.data()[0], 1.5);
        assert_eq!(y.data()[5], 21.5);
    }

    #[test]
    fn global_avg_pool_backward_conserves_gradient_mass() {
        let shape = Shape::new([1, 2, 3, 3]);
        let gout = Tensor::from_vec([1, 2, 1, 1], vec![9.0, 18.0]).unwrap();
        let gin = global_avg_pool_backward(&shape, &gout).unwrap();
        assert!((gin.sum() - 27.0).abs() < 1e-5);
        assert!((gin.at4(0, 0, 1, 1) - 1.0).abs() < 1e-6);
        assert!((gin.at4(0, 1, 2, 2) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn window_larger_than_input_is_rejected() {
        let x = Tensor::zeros([1, 1, 2, 2]);
        assert!(avg_pool2d(&x, 3, 1).is_err());
        assert!(max_pool2d(&x, 4, 1).is_err());
    }

    #[test]
    fn pooling_is_thread_count_invariant() {
        // Plane fan-out must not change any result; exercised via the
        // with_serial escape hatch versus the default budget.
        let x = Tensor::from_fn([3, 4, 6, 6], |i| ((i * 29 % 23) as f32 - 11.0) * 0.3);
        let par_avg = avg_pool2d(&x, 2, 2).unwrap();
        let par_max = max_pool2d(&x, 3, 1).unwrap();
        let (ser_avg, ser_max) =
            crate::par::with_serial(|| (avg_pool2d(&x, 2, 2), max_pool2d(&x, 3, 1)));
        assert_eq!(par_avg, ser_avg.unwrap());
        let ser_max = ser_max.unwrap();
        assert_eq!(par_max.output, ser_max.output);
        assert_eq!(par_max.argmax, ser_max.argmax);
    }
}
