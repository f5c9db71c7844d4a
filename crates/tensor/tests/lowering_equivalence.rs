//! The range-based im2col/col2im lowering against a per-element reference.
//!
//! `reference_im2col` and `reference_col2im` below are the direct
//! lowering: every tap computes its input coordinate and tests it against
//! the image bounds. The library lowers whole rows instead (see
//! `tcl_tensor::ops::im2col_single`), and its contract is that nothing
//! observable changes: the same `cols` bits, the same fold order per
//! element, and therefore the same `conv2d` / `conv2d_backward` bits at
//! every SIMD level. These properties pin that contract over random
//! geometries — strides 1–3, padding from 0 to beyond the kernel, 1×1
//! kernels, narrow outputs, and rows that never touch the image.

use proptest::prelude::*;
use tcl_tensor::ops::{
    col2im_single, conv2d, conv2d_backward, im2col_single, im2col_transposed_single, matmul_into,
    transpose_into, ConvGeometry,
};
use tcl_tensor::{simd, SeededRng, Tensor};

/// Per-element im2col: the reference the row-copy lowering must match.
#[allow(clippy::too_many_arguments)]
fn reference_im2col(
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
    let pad = geom.padding as isize;
    let stride = geom.stride as isize;
    let mut row = 0usize;
    for c in 0..channels {
        let plane = &input[c * in_h * in_w..(c + 1) * in_h * in_w];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let dst = &mut cols[row * col_width..(row + 1) * col_width];
                let mut idx = 0usize;
                for oh in 0..out_h {
                    let ih = oh as isize * stride + kh as isize - pad;
                    for ow in 0..out_w {
                        let iw = ow as isize * stride + kw as isize - pad;
                        let inside = ih >= 0 && ih < in_h as isize && iw >= 0 && iw < in_w as isize;
                        dst[idx] = if inside {
                            plane[ih as usize * in_w + iw as usize]
                        } else {
                            0.0
                        };
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Per-element col2im, accumulating in `(c, kh, kw, oh, ow)` order.
#[allow(clippy::too_many_arguments)]
fn reference_col2im(
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
    let pad = geom.padding as isize;
    let stride = geom.stride as isize;
    let mut row = 0usize;
    for c in 0..channels {
        let plane = &mut output[c * in_h * in_w..(c + 1) * in_h * in_w];
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let src = &cols[row * col_width..(row + 1) * col_width];
                let mut idx = 0usize;
                for oh in 0..out_h {
                    let ih = oh as isize * stride + kh as isize - pad;
                    for ow in 0..out_w {
                        let iw = ow as isize * stride + kw as isize - pad;
                        if ih >= 0 && ih < in_h as isize && iw >= 0 && iw < in_w as isize {
                            plane[ih as usize * in_w + iw as usize] += src[idx];
                        }
                        idx += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// `conv2d` rebuilt on the reference lowering: per item, lower then
/// multiply, then add the bias — the library's own sequence of kernels.
fn reference_conv2d(x: &Tensor, w: &Tensor, b: &Tensor, geom: ConvGeometry) -> Vec<f32> {
    let (n, c, h, wd) = x.shape().as_nchw().unwrap();
    let out_c = w.dims()[0];
    let (oh, ow) = geom.output_hw(h, wd).unwrap();
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cw = oh * ow;
    let mut out = vec![0.0f32; n * out_c * cw];
    let mut cols = vec![0.0f32; rows * cw];
    for (ni, dst) in out.chunks_exact_mut(out_c * cw).enumerate() {
        let src = &x.data()[ni * c * h * wd..(ni + 1) * c * h * wd];
        reference_im2col(src, c, h, wd, geom, oh, ow, &mut cols);
        matmul_into(w.data(), &cols, dst, out_c, rows, cw);
        for (o, &bv) in b.data().iter().enumerate() {
            for v in dst[o * cw..(o + 1) * cw].iter_mut() {
                *v += bv;
            }
        }
    }
    out
}

/// `conv2d_backward` rebuilt on the reference lowering, with the explicit
/// transpose of the im2col matrix the weight-gradient phase used to make.
fn reference_backward(
    x: &Tensor,
    w: &Tensor,
    gout: &Tensor,
    geom: ConvGeometry,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c, h, wd) = x.shape().as_nchw().unwrap();
    let out_c = w.dims()[0];
    let (oh, ow) = geom.output_hw(h, wd).unwrap();
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cw = oh * ow;
    let item_in = c * h * wd;
    let mut wt = vec![0.0f32; out_c * rows];
    transpose_into(w.data(), &mut wt, out_c, rows);
    let mut grad_input = vec![0.0f32; n * item_in];
    let mut grad_bias = vec![0.0f32; out_c];
    let mut grad_weight = vec![0.0f32; out_c * rows];
    let mut dcols = vec![0.0f32; rows * cw];
    let mut cols = vec![0.0f32; rows * cw];
    let mut cols_t = vec![0.0f32; rows * cw];
    for ni in 0..n {
        let g = &gout.data()[ni * out_c * cw..(ni + 1) * out_c * cw];
        dcols.fill(0.0);
        matmul_into(&wt, g, &mut dcols, rows, out_c, cw);
        let dst = &mut grad_input[ni * item_in..(ni + 1) * item_in];
        reference_col2im(&dcols, c, h, wd, geom, oh, ow, dst);
        for (o, gb) in grad_bias.iter_mut().enumerate() {
            *gb += g[o * cw..(o + 1) * cw].iter().sum::<f32>();
        }
    }
    for ni in 0..n {
        let src = &x.data()[ni * item_in..(ni + 1) * item_in];
        reference_im2col(src, c, h, wd, geom, oh, ow, &mut cols);
        transpose_into(&cols, &mut cols_t, rows, cw);
        let g = &gout.data()[ni * out_c * cw..(ni + 1) * out_c * cw];
        matmul_into(g, &cols_t, &mut grad_weight, out_c, cw, rows);
    }
    (grad_input, grad_weight, grad_bias)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Values with full mantissas and varied exponents, so that summing the
/// same terms in another order rounds differently. (`uniform` draws from a
/// 2⁻²³ grid, on which short sums can be exact in any order.)
fn random_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.normal() / 3.0).collect()
}

/// A geometry drawn from the property's raw parameters, or `None` if the
/// kernel does not fit the padded input.
fn geometry(
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
    in_hw: (usize, usize),
) -> Option<(ConvGeometry, usize, usize)> {
    let geom = ConvGeometry::new(kernel.0, kernel.1, stride, padding).ok()?;
    let (oh, ow) = geom.output_hw(in_hw.0, in_hw.1).ok()?;
    Some((geom, oh, ow))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every `cols` element — padding and interior — carries the reference
    /// bits, in both the row-major and the transposed layout. Both outputs
    /// start as NaN so an element the lowering forgets to write shows.
    #[test]
    fn im2col_matches_reference_bitwise(
        channels in 1usize..4,
        in_h in 1usize..12,
        in_w in 1usize..20,
        kh in 1usize..5,
        kw in 1usize..5,
        stride in 1usize..4,
        extra_pad in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        // Padding from 0 up to two past the larger kernel extent.
        let padding = extra_pad.min(kh.max(kw) + 2);
        let Some((geom, oh, ow)) = geometry((kh, kw), stride, padding, (in_h, in_w)) else {
            return Ok(());
        };
        let mut rng = SeededRng::new(seed);
        let input = random_vec(&mut rng, channels * in_h * in_w);
        let len = channels * kh * kw * oh * ow;
        let mut want = vec![f32::NAN; len];
        reference_im2col(&input, channels, in_h, in_w, geom, oh, ow, &mut want);
        let mut got = vec![f32::NAN; len];
        im2col_single(&input, channels, in_h, in_w, geom, oh, ow, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "geom {:?} in {}x{}", geom, in_h, in_w);

        let rows = channels * kh * kw;
        let mut want_t = vec![0.0f32; len];
        transpose_into(&want, &mut want_t, rows, oh * ow);
        let mut got_t = vec![f32::NAN; len];
        im2col_transposed_single(&input, channels, in_h, in_w, geom, oh, ow, &mut got_t);
        prop_assert_eq!(bits(&got_t), bits(&want_t), "transposed, geom {:?}", geom);
    }

    /// The fold accumulates into a nonzero image in the reference order, so
    /// every sum rounds identically.
    #[test]
    fn col2im_matches_reference_bitwise(
        channels in 1usize..4,
        in_h in 1usize..12,
        in_w in 1usize..20,
        kh in 1usize..5,
        kw in 1usize..5,
        stride in 1usize..4,
        extra_pad in 0usize..7,
        seed in 0u64..1_000_000,
    ) {
        let padding = extra_pad.min(kh.max(kw) + 2);
        let Some((geom, oh, ow)) = geometry((kh, kw), stride, padding, (in_h, in_w)) else {
            return Ok(());
        };
        let mut rng = SeededRng::new(seed);
        let cols = random_vec(&mut rng, channels * kh * kw * oh * ow);
        let start = random_vec(&mut rng, channels * in_h * in_w);
        let mut want = start.clone();
        reference_col2im(&cols, channels, in_h, in_w, geom, oh, ow, &mut want);
        let mut got = start;
        col2im_single(&cols, channels, in_h, in_w, geom, oh, ow, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "geom {:?} in {}x{}", geom, in_h, in_w);
    }

    /// `conv2d` and all three `conv2d_backward` gradients equal the
    /// reference-lowered computation bitwise at every available SIMD level.
    #[test]
    fn conv2d_forward_and_backward_match_reference_lowering(
        batch in 1usize..3,
        in_c in 1usize..4,
        out_c in 1usize..5,
        in_h in 1usize..10,
        in_w in 1usize..19,
        kernel in 1usize..4,
        stride in 1usize..4,
        extra_pad in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let padding = extra_pad.min(kernel + 2);
        let Some((geom, oh, ow)) = geometry((kernel, kernel), stride, padding, (in_h, in_w)) else {
            return Ok(());
        };
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor([batch, in_c, in_h, in_w], -1.0, 1.0);
        let w = rng.uniform_tensor([out_c, in_c, kernel, kernel], -0.5, 0.5);
        let b = rng.uniform_tensor([out_c], -0.5, 0.5);
        let gout = rng.uniform_tensor([batch, out_c, oh, ow], -1.0, 1.0);
        for level in simd::Level::available() {
            simd::with_level(level, || -> Result<(), TestCaseError> {
                let y = conv2d(&x, &w, Some(&b), geom).unwrap();
                let want_y = reference_conv2d(&x, &w, &b, geom);
                prop_assert_eq!(bits(y.data()), bits(&want_y), "{} forward {:?}", level.name(), geom);
                let grads = conv2d_backward(&x, &w, &gout, geom).unwrap();
                let (gi, gw, gb) = reference_backward(&x, &w, &gout, geom);
                prop_assert_eq!(bits(grads.grad_input.data()), bits(&gi), "{} dX {:?}", level.name(), geom);
                prop_assert_eq!(bits(grads.grad_weight.data()), bits(&gw), "{} dW {:?}", level.name(), geom);
                prop_assert_eq!(bits(grads.grad_bias.data()), bits(&gb), "{} db {:?}", level.name(), geom);
                Ok(())
            })?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stride 1 lowers rows with fixed-size copies at output widths 8, 16
    /// and 32 and with the generic row loop at every other width. Both
    /// must give the per-element reference's bits, padded or not, and so
    /// must `conv2d` built on them at every SIMD level.
    #[test]
    fn stride1_fixed_and_odd_widths_match_reference(
        width_pick in 0usize..7,
        channels in 1usize..4,
        out_h in 1usize..6,
        kernel in 1usize..4,
        pad_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let out_w = [8usize, 16, 32, 1, 7, 9, 33][width_pick];
        // Padding below the kernel, and small enough that the input is at
        // least one row tall: at stride 1, out = in + 2·padding − kernel + 1.
        let padding = pad_pick.min(kernel - 1).min((out_h.min(out_w) + kernel - 2) / 2);
        let (in_h, in_w) = (out_h + kernel - 1 - 2 * padding, out_w + kernel - 1 - 2 * padding);
        let geom = ConvGeometry::square(kernel, 1, padding).unwrap();
        prop_assert_eq!(geom.output_hw(in_h, in_w).unwrap(), (out_h, out_w));
        let mut rng = SeededRng::new(seed);
        let input = random_vec(&mut rng, channels * in_h * in_w);
        let len = channels * kernel * kernel * out_h * out_w;
        let mut want = vec![f32::NAN; len];
        reference_im2col(&input, channels, in_h, in_w, geom, out_h, out_w, &mut want);
        let mut got = vec![f32::NAN; len];
        im2col_single(&input, channels, in_h, in_w, geom, out_h, out_w, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "out_w {} {:?}", out_w, geom);

        let x = Tensor::from_vec([1, channels, in_h, in_w], input).unwrap();
        let w = Tensor::from_vec(
            [3, channels, kernel, kernel],
            random_vec(&mut rng, 3 * channels * kernel * kernel),
        )
        .unwrap();
        let b = Tensor::from_vec([3], random_vec(&mut rng, 3)).unwrap();
        for level in simd::Level::available() {
            simd::with_level(level, || -> Result<(), TestCaseError> {
                let y = conv2d(&x, &w, Some(&b), geom).unwrap();
                let want_y = reference_conv2d(&x, &w, &b, geom);
                prop_assert_eq!(bits(y.data()), bits(&want_y), "{} out_w {}", level.name(), out_w);
                Ok(())
            })?;
        }
    }
}

/// A geometry whose only row never meets the image: a 1×1 input, a 1×1
/// kernel, stride 2 and padding 1 put output 0 on the padding and output 1
/// past the edge. The lowering must write zeros and the fold must leave
/// the image untouched.
#[test]
fn row_with_empty_valid_range_is_all_padding() {
    let geom = ConvGeometry::new(1, 1, 2, 1).unwrap();
    let (oh, ow) = geom.output_hw(1, 1).unwrap();
    assert_eq!((oh, ow), (2, 2));
    let mut cols = vec![f32::NAN; oh * ow];
    im2col_single(&[3.0], 1, 1, 1, geom, oh, ow, &mut cols);
    assert_eq!(cols, vec![0.0; 4]);
    let mut cols_t = vec![f32::NAN; oh * ow];
    im2col_transposed_single(&[3.0], 1, 1, 1, geom, oh, ow, &mut cols_t);
    assert_eq!(cols_t, vec![0.0; 4]);
    let mut image = [5.0f32];
    col2im_single(&[1.0; 4], 1, 1, 1, geom, oh, ow, &mut image);
    assert_eq!(image, [5.0]);
}
