//! Shared support for the tensor integration tests.

use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{Result, Tensor};

/// Reference direct (nested-loop) convolution the im2col path is checked
/// against. Slow; not for production use.
///
/// # Errors
///
/// As for [`tcl_tensor::ops::conv2d`].
pub fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (out_c, _, kh, kw) = weight.shape().as_nchw()?;
    let (out_h, out_w) = geom.output_hw(h, w)?;
    let mut out = Tensor::zeros([n, out_c, out_h, out_w]);
    for ni in 0..n {
        for oc in 0..out_c {
            for oh in 0..out_h {
                for ow in 0..out_w {
                    let mut acc = bias.map_or(0.0, |b| b.at(oc));
                    for ic in 0..c {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let ih = (oh * geom.stride + ki) as isize - geom.padding as isize;
                                let iw = (ow * geom.stride + kj) as isize - geom.padding as isize;
                                if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w {
                                    acc += input.at4(ni, ic, ih as usize, iw as usize)
                                        * weight.at4(oc, ic, ki, kj);
                                }
                            }
                        }
                    }
                    out.set4(ni, oc, oh, ow, acc);
                }
            }
        }
    }
    Ok(out)
}
