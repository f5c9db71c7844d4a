//! Edge-case integration tests for the tensor kernels: non-square
//! geometries, extreme values, and empty inputs.

mod support;

use support::conv2d_naive;
use tcl_tensor::ops::{self, ConvGeometry};
use tcl_tensor::{SeededRng, Tensor};

#[test]
fn matches_naive_reference_with_padding_and_stride() {
    let x = Tensor::from_fn([2, 3, 7, 6], |i| ((i * 37 % 17) as f32 - 8.0) * 0.25);
    let w = Tensor::from_fn([4, 3, 3, 3], |i| ((i * 13 % 11) as f32 - 5.0) * 0.1);
    let b = Tensor::from_slice(&[0.5, -0.5, 0.25, 0.0]);
    for (stride, pad) in [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)] {
        let g = ConvGeometry::square(3, stride, pad).unwrap();
        let fast = ops::conv2d(&x, &w, Some(&b), g).unwrap();
        let slow = conv2d_naive(&x, &w, Some(&b), g).unwrap();
        assert!(
            fast.max_abs_diff(&slow).unwrap() < 1e-4,
            "stride={stride} pad={pad}"
        );
    }
}

#[test]
fn non_square_kernels_match_naive() {
    let mut rng = SeededRng::new(0);
    let x = rng.uniform_tensor([1, 2, 6, 9], -1.0, 1.0);
    let w = rng.uniform_tensor([3, 2, 1, 5], -1.0, 1.0);
    let geom = ConvGeometry::new(1, 5, 1, 2).unwrap();
    let fast = ops::conv2d(&x, &w, None, geom).unwrap();
    let slow = conv2d_naive(&x, &w, None, geom).unwrap();
    assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    // Symmetric padding of 2 also pads the height, so H grows: 6+2·2-1+1.
    assert_eq!(fast.dims(), &[1, 3, 10, 9]);
}

#[test]
fn one_by_one_input_with_three_by_three_padded_kernel() {
    let mut rng = SeededRng::new(1);
    let x = rng.uniform_tensor([1, 1, 1, 1], -1.0, 1.0);
    let w = rng.uniform_tensor([1, 1, 3, 3], -1.0, 1.0);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let y = ops::conv2d(&x, &w, None, geom).unwrap();
    // Only the kernel center overlaps the single pixel.
    assert!((y.at(0) - x.at(0) * w.at4(0, 0, 1, 1)).abs() < 1e-6);
}

#[test]
fn transpose_rectangular() {
    let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    let tt = ops::transpose(&t).unwrap();
    assert_eq!(tt.dims(), &[3, 2]);
    assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
}

#[test]
fn logsumexp_is_stable_for_huge_and_tiny_logits() {
    let t = Tensor::from_vec([2, 2], vec![1e4, 1e4 - 1.0, -1e4, -1e4 - 1.0]).unwrap();
    let lse = ops::logsumexp_rows(&t).unwrap();
    assert!(lse.iter().all(|v| v.is_finite()));
    assert!((lse[0] - (1e4 + (1.0 + (-1.0f32).exp()).ln())).abs() < 1.0);
}

#[test]
fn softmax_of_identical_logits_is_uniform() {
    let t = Tensor::full([1, 5], 3.3);
    let s = ops::softmax_rows(&t).unwrap();
    for &v in s.data() {
        assert!((v - 0.2).abs() < 1e-6);
    }
}

#[test]
fn stride_larger_than_kernel_skips_input() {
    let x = Tensor::from_fn([1, 1, 5, 5], |i| i as f32);
    let w = Tensor::ones([1, 1, 1, 1]);
    let geom = ConvGeometry::square(1, 3, 0).unwrap();
    let y = ops::conv2d(&x, &w, None, geom).unwrap();
    assert_eq!(y.dims(), &[1, 1, 2, 2]);
    assert_eq!(y.data(), &[0.0, 3.0, 15.0, 18.0]);
}

#[test]
fn batch_zero_convolution_yields_empty_output() {
    let x = Tensor::zeros([0, 1, 4, 4]);
    let w = Tensor::ones([1, 1, 3, 3]);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let y = ops::conv2d(&x, &w, None, geom).unwrap();
    assert_eq!(y.dims(), &[0, 1, 4, 4]);
    assert!(y.is_empty());
}

#[test]
fn accuracy_on_empty_label_set_is_zero() {
    let logits = Tensor::zeros([0, 3]);
    assert_eq!(ops::accuracy(&logits, &[]).unwrap(), 0.0);
}

#[test]
fn pooling_entire_image_equals_global_mean() {
    let mut rng = SeededRng::new(2);
    let x = rng.uniform_tensor([2, 3, 4, 4], -1.0, 1.0);
    let pooled = ops::avg_pool2d(&x, 4, 4).unwrap();
    let global = ops::global_avg_pool(&x).unwrap();
    assert!(pooled.max_abs_diff(&global).unwrap() < 1e-6);
}

#[test]
fn conv_backward_on_stride_two_conserves_bias_gradient() {
    let mut rng = SeededRng::new(3);
    let x = rng.uniform_tensor([2, 1, 6, 6], -1.0, 1.0);
    let w = rng.uniform_tensor([2, 1, 3, 3], -1.0, 1.0);
    let geom = ConvGeometry::square(3, 2, 1).unwrap();
    let y = ops::conv2d(&x, &w, None, geom).unwrap();
    let gout = Tensor::ones(y.shape().clone());
    let grads = ops::conv2d_backward(&x, &w, &gout, geom).unwrap();
    // Bias gradient = number of output positions per channel × batch.
    let per_channel = (y.len() / 2) as f32;
    assert!((grads.grad_bias.at(0) - per_channel).abs() < 1e-4);
    assert!((grads.grad_bias.at(1) - per_channel).abs() < 1e-4);
}
