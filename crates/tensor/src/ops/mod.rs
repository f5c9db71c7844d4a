//! Numeric kernels: matrix products, convolutions, pooling, and reductions.
//!
//! All kernels are pure functions over [`crate::Tensor`]; layers in the `nn`
//! crate compose them and own the caching required for backpropagation.

mod conv;
mod matmul;
mod pool;
mod reduce;

pub use conv::{
    col2im_single, conv2d, conv2d_backward, conv2d_naive, conv2d_spikes, im2col_single,
    im2col_transposed_single, spike_conv_applies, spike_conv_fits, Conv2dGradients, ConvGeometry,
    ConvTaps, SpikeScan,
};
pub use matmul::{
    matmul, matmul_into, matmul_into_naive, matmul_into_sparse, matmul_into_with, matmul_nt,
    matmul_nt_with, matmul_tn, matmul_tn_with, matmul_with, transpose, transpose_into,
};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward, MaxPoolOutput,
};
pub use reduce::{accuracy, argmax_rows, logsumexp_rows, max_rows, softmax_rows, topk_accuracy};
