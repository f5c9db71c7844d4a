//! Numeric kernels: matrix products, convolutions, pooling, and reductions.
//!
//! All kernels are pure functions over [`crate::Tensor`]; layers in the `nn`
//! crate compose them and own the caching required for backpropagation.

mod conv;
mod matmul;
mod pool;
mod reduce;

pub use conv::{
    col2im_single, conv2d, conv2d_backward, conv2d_spikes, conv2d_weighted_events, im2col_single,
    im2col_transposed_single, spike_conv_applies, spike_conv_fits, weighted_conv_applies,
    Conv2dGradients, ConvGeometry, ConvTaps, SpikeScan, WEIGHTED_EVENT_DENSITY,
};
pub use matmul::{
    matmul, matmul_into, matmul_into_naive, matmul_into_packed, matmul_into_sparse,
    matmul_into_with, matmul_nt, matmul_nt_with, matmul_tn, matmul_tn_with, matmul_with, transpose,
    transpose_into, PackedPanel,
};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward, MaxPoolOutput,
};
pub use reduce::{accuracy, argmax_rows, logsumexp_rows, max_rows, softmax_rows, topk_accuracy};
