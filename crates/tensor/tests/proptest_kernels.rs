//! Property-based tests for the numeric kernels.
//!
//! These check the algebraic identities the conversion pipeline relies on:
//! im2col convolution must agree with the direct definition, col2im must be
//! the exact adjoint of im2col, matmul must distribute over addition, and
//! histogram mass must be conserved.

mod support;

use proptest::prelude::*;
use support::conv2d_naive;
use tcl_tensor::ops::{self, ConvGeometry};
use tcl_tensor::{Histogram, SeededRng, Tensor};

fn small_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    rng.uniform_tensor(shape, -2.0, 2.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv2d_matches_naive(
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 3usize..8,
        w in 3usize..8,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let geom = ConvGeometry::square(3, stride, pad).unwrap();
        prop_assume!(geom.output_hw(h, w).is_ok());
        let x = small_tensor(vec![n, cin, h, w], seed);
        let wt = small_tensor(vec![cout, cin, 3, 3], seed.wrapping_add(1));
        let b = small_tensor(vec![cout], seed.wrapping_add(2));
        let fast = ops::conv2d(&x, &wt, Some(&b), geom).unwrap();
        let slow = conv2d_naive(&x, &wt, Some(&b), geom).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6,
        k in 1usize..6,
        nn in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let a = small_tensor(vec![m, k], seed);
        let b = small_tensor(vec![k, nn], seed.wrapping_add(1));
        let c = small_tensor(vec![k, nn], seed.wrapping_add(2));
        let lhs = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
    }

    #[test]
    fn matmul_agrees_with_transposed_variants(
        m in 1usize..5,
        k in 1usize..5,
        nn in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let a = small_tensor(vec![m, k], seed);
        let b = small_tensor(vec![k, nn], seed.wrapping_add(9));
        let at = ops::transpose(&a).unwrap();
        let bt = ops::transpose(&b).unwrap();
        let base = ops::matmul(&a, &b).unwrap();
        let via_tn = ops::matmul_tn(&at, &b).unwrap();
        let via_nt = ops::matmul_nt(&a, &bt).unwrap();
        prop_assert!(base.max_abs_diff(&via_tn).unwrap() < 1e-4);
        prop_assert!(base.max_abs_diff(&via_nt).unwrap() < 1e-4);
    }

    #[test]
    fn avg_pool_preserves_mean_when_tiling_exactly(
        n in 1usize..3,
        c in 1usize..4,
        tiles in 1usize..4,
        k in 1usize..4,
        seed in 0u64..1_000,
    ) {
        // When windows tile the input exactly (stride == kernel, size divisible),
        // average pooling preserves the global mean.
        let hw = tiles * k;
        let x = small_tensor(vec![n, c, hw, hw], seed);
        let y = ops::avg_pool2d(&x, k, k).unwrap();
        prop_assert!((x.mean() - y.mean()).abs() < 1e-4);
    }

    #[test]
    fn max_pool_dominates_avg_pool(
        n in 1usize..3,
        c in 1usize..3,
        tiles in 1usize..4,
        k in 2usize..4,
        seed in 0u64..1_000,
    ) {
        let hw = tiles * k;
        let x = small_tensor(vec![n, c, hw, hw], seed);
        let avg = ops::avg_pool2d(&x, k, k).unwrap();
        let max = ops::max_pool2d(&x, k, k).unwrap().output;
        for (a, m) in avg.data().iter().zip(max.data()) {
            prop_assert!(m + 1e-6 >= *a);
        }
    }

    #[test]
    fn softmax_rows_are_probability_vectors(
        rows in 1usize..6,
        cols in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let x = small_tensor(vec![rows, cols], seed).scale(10.0);
        let s = ops::softmax_rows(&x).unwrap();
        prop_assert!(s.data().iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        for r in 0..rows {
            let sum: f32 = s.data()[r * cols..(r + 1) * cols].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn histogram_mass_conservation(values in prop::collection::vec(0.0f32..10.0, 0..200)) {
        let mut h = Histogram::new(16, 4.0);
        h.record_all(&values);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.overflow_count(), values.len() as u64);
    }

    #[test]
    fn histogram_quantiles_are_monotone(values in prop::collection::vec(0.0f32..5.0, 1..200)) {
        let mut h = Histogram::new(32, 5.0);
        h.record_all(&values);
        let mut prev = 0.0f32;
        for i in 0..=10 {
            let q = h.quantile(i as f32 / 10.0);
            prop_assert!(q + 1e-6 >= prev, "quantiles must be monotone");
            prev = q;
        }
    }

    #[test]
    fn global_avg_pool_equals_per_channel_mean(
        n in 1usize..3,
        c in 1usize..4,
        h in 1usize..5,
        w in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let x = small_tensor(vec![n, c, h, w], seed);
        let y = ops::global_avg_pool(&x).unwrap();
        for ni in 0..n {
            for ci in 0..c {
                let mut acc = 0.0;
                for hi in 0..h {
                    for wi in 0..w {
                        acc += x.at4(ni, ci, hi, wi);
                    }
                }
                let mean = acc / (h * w) as f32;
                prop_assert!((y.at4(ni, ci, 0, 0) - mean).abs() < 1e-4);
            }
        }
    }
}
