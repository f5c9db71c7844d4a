//! Per-ISA equivalence properties for the SIMD-dispatched kernels.
//!
//! Every kernel must produce the same mathematics at every dispatch level;
//! these properties quantify "same" per level against the scalar reference:
//!
//! * `Wide` (portable 8-lane, unfused) — **bitwise identical** to `Scalar`
//!   for every kernel. This is the load-bearing property: it proves the
//!   vector code reorders nothing and fuses nothing.
//! * `Avx2` (fused multiply-add) — dot-product kernels (matmul, im2col
//!   conv) agree within an accumulated-rounding bound proportional to the
//!   reduction length `k`; elementwise kernels must still be bitwise.
//!
//! Golden suites pin `Scalar` (see `tests/golden_regression.rs`); these
//! properties are what justify shipping the wider levels by default.

use proptest::prelude::*;
use tcl_tensor::ops::{conv2d, matmul_into, matmul_into_naive, matmul_into_with, ConvGeometry};
use tcl_tensor::{simd, Parallelism, SeededRng, Tensor};

fn random_vec(rng: &mut SeededRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Absolute agreement bound for a fused-vs-unfused reduction of length `k`
/// over values in `[-1, 1)`: the fused path skips one product rounding per
/// step and the two running sums may round apart by a few low bits each
/// step, all scaled by the partial-sum magnitude (≤ `k`).
fn fma_bound(k: usize) -> f32 {
    k as f32 * 1e-5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The ragged bottom rows (the last `m % 4`, which never enter the fused
    /// 4-row tile) equal the naive saxpy bitwise at every level, `Avx2`
    /// included, across full-width tiles and the ragged right edge. Values
    /// carry full mantissas, so a different summation order would show.
    #[test]
    fn ragged_rows_match_naive_bitwise_at_every_level(
        m in 1usize..8,
        k in 1usize..301,
        n in 1usize..71,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal() / 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal() / 3.0).collect();
        let mut naive = vec![0.0f32; m * n];
        matmul_into_naive(&a, &b, &mut naive, m, k, n);
        let first = m / 4 * 4;
        for level in simd::Level::available() {
            let mut out = vec![0.0f32; m * n];
            simd::with_level(level, || matmul_into(&a, &b, &mut out, m, k, n));
            let got: Vec<u32> = out[first * n..].iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = naive[first * n..].iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got, want, "{} m={} k={} n={}", level.name(), m, k, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked matmul: `Wide` replays `Scalar` bitwise; `Avx2` stays within
    /// the accumulated-rounding bound. Shapes cover full tiles and both
    /// ragged edges.
    #[test]
    fn matmul_levels_agree_with_scalar(
        m in 1usize..40,
        k in 1usize..96,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        let mut reference = vec![0.0f32; m * n];
        simd::with_level(simd::Level::Scalar, || {
            matmul_into_with(Parallelism::serial(), &a, &b, &mut reference, m, k, n);
        });
        for level in simd::Level::available() {
            let mut out = vec![0.0f32; m * n];
            simd::with_level(level, || {
                matmul_into_with(Parallelism::serial(), &a, &b, &mut out, m, k, n);
            });
            if level == simd::Level::Avx2 {
                for (g, w) in out.iter().zip(&reference) {
                    prop_assert!(
                        (g - w).abs() <= fma_bound(k),
                        "avx2 m={} k={} n={}: {} vs {}", m, k, n, g, w
                    );
                }
            } else {
                prop_assert_eq!(
                    &out, &reference,
                    "{} m={} k={} n={}", level.name(), m, k, n
                );
            }
        }
    }

    /// im2col convolution inherits the matmul guarantee: bitwise at the
    /// unfused levels, rounding-bounded at AVX2 with `k = in_c·kh·kw`.
    #[test]
    fn conv2d_levels_agree_with_scalar(
        batch in 1usize..3,
        in_c in 1usize..4,
        out_c in 1usize..6,
        hw in 5usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::from_vec(
            [batch, in_c, hw, hw],
            random_vec(&mut rng, batch * in_c * hw * hw),
        ).unwrap();
        let weight = Tensor::from_vec(
            [out_c, in_c, 3, 3],
            random_vec(&mut rng, out_c * in_c * 9),
        ).unwrap();
        let geom = ConvGeometry::square(3, 1, 1).unwrap();
        let reference =
            simd::with_level(simd::Level::Scalar, || conv2d(&x, &weight, None, geom)).unwrap();
        for level in simd::Level::available() {
            let out = simd::with_level(level, || conv2d(&x, &weight, None, geom)).unwrap();
            if level == simd::Level::Avx2 {
                let k = in_c * 9;
                for (g, w) in out.data().iter().zip(reference.data()) {
                    prop_assert!(
                        (g - w).abs() <= fma_bound(k),
                        "avx2 conv b={} c={}->{} hw={}: {} vs {}", batch, in_c, out_c, hw, g, w
                    );
                }
            } else {
                prop_assert_eq!(
                    out.data(), reference.data(),
                    "{} conv b={} c={}->{} hw={}", level.name(), batch, in_c, out_c, hw
                );
            }
        }
    }

    /// The sparse zero-skip kernel dispatches `axpy` at the process level;
    /// against the scalar sparse kernel the same per-level contract holds
    /// (one fused step per surviving row element at AVX2).
    #[test]
    fn sparse_matmul_levels_agree_with_scalar(
        m in 1usize..12,
        k in 8usize..64,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        // Spike-raster-like left operand: mostly zeros.
        let a: Vec<f32> = (0..m * k)
            .map(|_| if rng.uniform(0.0, 1.0) < 0.2 { 1.0 } else { 0.0 })
            .collect();
        let b = random_vec(&mut rng, k * n);
        let mut reference = vec![0.0f32; m * n];
        simd::with_level(simd::Level::Scalar, || {
            tcl_tensor::ops::matmul_into_sparse(&a, &b, &mut reference, m, k, n);
        });
        for level in simd::Level::available() {
            let mut out = vec![0.0f32; m * n];
            simd::with_level(level, || {
                tcl_tensor::ops::matmul_into_sparse(&a, &b, &mut out, m, k, n);
            });
            if level == simd::Level::Avx2 {
                for (g, w) in out.iter().zip(&reference) {
                    prop_assert!(
                        (g - w).abs() <= fma_bound(k),
                        "avx2 sparse m={} k={} n={}: {} vs {}", m, k, n, g, w
                    );
                }
            } else {
                prop_assert_eq!(
                    &out, &reference,
                    "{} sparse m={} k={} n={}", level.name(), m, k, n
                );
            }
        }
    }
}
