//! The 2×2, stride-2 average pool against the generic window loop.
//!
//! `avg_pool2d` takes a dedicated loop for the 2×2, stride-2 window (the
//! only pool the converted CNNs use). Its contract is that nothing
//! observable changes: every output carries the bits the generic loop
//! gives, so training, conversion and every pinned figure stay put.
//! `reference_avg_pool` below is the generic loop verbatim; the property
//! covers odd and even extents, batch 1–6, channels 1–20, and inputs mixing
//! fractions with ±0, NaN and ±∞ (a NaN output must stay NaN; its sign and
//! payload are not compared, see `bits`).

use proptest::prelude::*;
use tcl_tensor::{ops, par, SeededRng, Tensor};

/// The generic loop: start at `0.0`, add the window row by row, scale.
fn reference_avg_pool(x: &Tensor, kernel: usize, stride: usize) -> Vec<f32> {
    let (n, c, h, w) = x.shape().as_nchw().unwrap();
    let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
    let inv = 1.0 / (kernel * kernel) as f32;
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for plane in x.data().chunks_exact(h * w) {
        for y in 0..oh {
            for xo in 0..ow {
                let mut acc = 0.0;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        acc += plane[(y * stride + ky) * w + xo * stride + kx];
                    }
                }
                out.push(acc * inv);
            }
        }
    }
    out
}

/// The bits of every non-NaN output; a NaN maps to the canonical quiet
/// NaN. Which NaN an `inf + -inf` or a NaN operand yields (sign, payload)
/// depends on the operand order the compiler picks for a commutative add,
/// not on the source, so only "is NaN" is part of the contract.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// A fraction with a full mantissa and a varied exponent, so that adding a
/// window in another order rounds differently. (`uniform` alone draws from
/// a 2⁻²³ grid, on which most 4-term sums are exact in any order.)
fn fraction(rng: &mut SeededRng) -> f32 {
    rng.normal() / 3.0
}

/// A value drawn mostly from fractions, with the IEEE special cases and
/// exact spike values mixed in.
fn special_or_fraction(rng: &mut SeededRng) -> f32 {
    match rng.below(12) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => 1.0,
        _ => fraction(rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn avg_pool_2x2_matches_the_generic_loop_bitwise(
        batch in 1usize..7,
        channels in 1usize..21,
        h in 2usize..20,
        w in 2usize..20,
        special in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::from_fn([batch, channels, h, w], |_| {
            if special == 1 {
                special_or_fraction(&mut rng)
            } else {
                fraction(&mut rng)
            }
        });
        let want = reference_avg_pool(&x, 2, 2);
        let got = ops::avg_pool2d(&x, 2, 2).unwrap();
        prop_assert_eq!(got.dims(), &[batch, channels, h / 2, w / 2][..]);
        prop_assert_eq!(bits(got.data()), bits(&want), "{}x{}x{}x{}", batch, channels, h, w);
        let serial = par::with_serial(|| ops::avg_pool2d(&x, 2, 2)).unwrap();
        prop_assert_eq!(bits(serial.data()), bits(&want));
    }

    /// The other windows still take the generic loop.
    #[test]
    fn other_windows_match_the_generic_loop_bitwise(
        channels in 1usize..5,
        h in 3usize..12,
        w in 3usize..12,
        kernel in 1usize..4,
        stride in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::from_fn([2, channels, h, w], |_| special_or_fraction(&mut rng));
        let got = ops::avg_pool2d(&x, kernel, stride).unwrap();
        prop_assert_eq!(bits(got.data()), bits(&reference_avg_pool(&x, kernel, stride)));
    }
}

/// A window of negative zeros sums to `+0.0` in the generic loop (it starts
/// from `0.0`); the fast path must keep that sign.
#[test]
fn negative_zero_window_pools_to_positive_zero() {
    let x = Tensor::from_vec([1, 1, 2, 2], vec![-0.0; 4]).unwrap();
    let y = ops::avg_pool2d(&x, 2, 2).unwrap();
    assert_eq!(y.data()[0].to_bits(), 0.0f32.to_bits());
}
