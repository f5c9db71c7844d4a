//! The event convolution's kernels (`nonzero_mask`, `add_assign`,
//! `transpose_8x8`) and `if_step`'s spike count at every available level
//! against the scalar body, on lanes that hold NaN, ±0, ±∞, subnormals
//! and arbitrary bit patterns.
//!
//! Each kernel compares, adds once per lane or moves bits, so every level
//! must return the scalar bits. The one allowance: a NaN result only has
//! to be NaN, because Rust leaves the payload of a NaN produced by
//! arithmetic unspecified.

use proptest::prelude::*;
use tcl_simd::{add_assign, if_step, nonzero_mask, transpose_8x8, Level, MASK_BITS};

/// One lane from a `(pick, bits)` draw: mostly the special values, else
/// an arbitrary bit pattern.
fn lane((pick, bits): (u32, u32)) -> f32 {
    let subnormal = f32::from_bits((bits & 0x007F_FFFF).max(1));
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => subnormal,
        6 => -subnormal,
        7 => 1.0,
        _ => f32::from_bits(bits),
    }
}

fn lanes(draw: &[(u32, u32)]) -> Vec<f32> {
    draw.iter().copied().map(lane).collect()
}

fn draws(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..12, 0u32..u32::MAX), len)
}

/// `got` equals `want` bit for bit, except that any NaN matches any NaN.
fn same(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bit `i` of each 64-lane word is `v[i] != 0.0`, at every level.
    #[test]
    fn nonzero_mask_is_the_not_equal_zero_predicate(draw in draws(0..71)) {
        let v = lanes(&draw);
        for level in Level::available() {
            for (w, word) in v.chunks(MASK_BITS).enumerate() {
                let want = word
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (i, &x)| m | u64::from(x != 0.0) << i);
                let got = nonzero_mask(level, word);
                prop_assert_eq!(got, want, "{} word {} of {:?}", level.name(), w, word);
                prop_assert_eq!(got, nonzero_mask(Level::Scalar, word));
            }
        }
    }

    /// `dst += src` rounds each lane once, as the scalar body does.
    #[test]
    fn add_assign_matches_scalar(draw in draws(0..71), seed in 0u32..u32::MAX) {
        let src = lanes(&draw);
        let dst0: Vec<f32> = draw
            .iter()
            .map(|&(pick, bits)| lane((pick.wrapping_add(seed) % 12, bits ^ seed)))
            .collect();
        let mut want = dst0.clone();
        add_assign(Level::Scalar, &mut want, &src);
        for (i, (&w, (&d, &s))) in want.iter().zip(dst0.iter().zip(&src)).enumerate() {
            prop_assert!(same(w, d + s), "scalar lane {}: {} + {} = {}", i, d, s, w);
        }
        for level in Level::available() {
            let mut got = dst0.clone();
            add_assign(level, &mut got, &src);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(same(g, w), "{} lane {}: {} vs {}", level.name(), i, g, w);
            }
        }
    }

    /// The transpose moves every bit of the block, NaN payloads included,
    /// and writes nothing outside it.
    #[test]
    fn transpose_8x8_matches_scalar(
        draw in draws(64..65),
        src_pad in 0usize..9,
        dst_pad in 0usize..9,
    ) {
        let (src_stride, dst_stride) = (8 + src_pad, 8 + dst_pad);
        let block = lanes(&draw);
        let mut src = vec![f32::NAN; 7 * src_stride + 8];
        for (i, row) in block.chunks_exact(8).enumerate() {
            src[i * src_stride..i * src_stride + 8].copy_from_slice(row);
        }
        let fill = -1.5f32;
        for level in Level::available() {
            let mut dst = vec![fill; 8 * dst_stride];
            transpose_8x8(level, &src, src_stride, &mut dst, dst_stride);
            for (at, &got) in dst.iter().enumerate() {
                let (j, i) = (at / dst_stride, at % dst_stride);
                let want = if i < 8 { block[i * 8 + j] } else { fill };
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} [{}][{}]", level.name(), j, i);
            }
        }
    }

    /// `if_step` returns the number of spikes it wrote, at every level,
    /// NaN and infinite currents included.
    #[test]
    fn if_step_returns_its_spike_count(
        draw in draws(0..71),
        start in prop::collection::vec(-2.0f32..2.0, 70..71),
        subtract in 0u8..2,
    ) {
        let z = lanes(&draw);
        for level in Level::available() {
            let mut v = start[..z.len()].to_vec();
            let mut s = vec![0.5f32; z.len()];
            let fired = if_step(level, &mut v, &z, &mut s, 1.0, subtract == 1);
            let ones = s.iter().filter(|&&x| x == 1.0).count();
            prop_assert!(s.iter().all(|&x| x == 0.0 || x == 1.0));
            prop_assert_eq!(fired, ones, "{}", level.name());
        }
    }
}

#[test]
#[should_panic(expected = "at most 64")]
fn nonzero_mask_rejects_more_than_a_word() {
    nonzero_mask(Level::Scalar, &[0.0; 65]);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn add_assign_rejects_mismatched_lengths() {
    add_assign(Level::Scalar, &mut [0.0; 3], &[1.0; 4]);
}

#[test]
#[should_panic(expected = "too short")]
fn transpose_rejects_a_short_block() {
    let mut dst = [0.0f32; 64];
    transpose_8x8(Level::Scalar, &[0.0; 63], 8, &mut dst, 8);
}
