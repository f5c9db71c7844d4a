//! The event-driven convolution against the im2col + GEMM path.
//!
//! `conv2d_spikes` adds one tap vector per spike and tap instead of
//! multiplying. Where `spike_conv_applies` holds — binary input, finite
//! weights, stride 1, padding below the kernel — its contract is bitwise
//! equality with `conv2d` at every SIMD level, AVX2 included:
//!
//! * a spike is exactly `1.0`, so `fma(w, 1, acc)` and `acc + w·1` both
//!   round to `acc + w`;
//! * a skipped zero adds `±0`, which changes nothing, because an
//!   accumulator that starts at `+0` and adds finite weights is never `-0`;
//! * visiting spikes in ascending `(c, y, x)` visits each output's taps in
//!   the GEMM's ascending `(c, kh, kw)` order.
//!
//! The properties below pin that over random geometries, densities and
//! signed zeros, and pin that every other case is left to the GEMM, where
//! NaN still propagates.

use proptest::prelude::*;
use tcl_tensor::ops::{
    conv2d, conv2d_spikes, spike_conv_applies, spike_conv_fits, ConvGeometry, ConvTaps, SpikeScan,
};
use tcl_tensor::{simd, SeededRng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Spike densities: none, sparse, half, all.
const DENSITIES: [f32; 4] = [0.0, 0.05, 0.5, 1.0];

/// A binary raster: each entry `1.0` with probability `density`, else a
/// zero of either sign.
fn raster(rng: &mut SeededRng, dims: [usize; 4], density: f32) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| {
            if density >= 1.0 || rng.uniform(0.0, 1.0) < density {
                1.0
            } else if rng.below(4) == 0 {
                -0.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(dims, data).unwrap()
}

/// Finite weights in `[-1, 1)`, with some exact zeros of either sign.
fn weights(rng: &mut SeededRng, dims: [usize; 4]) -> Tensor {
    let mut w = rng.uniform_tensor(dims, -1.0, 1.0);
    for v in w.data_mut() {
        match rng.below(16) {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On binary input with finite weights the event path equals `conv2d`
    /// bitwise at every available SIMD level.
    #[test]
    fn event_path_equals_gemm_bitwise(
        batch in 1usize..7,
        in_c in 1usize..21,
        out_c in 1usize..21,
        in_h in 1usize..20,
        in_w in 1usize..20,
        kh in 1usize..6,
        kw in 1usize..6,
        pad_pick in 0usize..5,
        density_pick in 0usize..4,
        with_bias in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let geom = ConvGeometry::new(kh, kw, 1, pad_pick % kh.min(kw)).unwrap();
        prop_assert!(spike_conv_fits(geom));
        let mut rng = SeededRng::new(seed);
        let x = raster(&mut rng, [batch, in_c, in_h, in_w], DENSITIES[density_pick]);
        let w = weights(&mut rng, [out_c, in_c, kh, kw]);
        let bias = (with_bias == 1).then(|| rng.uniform_tensor([out_c], -0.5, 0.5));
        let taps = ConvTaps::new(&w).unwrap();
        if geom.output_hw(in_h, in_w).is_err() {
            prop_assert!(conv2d(&x, &w, bias.as_ref(), geom).is_err());
            prop_assert!(conv2d_spikes(&x, &taps, bias.as_ref(), geom).is_err());
            return Ok(());
        }
        prop_assert!(spike_conv_applies(geom, true, SpikeScan::of(x.data())));
        for level in simd::Level::available() {
            simd::with_level(level, || -> Result<(), TestCaseError> {
                let want = conv2d(&x, &w, bias.as_ref(), geom).unwrap();
                let got = conv2d_spikes(&x, &taps, bias.as_ref(), geom).unwrap();
                prop_assert_eq!(got.dims(), want.dims());
                prop_assert_eq!(bits(&got), bits(&want), "{} {:?}", level.name(), geom);
                Ok(())
            })?;
        }
    }

    /// Stride above 1 and padding at or beyond the kernel do not fit the
    /// event path: the predicate refuses them and the kernel rejects them.
    #[test]
    fn unfit_geometries_take_the_gemm(
        in_c in 1usize..5,
        out_c in 1usize..5,
        in_h in 3usize..12,
        in_w in 3usize..12,
        kernel in 1usize..6,
        stride in 1usize..4,
        extra_pad in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        // Either a stride above 1, or padding of at least the kernel.
        let (stride, padding) = if stride > 1 {
            (stride, extra_pad.min(kernel - 1))
        } else {
            (1, kernel + extra_pad)
        };
        let geom = ConvGeometry::square(kernel, stride, padding).unwrap();
        let mut rng = SeededRng::new(seed);
        let x = raster(&mut rng, [1, in_c, in_h, in_w], 0.5);
        let w = weights(&mut rng, [out_c, in_c, kernel, kernel]);
        prop_assert!(!spike_conv_fits(geom));
        prop_assert!(!spike_conv_applies(geom, true, SpikeScan::of(x.data())));
        prop_assert!(conv2d_spikes(&x, &ConvTaps::new(&w).unwrap(), None, geom).is_err());
    }

    /// One non-binary entry, or one non-finite weight, keeps the GEMM, and
    /// there a NaN still reaches the outputs it touches.
    #[test]
    fn non_binary_input_and_non_finite_weights_take_the_gemm(
        in_c in 1usize..5,
        out_c in 1usize..5,
        in_h in 3usize..12,
        in_w in 3usize..12,
        kernel in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let geom = ConvGeometry::square(kernel, 1, kernel / 2).unwrap();
        let mut rng = SeededRng::new(seed);
        let mut x = raster(&mut rng, [1, in_c, in_h, in_w], 0.2);
        let mut w = weights(&mut rng, [out_c, in_c, kernel, kernel]);
        let finite = |w: &Tensor| w.data().iter().all(|v| v.is_finite());

        // A fractional entry, or a NaN entry, is not a spike.
        let at = rng.below(x.len());
        for odd in [0.5, f32::NAN, 2.0, -1.0] {
            let mut y = x.clone();
            y.data_mut()[at] = odd;
            prop_assert!(!SpikeScan::of(y.data()).binary);
            prop_assert!(!spike_conv_applies(geom, finite(&w), SpikeScan::of(y.data())));
        }
        x.data_mut()[at] = f32::NAN;
        let out = conv2d(&x, &w, None, geom).unwrap();
        let (c, p) = (at / (in_h * in_w), at % (in_h * in_w));
        let (iy, ix) = (p / in_w, p % in_w);
        // Output (iy, ix) of every channel reads the NaN at one of its taps.
        let (out_h, out_w) = geom.output_hw(in_h, in_w).unwrap();
        prop_assert!(c < in_c);
        for o in 0..out_c {
            prop_assert!(out.data()[(o * out_h + iy) * out_w + ix].is_nan());
        }

        // A non-finite weight poisons its whole output channel on the GEMM:
        // every window multiplies it, by a spike, a zero or the padding.
        let x = raster(&mut rng, [1, in_c, in_h, in_w], 0.2);
        let o = rng.below(out_c);
        let idx = o * in_c * kernel * kernel + rng.below(in_c * kernel * kernel);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            w.data_mut()[idx] = bad;
            prop_assert!(!finite(&w));
            prop_assert!(!spike_conv_applies(geom, finite(&w), SpikeScan::of(x.data())));
            let out = conv2d(&x, &w, None, geom).unwrap();
            let plane = &out.data()[o * out_h * out_w..(o + 1) * out_h * out_w];
            if bad.is_nan() {
                prop_assert!(plane.iter().all(|v| v.is_nan()));
            } else {
                prop_assert!(plane.iter().all(|v| !v.is_finite()));
            }
        }
    }
}

/// The cnn6 spike geometry (8 channels of 16×16 spikes into 8 outputs, a
/// padded 3×3 kernel, batch 5) at the IF banks' ~15% firing rate.
#[test]
fn cnn6_geometry_matches_at_every_level() {
    let mut rng = SeededRng::new(16);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let x = raster(&mut rng, [5, 8, 16, 16], 0.15);
    let w = weights(&mut rng, [8, 8, 3, 3]);
    let b = rng.uniform_tensor([8], -0.1, 0.1);
    let taps = ConvTaps::new(&w).unwrap();
    for level in simd::Level::available() {
        simd::with_level(level, || {
            let want = conv2d(&x, &w, Some(&b), geom).unwrap();
            let got = conv2d_spikes(&x, &taps, Some(&b), geom).unwrap();
            assert_eq!(bits(&got), bits(&want), "{}", level.name());
        });
    }
}

/// The shapes the event path's vector kernels split unevenly, at every
/// level: output widths that are not a multiple of 8 (the copy-out's
/// column tail), rows of up to 8, 16 and 32 entries (which share a mask
/// word), rows wider than 64 entries (several mask words per input row),
/// and O' of 8, 16 and 24 with full and partial 8-channel blocks.
#[test]
fn ragged_widths_wide_rows_and_channel_blocks_match_at_every_level() {
    let mut rng = SeededRng::new(19);
    let shapes = [
        (6, 3, 1),
        (13, 3, 1),
        (27, 3, 1),
        (64, 3, 1),
        (65, 3, 0),
        (70, 1, 0),
        (131, 5, 2),
    ];
    for (in_w, kernel, pad) in shapes {
        let geom = ConvGeometry::square(kernel, 1, pad).unwrap();
        let (_, out_w) = geom.output_hw(kernel + 1, in_w).unwrap();
        for out_c in [8, 16, 24, 5, 13, 21] {
            for density in [0.15, 0.6] {
                let x = raster(&mut rng, [2, 3, kernel + 1, in_w], density);
                let w = weights(&mut rng, [out_c, 3, kernel, kernel]);
                let b = rng.uniform_tensor([out_c], -0.1, 0.1);
                let taps = ConvTaps::new(&w).unwrap();
                assert_eq!(taps.taps().dims()[3], out_c.div_ceil(8) * 8);
                for level in simd::Level::available() {
                    simd::with_level(level, || {
                        let want = conv2d(&x, &w, Some(&b), geom).unwrap();
                        let got = conv2d_spikes(&x, &taps, Some(&b), geom).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{} in_w={in_w} out_w={out_w} out_c={out_c} {geom:?}",
                            level.name()
                        );
                    });
                }
            }
        }
    }
}

/// The tap layout: `[C, kh, kw, O']` with `O` padded to whole 8-lane
/// blocks and both kernel axes reversed.
#[test]
fn taps_are_channel_major_padded_and_kernel_reversed() {
    let w = Tensor::from_fn([10, 3, 2, 4], |i| i as f32 + 1.0);
    let taps = ConvTaps::new(&w).unwrap();
    assert_eq!(taps.out_channels(), 10);
    assert_eq!(taps.taps().dims(), &[3, 2, 4, 16]);
    let t = taps.taps().data();
    for c in 0..3 {
        for a in 0..2 {
            for b in 0..4 {
                let tap = &t[((c * 2 + (1 - a)) * 4 + (3 - b)) * 16..][..16];
                for (o, &got) in tap.iter().enumerate() {
                    let want = if o < 10 {
                        w.data()[((o * 3 + c) * 2 + a) * 4 + b]
                    } else {
                        0.0
                    };
                    assert_eq!(got, want);
                }
            }
        }
    }
}

#[test]
fn scan_counts_nonzeros_and_recognises_spikes() {
    let scan = SpikeScan::of(&[0.0, -0.0, 1.0, 1.0, 0.0]);
    assert_eq!(
        scan,
        SpikeScan {
            nonzero: 2,
            binary: true
        }
    );
    assert!(SpikeScan::of(&[]).binary);
    for odd in [0.25, -1.0, f32::NAN, f32::INFINITY, 1.0 + f32::EPSILON] {
        assert!(!SpikeScan::of(&[0.0, odd]).binary, "{odd}");
    }
    assert_eq!(SpikeScan::of(&[f32::NAN, 0.5]).nonzero, 2);
}
