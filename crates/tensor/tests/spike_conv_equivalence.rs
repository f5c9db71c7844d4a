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
//!
//! On any other input — pooled spike counts `q ∈ {¼, ½, ¾, 1}`, arbitrary
//! fractions, NaN and ±inf — `conv2d_weighted_events` runs the same walk
//! adding `q·tap` with the multiply-add of the GEMM's full tiles (fused at
//! AVX2 only). Where
//! `weighted_conv_applies` holds its contract is the same bitwise equality:
//! at AVX2 the gate admits only geometries the GEMM covers with full 4×16
//! tiles (output channels × output pixels), and the copy-out adds `+0` as
//! the GEMM's store does, so a `-0` accumulator (a fused product that
//! underflows) leaves as the GEMM's `+0`.

use proptest::prelude::*;
use tcl_tensor::ops::{
    conv2d, conv2d_spikes, conv2d_weighted_events, spike_conv_applies, spike_conv_fits,
    weighted_conv_applies, ConvGeometry, ConvTaps, SpikeScan, WEIGHTED_EVENT_DENSITY,
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

/// What a non-binary input holds: pooled spike counts, arbitrary
/// fractions of either sign, or pooled counts sprinkled with NaN and ±inf.
#[derive(Debug, Clone, Copy)]
enum Values {
    Pooled,
    Fractions,
    NonFinite,
}

/// A non-binary input: each entry nonzero with probability `density`,
/// drawn from `values`, else a zero of either sign.
fn weighted_raster(rng: &mut SeededRng, dims: [usize; 4], density: f32, values: Values) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| {
            if rng.uniform(0.0, 1.0) >= density {
                return if rng.below(4) == 0 { -0.0 } else { 0.0 };
            }
            let pooled = (1 + rng.below(4)) as f32 * 0.25;
            match values {
                Values::Pooled => pooled,
                Values::Fractions => rng.normal() * 0.7,
                Values::NonFinite => match rng.below(16) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => pooled,
                },
            }
        })
        .collect();
    Tensor::from_vec(dims, data).unwrap()
}

/// Bits, with every NaN read as one canonical NaN: IEEE 754 leaves a NaN
/// result's payload to the hardware, which may pick either NaN operand.
fn nan_bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// Whether the weighted path's gate holds for `x` at `level`.
fn weighted_gate(level: simd::Level, x: &Tensor, out_c: usize, geom: ConvGeometry) -> bool {
    let (_, _, h, w) = x.shape().as_nchw().unwrap();
    let out_hw = geom.output_hw(h, w).unwrap();
    weighted_conv_applies(
        level,
        geom,
        out_c,
        out_hw,
        true,
        SpikeScan::of(x.data()),
        x.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On non-binary input with finite weights the weighted event path
    /// equals `conv2d` bitwise at every level whose gate admits the call:
    /// always at scalar and wide (at or below the density crossover), and
    /// at AVX2 when the output fills whole 4×16 GEMM tiles. Half the cases
    /// draw such a geometry (output channels a multiple of 4, "same"
    /// padding on a plane of a multiple of 16 pixels), so AVX2 is covered.
    #[test]
    fn weighted_path_equals_gemm_bitwise(
        batch in 1usize..5,
        in_c in 1usize..13,
        out_c in 1usize..21,
        in_h in 1usize..14,
        in_w in 1usize..14,
        kernel in 1usize..6,
        pad_pick in 0usize..5,
        tiled_pick in 0u8..2,
        density_pick in 0usize..3,
        values_pick in 0usize..3,
        with_bias in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let tiled = tiled_pick == 1;
        let (out_c, in_h, in_w, geom) = if tiled {
            // Odd kernel, "same" padding: the output plane is the input's.
            let k = 2 * (kernel / 2) + 1;
            let (h, w) = [(4, 4), (4, 8), (2, 8), (8, 8), (1, 16), (3, 16)][in_h % 6];
            (4 * (1 + out_c % 5), h, w, ConvGeometry::square(k, 1, k / 2).unwrap())
        } else {
            (out_c, in_h, in_w, ConvGeometry::new(kernel, (in_w % 5) + 1, 1, pad_pick % kernel.min((in_w % 5) + 1)).unwrap())
        };
        let mut rng = SeededRng::new(seed);
        let density = [0.05, 0.25, 0.5][density_pick];
        let values = [Values::Pooled, Values::Fractions, Values::NonFinite][values_pick];
        let x = weighted_raster(&mut rng, [batch, in_c, in_h, in_w], density, values);
        let w = weights(&mut rng, [out_c, in_c, geom.kernel_h, geom.kernel_w]);
        // No bias, a random bias, or one holding zeros of both signs.
        let bias = match with_bias {
            0 => None,
            1 => Some(rng.uniform_tensor([out_c], -0.5, 0.5)),
            _ => Some(Tensor::from_fn([out_c], |o| if o % 2 == 0 { -0.0 } else { 0.0 })),
        };
        let taps = ConvTaps::new(&w).unwrap();
        if geom.output_hw(in_h, in_w).is_err() {
            prop_assert!(conv2d_weighted_events(&x, &taps, bias.as_ref(), geom).is_err());
            return Ok(());
        }
        let scan = SpikeScan::of(x.data());
        // At or below the crossover, the gate's density half holds.
        let (num, den) = WEIGHTED_EVENT_DENSITY;
        prop_assume!(scan.nonzero * den <= x.len() * num);
        for level in simd::Level::available() {
            let admitted = weighted_gate(level, &x, out_c, geom);
            prop_assert!(admitted || level == simd::Level::Avx2, "{}", level.name());
            if tiled {
                prop_assert!(admitted, "{} refused a tiled geometry", level.name());
            }
            if !admitted {
                continue;
            }
            simd::with_level(level, || -> Result<(), TestCaseError> {
                let want = conv2d(&x, &w, bias.as_ref(), geom).unwrap();
                let got = conv2d_weighted_events(&x, &taps, bias.as_ref(), geom).unwrap();
                prop_assert_eq!(got.dims(), want.dims());
                prop_assert_eq!(
                    nan_bits(&got), nan_bits(&want), "{} {:?} {:?}", level.name(), geom, values
                );
                Ok(())
            })?;
        }
    }

    /// The gate's parts: at scalar and wide it is the geometry fit, finite
    /// weights and the density crossover; at AVX2 it further refuses output
    /// channels that leave a ragged 4-row band and output planes that
    /// leave a ragged 16-column tile, where the GEMM does not fuse.
    #[test]
    fn weighted_gate_refuses_ragged_gemm_tiles_at_avx2(
        out_c in 1usize..40,
        out_h in 1usize..40,
        out_w in 1usize..40,
        kernel in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..6,
        nonzero in 0usize..200,
        len in 1usize..200,
        finite_pick in 0u8..2,
        binary_pick in 0u8..2,
    ) {
        let (finite, binary) = (finite_pick == 1, binary_pick == 1);
        let geom = ConvGeometry::square(kernel, stride, padding).unwrap();
        let scan = SpikeScan { nonzero: nonzero.min(len), binary };
        let (num, den) = WEIGHTED_EVENT_DENSITY;
        let unfused = finite && spike_conv_fits(geom) && scan.nonzero * den <= len * num;
        let gate = |level| weighted_conv_applies(level, geom, out_c, (out_h, out_w), finite, scan, len);
        prop_assert_eq!(gate(simd::Level::Scalar), unfused);
        prop_assert_eq!(gate(simd::Level::Wide), unfused);
        prop_assert_eq!(
            gate(simd::Level::Avx2),
            unfused && out_c % 4 == 0 && (out_h * out_w) % 16 == 0
        );
    }

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

/// A fused product that underflows leaves a `-0` accumulator, which the
/// GEMM's next zero input (`+0` when its weight is positive) turns into
/// `+0`, and which the GEMM's store into a zeroed output would turn into
/// `+0` anyway; the weighted walk skips that input, so its copy-out must
/// add the `+0` itself. Bias zeros of either sign are kept as the GEMM
/// keeps them. A 1×1 kernel on a 4×4 plane into 4 outputs fills whole
/// GEMM tiles, so the gate admits it at every level.
#[test]
fn an_underflowing_product_leaves_as_the_gemms_zero() {
    let geom = ConvGeometry::square(1, 1, 0).unwrap();
    // Channel 0 is ¼ everywhere, channel 1 zero everywhere.
    let x = Tensor::from_fn([1, 2, 4, 4], |i| if i < 16 { 0.25 } else { 0.0 });
    let smallest = -f32::from_bits(1); // the negative subnormal closest to 0
    let w = Tensor::from_fn([4, 2, 1, 1], |i| if i % 2 == 0 { smallest } else { 1.0 });
    let taps = ConvTaps::new(&w).unwrap();
    for bias in [None, Some(Tensor::from_slice(&[-0.0, 0.0, -0.0, 0.0]))] {
        for level in simd::Level::available() {
            assert!(weighted_gate(level, &x, 4, geom), "{}", level.name());
            simd::with_level(level, || {
                let want = conv2d(&x, &w, bias.as_ref(), geom).unwrap();
                let got = conv2d_weighted_events(&x, &taps, bias.as_ref(), geom).unwrap();
                assert!(want.data().iter().all(|v| v.to_bits() == 0), "{want}");
                assert_eq!(bits(&got), bits(&want), "{} bias {bias:?}", level.name());
            });
        }
    }
}

/// cnn6's pooled-input convolution (node 3: 8 channels of 8×8 pooled
/// spikes into 16 outputs, a padded 3×3 kernel) at batch 1 to 32 and the
/// pooled maps' ~25% density: the gate admits it at every level, and the
/// weighted walk equals `conv2d` bitwise.
#[test]
fn cnn6_pooled_geometry_takes_the_weighted_path_at_every_level() {
    let mut rng = SeededRng::new(24);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let w = weights(&mut rng, [16, 8, 3, 3]);
    let b = rng.uniform_tensor([16], -0.1, 0.1);
    let taps = ConvTaps::new(&w).unwrap();
    for batch in [1, 4, 5, 32] {
        let x = weighted_raster(&mut rng, [batch, 8, 8, 8], 0.25, Values::Pooled);
        for level in simd::Level::available() {
            assert!(weighted_gate(level, &x, 16, geom), "{}", level.name());
            simd::with_level(level, || {
                let want = conv2d(&x, &w, Some(&b), geom).unwrap();
                let got = conv2d_weighted_events(&x, &taps, Some(&b), geom).unwrap();
                assert_eq!(bits(&got), bits(&want), "{} batch {batch}", level.name());
            });
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
