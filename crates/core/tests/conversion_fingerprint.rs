//! Bit-exact fingerprints of every conversion strategy.
//!
//! Each case converts a fixed network and hashes the spiking network it
//! emits — the `Debug` text of every node (weights, taps, packed panels,
//! biases, thresholds, reset modes) — together with the resolved
//! norm-factors. `f32`'s `Debug` output round-trips exactly and tells −0
//! from +0, so two conversions share a digest only if they share every bit.
//!
//! The cases cover each [`NormStrategy`] (TCL on a net whose clipping
//! layers carry distinct bounds; max-norm, p99.9 and SpikeNorm on a
//! clip-less one) on cnn6 and on ResNet-20, which has identity and
//! projection shortcuts, under both reset modes. SpikeNorm calibrates its
//! thresholds by simulation, so its digests depend on the SIMD level: every
//! case runs at `Scalar`. They must not depend on `TCL_THREADS`.

use tcl_core::{Conversion, Converter, NormStrategy};
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::{Layer, Mode, Network};
use tcl_snn::ResetMode;
use tcl_tensor::{simd, SeededRng, Tensor};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(c: &Conversion) -> u64 {
    fnv1a(format!("{:?}{:?}", c.snn.nodes(), c.lambdas).as_bytes())
}

fn calibration() -> Tensor {
    SeededRng::new(0xF1).uniform_tensor([8, 3, 8, 8], -1.0, 1.0)
}

/// A small `arch` whose batch-norm running statistics have moved off their
/// initial values, so folding them changes every weight. With `clipped`,
/// the `k`-th clipping layer in walk order gets the bound `1.25 + 0.25·k`.
fn network(arch: Architecture, clipped: bool) -> Network {
    let cfg = ModelConfig::new((3, 8, 8), 4)
        .with_base_width(2)
        .with_clip_lambda(clipped.then_some(2.0));
    let mut net = arch.build(&cfg, &mut SeededRng::new(0xF0)).unwrap();
    net.forward(&calibration(), Mode::Train).unwrap();
    let mut k = 0usize;
    let mut set = |lambda: &mut Tensor| {
        lambda.data_mut()[0] = 1.25 + 0.25 * k as f32;
        k += 1;
    };
    for layer in net.layers_mut() {
        match layer {
            Layer::Clip(c) => set(&mut c.lambda.value),
            Layer::Residual(r) => {
                for c in [&mut r.clip1, &mut r.clip_out].into_iter().flatten() {
                    set(&mut c.lambda.value);
                }
            }
            _ => {}
        }
    }
    net
}

/// Checks every (architecture, reset mode) case of `strategy` against its
/// digest, reporting all mismatches at once.
fn check(strategy: NormStrategy, clipped: bool, expected: [(Architecture, ResetMode, u64); 4]) {
    let calibration = calibration();
    let mismatches: Vec<String> = simd::with_level(simd::Level::Scalar, || {
        expected
            .iter()
            .filter_map(|&(arch, reset, want)| {
                let conversion = Converter::new(strategy)
                    .with_reset_mode(reset)
                    .with_calibration_batch(4)
                    .with_spike_norm_steps(6)
                    .convert(&network(arch, clipped), &calibration)
                    .unwrap();
                let got = digest(&conversion);
                (got != want).then(|| format!("{arch:?} {reset:?}: got {got:#018x}"))
            })
            .collect()
    });
    assert!(
        mismatches.is_empty(),
        "{} conversions changed:\n{}",
        strategy.name(),
        mismatches.join("\n")
    );
}

use Architecture::{Cnn6, ResNet20};
use ResetMode::{Subtract, Zero};

#[test]
fn trained_clip_conversions_are_pinned() {
    check(
        NormStrategy::TrainedClip,
        true,
        [
            (Cnn6, Subtract, 0x1584_66e9_5222_7a1d),
            (Cnn6, Zero, 0x1285_4ec2_9dbb_d2d1),
            (ResNet20, Subtract, 0x8ce4_496a_5ddb_5d85),
            (ResNet20, Zero, 0xfbf3_1772_cc2b_e885),
        ],
    );
}

#[test]
fn max_norm_conversions_are_pinned() {
    check(
        NormStrategy::MaxActivation,
        false,
        [
            (Cnn6, Subtract, 0xe7ff_c8b5_8e9d_e0c8),
            (Cnn6, Zero, 0xa467_de9c_9c73_3d14),
            (ResNet20, Subtract, 0x48e1_4da0_ef47_9c40),
            (ResNet20, Zero, 0x5eb2_0849_f7f9_4dfc),
        ],
    );
}

#[test]
fn percentile_conversions_are_pinned() {
    check(
        NormStrategy::percentile_999(),
        false,
        [
            (Cnn6, Subtract, 0x1ad8_0ae3_cb85_118a),
            (Cnn6, Zero, 0x7a02_c930_d9eb_2c92),
            (ResNet20, Subtract, 0x6273_84c1_4170_32cd),
            (ResNet20, Zero, 0x1b72_7cf1_6409_b5a1),
        ],
    );
}

#[test]
fn spike_norm_conversions_are_pinned() {
    check(
        NormStrategy::SpikeNorm,
        false,
        [
            (Cnn6, Subtract, 0x19ac_da10_f9d2_813e),
            (Cnn6, Zero, 0xc9d3_f1f6_23a6_bcb9),
            (ResNet20, Subtract, 0x7bd3_ee3e_063a_e3ba),
            (ResNet20, Zero, 0x4f75_ed9e_ec22_e34f),
        ],
    );
}
