//! Totality of the model-file parser (`tcl_core::decode_model`).
//!
//! A model file is a TCLK container with a NETWORK and a CONVERSION
//! section. Whatever the bytes, decoding returns a structured error or a
//! model equal to the one written — never a panic, never a silently
//! different network: every single-byte flip and every truncation of a
//! real file, every mutation of either section behind a resealed CRC, and
//! the handcrafted defects the validation exists for (a wrong norm-factor
//! count, a NaN or zero λ, empty sample dims, sample dims the network
//! refuses, a missing or repeated CONVERSION section, a residual identity
//! shortcut larger than its block).

use proptest::prelude::*;
use tcl_core::{decode_model, encode_model, ConvertedModel, Converter, NormStrategy};
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::container::{
    crc32, seal, write_f32, write_network, write_u32, write_u8, SEC_CONVERSION, SEC_NETWORK,
};
use tcl_nn::layers::{Clip, Conv2d, Flatten, GlobalAvgPool, Linear, ResidualBlock, Shortcut};
use tcl_nn::{Layer, Network};
use tcl_tensor::ops::ConvGeometry;
use tcl_tensor::{SeededRng, Tensor};

const DIMS: [usize; 3] = [3, 8, 8];

fn cnn6() -> Network {
    let cfg = ModelConfig::new((3, 8, 8), 4)
        .with_base_width(2)
        .with_clip_lambda(Some(2.0));
    Architecture::Cnn6
        .build(&cfg, &mut SeededRng::new(5))
        .unwrap()
}

/// A real model file and the conversion it holds.
fn reference() -> (Vec<u8>, ConvertedModel) {
    let net = cnn6();
    let calibration = SeededRng::new(6).uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap();
    let bytes = encode_model(&net, &conversion, &DIMS).unwrap();
    let model = ConvertedModel {
        conversion,
        sample_dims: DIMS.to_vec(),
    };
    (bytes, model)
}

/// Equal models: the same dims, strategy, reset mode, norm-factor bits and
/// spiking network. `Debug` prints every `f32` in its shortest round-trip
/// form, so equal text means equal bits for a network without NaNs.
fn assert_same(a: &ConvertedModel, b: &ConvertedModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.sample_dims, &b.sample_dims);
    prop_assert_eq!(a.conversion.strategy, b.conversion.strategy);
    prop_assert_eq!(a.conversion.reset_mode, b.conversion.reset_mode);
    let bits = |m: &ConvertedModel| -> Vec<u32> {
        m.conversion.lambdas.iter().map(|l| l.to_bits()).collect()
    };
    prop_assert_eq!(bits(a), bits(b));
    let (da, db) = (
        format!("{:?}", a.conversion.snn),
        format!("{:?}", b.conversion.snn),
    );
    prop_assert!(!da.contains("NaN"));
    prop_assert!(da == db, "rebuilt network differs");
    Ok(())
}

/// A CONVERSION payload: trained-clip strategy, subtract reset, then the
/// given dims and norm-factors.
fn conversion_payload(dims: &[u32], lambdas: &[f32]) -> Vec<u8> {
    let mut p = Vec::new();
    write_u8(&mut p, 2);
    write_u8(&mut p, 0);
    write_u32(&mut p, dims.len() as u32);
    for &d in dims {
        write_u32(&mut p, d);
    }
    write_u32(&mut p, lambdas.len() as u32);
    for &l in lambdas {
        write_f32(&mut p, l);
    }
    p
}

/// Rewrites the payload of section `tag` with `edit` and reseals its
/// length and CRC, so the container hands the edited bytes to the section
/// decoder.
fn reseal(bytes: &[u8], tag: u8, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = bytes[..12].to_vec(); // magic, version, section count
    let mut at = 12;
    let mut edit = Some(edit);
    while at < bytes.len() {
        let this = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        let start = at + 13;
        let mut payload = bytes[start..start + len].to_vec();
        let mut crc = u32::from_le_bytes(bytes[at + 9..start].try_into().unwrap());
        if this == tag {
            (edit.take().unwrap())(&mut payload);
            crc = crc32(&payload);
        }
        out.push(this);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&payload);
        at = start + len;
    }
    assert!(edit.is_none(), "no section {tag}");
    out
}

/// Four-byte values a corrupt count, dimension or float is most likely to
/// be wrong with: zero, one, huge, negative, NaN and infinities.
const NASTY_WORDS: [u32; 8] = [
    0,
    1,
    u32::MAX,
    0x8000_0000,
    0x7FC0_0000,
    0x7F80_0000,
    0xFF80_0000,
    0xBF80_0000,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn single_byte_flips_are_detected_or_harmless(pos in 0usize..1_000_000, flip in 1u8..=255) {
        let (bytes, original) = reference();
        let mut mutated = bytes.clone();
        let at = pos % mutated.len();
        mutated[at] ^= flip;
        if let Ok(decoded) = decode_model(&mutated) {
            assert_same(&decoded, &original)?;
        }
    }

    #[test]
    fn truncations_are_detected_or_harmless(cut in 0usize..1_000_000) {
        let (bytes, original) = reference();
        if let Ok(decoded) = decode_model(&bytes[..cut % (bytes.len() + 1)]) {
            assert_same(&decoded, &original)?;
        }
    }

    /// Behind a resealed CRC, every overwrite, nasty-word splice, insertion
    /// or truncation of either section decodes to `Ok` or `Err`.
    #[test]
    fn resealed_section_mutations_never_panic(
        section in 0u8..2,
        edits in proptest::collection::vec((0u8..4, 0usize..1_000_000, 0u32..256), 1..4),
    ) {
        let (bytes, _) = reference();
        let tag = if section == 0 { SEC_NETWORK } else { SEC_CONVERSION };
        let mutated = reseal(&bytes, tag, |payload| {
            for (kind, pos, value) in edits {
                let at = pos % payload.len().max(1);
                match kind {
                    0 if !payload.is_empty() => payload[at] = value as u8,
                    1 if at + 4 <= payload.len() => payload[at..at + 4]
                        .copy_from_slice(&NASTY_WORDS[value as usize % 8].to_le_bytes()),
                    2 => payload.insert(at.min(payload.len()), value as u8),
                    _ => payload.truncate(at),
                }
            }
        });
        let _ = decode_model(&mutated);
    }
}

#[test]
fn the_reference_file_round_trips_and_reseals_unchanged() {
    // Guards the properties above: the untouched file decodes, and
    // resealing alone changes no byte.
    let (bytes, original) = reference();
    assert_same(&decode_model(&bytes).unwrap(), &original).unwrap();
    assert_eq!(reseal(&bytes, SEC_CONVERSION, |_| {}), bytes);
    assert_eq!(reseal(&bytes, SEC_NETWORK, |_| {}), bytes);
}

#[test]
fn handcrafted_defects_are_refused() {
    let (_, original) = reference();
    let lambdas = original.conversion.lambdas.clone();
    let mut network = Vec::new();
    write_network(&mut network, &cnn6());
    let dims = [3u32, 8, 8];
    let nan = {
        let mut l = lambdas.clone();
        l[1] = f32::NAN;
        l
    };
    let zero = {
        let mut l = lambdas.clone();
        l[0] = 0.0;
        l
    };
    let good = conversion_payload(&dims, &lambdas);
    let mut cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "wrong λ count",
            seal(&[
                (SEC_NETWORK, &network),
                (SEC_CONVERSION, &conversion_payload(&dims, &lambdas[1..])),
            ]),
            "5 norm-factors for 6 activation sites",
        ),
        (
            "no λ at all",
            seal(&[
                (SEC_NETWORK, &network),
                (SEC_CONVERSION, &conversion_payload(&dims, &[])),
            ]),
            "0 norm-factors",
        ),
        (
            "NaN λ",
            seal(&[
                (SEC_NETWORK, &network),
                (SEC_CONVERSION, &conversion_payload(&dims, &nan)),
            ]),
            "norm-factor NaN",
        ),
        (
            "zero λ",
            seal(&[
                (SEC_NETWORK, &network),
                (SEC_CONVERSION, &conversion_payload(&dims, &zero)),
            ]),
            "norm-factor 0",
        ),
        (
            "empty dims",
            seal(&[
                (SEC_NETWORK, &network),
                (SEC_CONVERSION, &conversion_payload(&[], &lambdas)),
            ]),
            "sample dims []",
        ),
        (
            "missing CONVERSION",
            seal(&[(SEC_NETWORK, &network)]),
            "missing CONVERSION section",
        ),
        (
            "duplicate CONVERSION",
            seal(&[
                (SEC_NETWORK, &network),
                (SEC_CONVERSION, &good),
                (SEC_CONVERSION, &good),
            ]),
            "duplicate CONVERSION section",
        ),
    ];
    // A type-A block whose 64-channel identity shortcut outweighs its
    // [64, 1, 1, 1] conv2.
    let geom = ConvGeometry::square(1, 1, 0).unwrap();
    let block = ResidualBlock::from_parts(
        Conv2d::from_parts(Tensor::ones([1, 64, 1, 1]), None, geom).unwrap(),
        None,
        Some(Clip::new(1.0)),
        Conv2d::from_parts(Tensor::ones([64, 1, 1, 1]), None, geom).unwrap(),
        None,
        Shortcut::Identity,
        Some(Clip::new(1.0)),
    );
    let mut lopsided = Vec::new();
    write_network(
        &mut lopsided,
        &Network::new(vec![
            Layer::Residual(block),
            Layer::GlobalAvgPool(GlobalAvgPool::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::from_parts(Tensor::ones([2, 64]), None).unwrap()),
        ]),
    );
    cases.push((
        "identity larger than conv2",
        seal(&[
            (SEC_NETWORK, &lopsided),
            (SEC_CONVERSION, &conversion_payload(&[64, 2, 2], &[1.0; 3])),
        ]),
        "outweighs",
    ));
    // The well-formed file built the same way is accepted.
    let ok = decode_model(&seal(&[(SEC_NETWORK, &network), (SEC_CONVERSION, &good)])).unwrap();
    assert_same(&ok, &original).unwrap();
    for (case, bytes, want) in cases {
        let err = decode_model(&bytes).unwrap_err().to_string();
        assert!(err.contains(want), "{case}: {err}");
    }
}

#[test]
fn sample_dims_the_network_refuses_are_refused_on_save_and_load() {
    let (_, original) = reference();
    let net = cnn6();
    let lambdas = original.conversion.lambdas.clone();
    let mut network = Vec::new();
    write_network(&mut network, &net);
    // cnn6 built for [3, 8, 8]: a fourth input channel, spatial dims whose
    // flatten no longer matches the classifier's width, and dims whose
    // tensors would take ~50 GB, refused by arithmetic alone.
    for (dims, want) in [
        (
            [4u32, 8, 8],
            "layer 0 (conv2d): needs [3, H, W], got [4, 8, 8]",
        ),
        ([3, 16, 16], "(linear): needs ["),
        ([3, 65535, 65535], "(linear): needs ["),
    ] {
        let usize_dims: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
        let saved = encode_model(&net, &original.conversion, &usize_dims);
        let err = saved.unwrap_err().to_string();
        assert!(err.contains(want), "save {dims:?}: {err}");
        let file = seal(&[
            (SEC_NETWORK, &network),
            (SEC_CONVERSION, &conversion_payload(&dims, &lambdas)),
        ]);
        let err = decode_model(&file).unwrap_err().to_string();
        assert!(err.contains(want), "load {dims:?}: {err}");
    }
}
