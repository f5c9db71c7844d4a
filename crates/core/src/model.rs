//! Converted models on disk.
//!
//! The conversion is a closed-form function of the trained ANN and its
//! per-site norm-factors (Eq. 5), so a converted model is stored as exactly
//! those: a TCLK file ([`tcl_nn::container`]) with the ANN's NETWORK section
//! (before batch-norm folding) and one CONVERSION section:
//!
//! ```text
//! strategy u8 (0 max-norm | 1 percentile, then p f32 | 2 trained clip)
//! reset u8 (0 subtract | 1 zero)
//! sample dim count u32, then each dim u32
//! norm-factor count u32, then each λ f32
//! ```
//!
//! Loading rebuilds the spiking network the way [`crate::Converter`] built
//! it, through [`fold_batch_norm`] and the same emitter, so the reloaded
//! network is bitwise the converted one. SpikeNorm thresholds come from
//! simulation rather than Eq. 5 and cannot be rebuilt this way; such
//! conversions are refused.

use crate::convert::{emit_spiking, validate_convertible, Conversion, NormStrategy};
use crate::error::{ConvertError, Result};
use crate::fold::fold_batch_norm;
use std::path::Path;
use tcl_nn::container::{
    finish, read_f32, read_network, read_u32, read_u8, seal, write_f32, write_network, write_u32,
    write_u8, Sections, SEC_CONVERSION, SEC_NETWORK,
};
use tcl_nn::layers::{AvgPool2d, BatchNorm2d, Conv2d, MaxPool2d, Shortcut};
use tcl_nn::{Layer, Network, NnError};
use tcl_snn::ResetMode;
use tcl_tensor::ops::ConvGeometry;

/// The sections of a model file.
const SECTIONS: &[(u8, &str)] = &[(SEC_NETWORK, "NETWORK"), (SEC_CONVERSION, "CONVERSION")];

/// A converted model read back from disk.
#[derive(Debug, Clone)]
pub struct ConvertedModel {
    /// The rebuilt conversion: spiking network, norm-factors, strategy and
    /// reset mode.
    pub conversion: Conversion,
    /// One sample's dims, without the batch dimension (e.g. `[3, 32, 32]`).
    pub sample_dims: Vec<usize>,
}

fn model_err(detail: impl Into<String>) -> ConvertError {
    ConvertError::Model {
        detail: detail.into(),
    }
}

/// Emits the spiking network of `ann` under `lambdas`, for samples of
/// `sample_dims`: a shape with no zero dim and a product that fits a
/// `usize`, which every layer of `ann` accepts ([`layer_output`]).
fn rebuild(
    ann: &Network,
    lambdas: &[f32],
    reset: ResetMode,
    sample_dims: &[usize],
) -> Result<tcl_snn::SpikingNetwork> {
    let len = sample_dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d));
    if sample_dims.is_empty() || matches!(len, None | Some(0)) {
        return Err(model_err(format!(
            "sample dims {sample_dims:?} are not a sample shape"
        )));
    }
    validate_convertible(ann)?;
    // A type-A block's virtual identity convolution is a dense O×O kernel.
    // In a real block it is no larger than conv2's own [O, C, kh, kw]
    // kernel; a file asking for more would allocate O² from O stored bytes.
    for layer in ann.layers() {
        if let Layer::Residual(block) = layer {
            let o = block.conv2.out_channels();
            let identity = matches!(block.shortcut, Shortcut::Identity);
            if identity && o.saturating_mul(o) > block.conv2.weight.value.len() {
                return Err(model_err(format!(
                    "identity shortcut over {o} channels outweighs its block's conv2"
                )));
            }
        }
    }
    let mut dims = sample_dims.to_vec();
    for (i, layer) in ann.layers().iter().enumerate() {
        dims = layer_output(layer, &dims).map_err(|why| {
            model_err(format!(
                "sample dims {sample_dims:?} do not fit layer {i} ({}): {why}",
                layer.kind_name()
            ))
        })?;
    }
    emit_spiking(&fold_batch_norm(ann)?, lambdas, reset)
}

/// The dims one sample has after `layer`, given the dims it has before
/// (no batch dim), or why the layer refuses them: the shape rules of each
/// layer's forward pass, in arithmetic only, so a file claiming huge dims
/// costs nothing to check.
fn layer_output(layer: &Layer, dims: &[usize]) -> std::result::Result<Vec<usize>, String> {
    // `dims` as (C, H, W), with `want` channels if given.
    let chw = |dims: &[usize], want: Option<usize>| match *dims {
        [c, h, w] if want.is_none_or(|want| want == c) => Ok((c, h, w)),
        _ => Err(format!(
            "needs [{}, H, W], got {dims:?}",
            want.map_or("C".into(), |c| c.to_string())
        )),
    };
    let window = |g: ConvGeometry, c: usize, (_, h, w): (usize, usize, usize)| {
        let (oh, ow) = g.output_hw(h, w).map_err(|e| e.to_string())?;
        Ok::<_, String>(vec![c, oh, ow])
    };
    let conv = |l: &Conv2d, dims: &[usize]| {
        window(l.geom, l.out_channels(), chw(dims, Some(l.in_channels()))?)
    };
    let norm = |bn: Option<&BatchNorm2d>, dims: &[usize]| {
        bn.map_or(Ok(()), |bn| chw(dims, Some(bn.channels())).map(drop))
    };
    Ok(match layer {
        Layer::Conv2d(l) => conv(l, dims)?,
        Layer::BatchNorm2d(bn) => norm(Some(bn), dims).map(|()| dims.to_vec())?,
        Layer::AvgPool2d(AvgPool2d { kernel, stride, .. })
        | Layer::MaxPool2d(MaxPool2d { kernel, stride, .. }) => {
            let geom = ConvGeometry::square(*kernel, *stride, 0).map_err(|e| e.to_string())?;
            let planes = chw(dims, None)?;
            window(geom, planes.0, planes)?
        }
        Layer::GlobalAvgPool(_) => vec![chw(dims, None)?.0, 1, 1],
        Layer::Flatten(_) => {
            let len = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            vec![len.ok_or_else(|| format!("{dims:?} has more elements than a usize holds"))?]
        }
        Layer::Linear(l) if dims == [l.in_features()] => vec![l.out_features()],
        Layer::Linear(l) => return Err(format!("needs [{}], got {dims:?}", l.in_features())),
        Layer::Relu(_) | Layer::Clip(_) | Layer::Dropout(_) => dims.to_vec(),
        Layer::Residual(block) => {
            let inner = conv(&block.conv1, dims)?;
            norm(block.bn1.as_ref(), &inner)?;
            let path = conv(&block.conv2, &inner)?;
            norm(block.bn2.as_ref(), &path)?;
            let shortcut = match &block.shortcut {
                Shortcut::Identity => dims.to_vec(),
                Shortcut::Projection { conv: sc, bn } => {
                    let shortcut = conv(sc, dims)?;
                    norm(bn.as_ref(), &shortcut).map(|()| shortcut)?
                }
            };
            if path != shortcut {
                return Err(format!("path {path:?} cannot add to shortcut {shortcut:?}"));
            }
            path
        }
    })
}

/// Encodes the conversion of `ann` as a model file's bytes.
///
/// # Errors
///
/// [`ConvertError::Unsupported`] for a SpikeNorm conversion, and every
/// error [`decode_model`] would raise on the result: a norm-factor count
/// other than the folded network's site count, a λ that is not finite and
/// positive, or sample dims that are no sample shape or that a layer of
/// `ann` refuses.
pub fn encode_model(
    ann: &Network,
    conversion: &Conversion,
    sample_dims: &[usize],
) -> Result<Vec<u8>> {
    let mut section = Vec::new();
    match conversion.strategy {
        NormStrategy::MaxActivation => write_u8(&mut section, 0),
        NormStrategy::Percentile(p) => {
            write_u8(&mut section, 1);
            write_f32(&mut section, p);
        }
        NormStrategy::TrainedClip => write_u8(&mut section, 2),
        NormStrategy::SpikeNorm => {
            return Err(ConvertError::Unsupported {
                detail: "spike-norm thresholds come from simulation, not from the ANN".into(),
            })
        }
    }
    let reset = match conversion.reset_mode {
        ResetMode::Subtract => 0,
        ResetMode::Zero => 1,
    };
    write_u8(&mut section, reset);
    rebuild(ann, &conversion.lambdas, conversion.reset_mode, sample_dims)?;
    write_u32(&mut section, sample_dims.len() as u32);
    for &d in sample_dims {
        write_u32(&mut section, d as u32);
    }
    write_u32(&mut section, conversion.lambdas.len() as u32);
    for &lam in &conversion.lambdas {
        write_f32(&mut section, lam);
    }
    let mut network = Vec::new();
    write_network(&mut network, ann);
    Ok(seal(&[(SEC_NETWORK, &network), (SEC_CONVERSION, &section)]))
}

/// Decodes a model file and rebuilds its spiking network.
///
/// # Errors
///
/// A structured error, never a panic, for any container defect (see
/// [`tcl_nn::container::Sections::open`]), a missing or repeated section, a
/// malformed layer record, an unknown strategy or reset tag (all
/// [`ConvertError::Model`]), and the validation failures listed at
/// [`encode_model`].
pub fn decode_model(bytes: &[u8]) -> Result<ConvertedModel> {
    let stored = read_sections(bytes).map_err(|e| match e {
        NnError::Checkpoint { detail } => model_err(detail),
        other => model_err(other.to_string()),
    })?;
    let snn = rebuild(
        &stored.ann,
        &stored.lambdas,
        stored.reset_mode,
        &stored.sample_dims,
    )?;
    Ok(ConvertedModel {
        conversion: Conversion {
            snn,
            lambdas: stored.lambdas,
            strategy: stored.strategy,
            reset_mode: stored.reset_mode,
        },
        sample_dims: stored.sample_dims,
    })
}

/// A model file's sections, decoded but not yet validated.
struct Stored {
    ann: Network,
    strategy: NormStrategy,
    reset_mode: ResetMode,
    sample_dims: Vec<usize>,
    lambdas: Vec<f32>,
}

fn read_sections(bytes: &[u8]) -> tcl_nn::Result<Stored> {
    let bad = |detail: String| NnError::Checkpoint { detail };
    let sections = Sections::open(bytes, SECTIONS)?;
    let mut p = sections.payload(SEC_NETWORK)?;
    let ann = read_network(&mut p)?;
    finish(p, "NETWORK")?;

    let mut p = sections.payload(SEC_CONVERSION)?;
    let strategy = match read_u8(&mut p)? {
        0 => NormStrategy::MaxActivation,
        1 => NormStrategy::Percentile(read_f32(&mut p)?),
        2 => NormStrategy::TrainedClip,
        other => return Err(bad(format!("unknown norm strategy tag {other}"))),
    };
    let reset_mode = match read_u8(&mut p)? {
        0 => ResetMode::Subtract,
        1 => ResetMode::Zero,
        other => return Err(bad(format!("unknown reset mode tag {other}"))),
    };
    // Nothing is reserved from a count: a lying one fails at the first
    // missing entry.
    let mut sample_dims = Vec::new();
    for _ in 0..read_u32(&mut p)? {
        sample_dims.push(read_u32(&mut p)? as usize);
    }
    let mut lambdas = Vec::new();
    for _ in 0..read_u32(&mut p)? {
        lambdas.push(read_f32(&mut p)?);
    }
    finish(p, "CONVERSION")?;
    Ok(Stored {
        ann,
        strategy,
        reset_mode,
        sample_dims,
        lambdas,
    })
}

/// Writes the conversion of `ann` to `path` as a model file.
///
/// # Errors
///
/// As [`encode_model`], plus I/O failures.
pub fn save_model(
    path: &Path,
    ann: &Network,
    conversion: &Conversion,
    sample_dims: &[usize],
) -> Result<()> {
    let bytes = encode_model(ann, conversion, sample_dims)?;
    std::fs::write(path, bytes).map_err(|e| model_err(format!("write {}: {e}", path.display())))
}

/// Reads the model file at `path`.
///
/// # Errors
///
/// As [`decode_model`], plus I/O failures.
pub fn load_model(path: &Path) -> Result<ConvertedModel> {
    let bytes =
        std::fs::read(path).map_err(|e| model_err(format!("read {}: {e}", path.display())))?;
    decode_model(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Converter;
    use tcl_models::{Architecture, ModelConfig};
    use tcl_tensor::{SeededRng, Tensor};

    fn cnn6() -> (Network, Tensor) {
        let mut rng = SeededRng::new(3);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(Some(2.0));
        let net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
        (net, rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0))
    }

    #[test]
    fn every_strategy_but_spike_norm_round_trips() {
        let (net, calibration) = cnn6();
        for strategy in [
            NormStrategy::MaxActivation,
            NormStrategy::percentile_999(),
            NormStrategy::TrainedClip,
        ] {
            let conversion = Converter::new(strategy)
                .with_reset_mode(ResetMode::Zero)
                .convert(&net, &calibration)
                .unwrap();
            let bytes = encode_model(&net, &conversion, &[3, 8, 8]).unwrap();
            let back = decode_model(&bytes).unwrap();
            assert_eq!(back.sample_dims, vec![3, 8, 8]);
            assert_eq!(back.conversion.strategy, strategy);
            assert_eq!(back.conversion.reset_mode, ResetMode::Zero);
            assert_eq!(back.conversion.lambdas, conversion.lambdas);
            assert_eq!(
                format!("{:?}", back.conversion.snn),
                format!("{:?}", conversion.snn)
            );
        }
        let spike_norm = Converter::new(NormStrategy::SpikeNorm)
            .with_spike_norm_steps(2)
            .convert(&net, &calibration)
            .unwrap();
        assert!(matches!(
            encode_model(&net, &spike_norm, &[3, 8, 8]),
            Err(ConvertError::Unsupported { .. })
        ));
    }

    #[test]
    fn dims_that_are_no_sample_shape_are_refused_on_save() {
        let (net, calibration) = cnn6();
        let conversion = Converter::new(NormStrategy::TrainedClip)
            .convert(&net, &calibration)
            .unwrap();
        for dims in [&[][..], &[3, 0, 8], &[usize::MAX, 2]] {
            assert!(encode_model(&net, &conversion, dims).is_err(), "{dims:?}");
        }
    }
}
