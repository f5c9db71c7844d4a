//! The layer codec: the payload of a TCLK file's NETWORK section.
//!
//! The benchmark harnesses train the same networks for several experiments
//! (Table 1, Figure 1, the ablations) and reuse them through the checkpoint
//! store ([`crate::checkpoint`]), whose NETWORK section is written by
//! [`write_network`]. The codec is a small explicit little-endian binary
//! format with no external dependencies — rather than a generic serializer —
//! so files stay stable across crate-internal refactors. It has no magic or
//! version of its own: the container's version covers it.
//!
//! Only parameter *values* and structural hyper-parameters are stored here;
//! momentum buffers live in the container's MOMENTUM section, and
//! gradients and layer caches are reset on load.
//!
//! Decoding reads a CRC-checked in-memory slice. Every read goes through
//! [`crate::container::take`], so a corrupt length field fails with a
//! format error before anything is allocated for it, and no input makes the
//! decoder panic.

use crate::container::{
    format_err, read_f32, read_tensor, read_u32, read_u64, read_u8, write_f32, write_tensor,
    write_u32, write_u64, write_u8,
};
use crate::error::Result;
use crate::layer::Layer;
use crate::layers::{
    AvgPool2d, BatchNorm2d, Clip, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
    ResidualBlock, Shortcut,
};
use crate::network::Network;
use tcl_tensor::ops::ConvGeometry;

fn write_opt<T>(out: &mut Vec<u8>, v: Option<&T>, write: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Some(v) => {
            write_u8(out, 1);
            write(out, v);
        }
        None => write_u8(out, 0),
    }
}

fn read_opt<T>(r: &mut &[u8], read: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<Option<T>> {
    match read_u8(r)? {
        0 => Ok(None),
        1 => read(r).map(Some),
        other => Err(format_err(format!("bad option tag {other}"))),
    }
}

fn write_conv(out: &mut Vec<u8>, conv: &Conv2d) {
    write_tensor(out, &conv.weight.value);
    write_opt(out, conv.bias.as_ref().map(|b| &b.value), write_tensor);
    write_u32(out, conv.geom.kernel_h as u32);
    write_u32(out, conv.geom.kernel_w as u32);
    write_u32(out, conv.geom.stride as u32);
    write_u32(out, conv.geom.padding as u32);
}

fn read_conv(r: &mut &[u8]) -> Result<Conv2d> {
    let weight = read_tensor(r)?;
    let bias = read_opt(r, read_tensor)?;
    let kh = read_u32(r)? as usize;
    let kw = read_u32(r)? as usize;
    let stride = read_u32(r)? as usize;
    let padding = read_u32(r)? as usize;
    let geom = ConvGeometry::new(kh, kw, stride, padding)?;
    Conv2d::from_parts(weight, bias, geom)
}

fn write_bn(out: &mut Vec<u8>, bn: &BatchNorm2d) {
    write_tensor(out, &bn.gamma.value);
    write_tensor(out, &bn.beta.value);
    write_tensor(out, &bn.running_mean);
    write_tensor(out, &bn.running_var);
    write_f32(out, bn.eps);
    write_f32(out, bn.momentum);
}

fn read_bn(r: &mut &[u8]) -> Result<BatchNorm2d> {
    let gamma = read_tensor(r)?;
    let beta = read_tensor(r)?;
    let mean = read_tensor(r)?;
    let var = read_tensor(r)?;
    let eps = read_f32(r)?;
    let momentum = read_f32(r)?;
    // All four vectors must agree on the channel count. A corrupt file that
    // shrinks one of them would otherwise build a malformed BatchNorm2d
    // that only fails (with a shape error, far from the load site) on its
    // first forward pass.
    let channels = gamma.len();
    for (name, t) in [
        ("beta", &beta),
        ("running_mean", &mean),
        ("running_var", &var),
    ] {
        if t.len() != channels {
            return Err(format_err(format!(
                "batch-norm {name} length {} != gamma length {channels}",
                t.len()
            )));
        }
    }
    if !eps.is_finite() || eps <= 0.0 {
        return Err(format_err(format!("batch-norm eps {eps} not positive")));
    }
    let mut bn = BatchNorm2d::new(channels)?;
    bn.gamma.value = gamma;
    bn.beta.value = beta;
    bn.running_mean = mean;
    bn.running_var = var;
    bn.eps = eps;
    bn.momentum = momentum;
    Ok(bn)
}

fn write_clip(out: &mut Vec<u8>, clip: &Clip) {
    write_f32(out, clip.lambda_value());
}

fn read_clip(r: &mut &[u8]) -> Result<Clip> {
    let lam = read_f32(r)?;
    // `Clip::new` asserts a positive bound (NaN fails it), and an infinite
    // bound clips nothing: both can only come from a corrupt file.
    if !lam.is_finite() || lam <= 0.0 {
        return Err(format_err(format!(
            "clip bound {lam} not finite and positive"
        )));
    }
    Ok(Clip::new(lam))
}

/// Appends a network's layer records to `out`: the NETWORK section's
/// payload.
pub fn write_network(out: &mut Vec<u8>, net: &Network) {
    write_u32(out, net.len() as u32);
    for layer in net.layers() {
        match layer {
            Layer::Conv2d(conv) => {
                write_u8(out, 0);
                write_conv(out, conv);
            }
            Layer::Linear(linear) => {
                write_u8(out, 1);
                write_tensor(out, &linear.weight.value);
                write_opt(out, linear.bias.as_ref().map(|b| &b.value), write_tensor);
            }
            Layer::BatchNorm2d(bn) => {
                write_u8(out, 2);
                write_bn(out, bn);
            }
            Layer::Relu(_) => write_u8(out, 3),
            Layer::Clip(c) => {
                write_u8(out, 4);
                write_clip(out, c);
            }
            Layer::AvgPool2d(p) => {
                write_u8(out, 5);
                write_u32(out, p.kernel as u32);
                write_u32(out, p.stride as u32);
            }
            Layer::MaxPool2d(p) => {
                write_u8(out, 6);
                write_u32(out, p.kernel as u32);
                write_u32(out, p.stride as u32);
            }
            Layer::GlobalAvgPool(_) => write_u8(out, 7),
            Layer::Flatten(_) => write_u8(out, 8),
            Layer::Dropout(d) => {
                write_u8(out, 10);
                write_f32(out, d.p);
                // The mask stream (seed + call cursor), so a reloaded
                // network trains with the same dropout draws.
                write_u64(out, d.seed());
                write_u64(out, d.calls());
            }
            Layer::Residual(block) => {
                write_u8(out, 9);
                write_conv(out, &block.conv1);
                write_opt(out, block.bn1.as_ref(), write_bn);
                write_opt(out, block.clip1.as_ref(), write_clip);
                write_conv(out, &block.conv2);
                write_opt(out, block.bn2.as_ref(), write_bn);
                match &block.shortcut {
                    Shortcut::Identity => write_u8(out, 0),
                    Shortcut::Projection { conv, bn } => {
                        write_u8(out, 1);
                        write_conv(out, conv);
                        write_opt(out, bn.as_ref(), write_bn);
                    }
                }
                write_opt(out, block.clip_out.as_ref(), write_clip);
            }
        }
    }
}

/// Reads a network written by [`write_network`].
///
/// # Errors
///
/// Returns a graph error for a truncated or malformed layer record.
pub fn read_network(r: &mut &[u8]) -> Result<Network> {
    let count = read_u32(r)?;
    // No reservation from `count`: a lying count fails at the first
    // missing record, having grown `layers` only by what was decoded.
    let mut layers = Vec::new();
    for _ in 0..count {
        let layer = match read_u8(r)? {
            0 => Layer::Conv2d(read_conv(r)?),
            1 => {
                let weight = read_tensor(r)?;
                let bias = read_opt(r, read_tensor)?;
                Layer::Linear(Linear::from_parts(weight, bias)?)
            }
            2 => Layer::BatchNorm2d(read_bn(r)?),
            3 => Layer::Relu(Relu::new()),
            4 => Layer::Clip(read_clip(r)?),
            5 => {
                let kernel = read_u32(r)? as usize;
                let stride = read_u32(r)? as usize;
                Layer::AvgPool2d(AvgPool2d::new(kernel, stride)?)
            }
            6 => {
                let kernel = read_u32(r)? as usize;
                let stride = read_u32(r)? as usize;
                Layer::MaxPool2d(MaxPool2d::new(kernel, stride)?)
            }
            7 => Layer::GlobalAvgPool(GlobalAvgPool::new()),
            8 => Layer::Flatten(Flatten::new()),
            9 => {
                let conv1 = read_conv(r)?;
                let bn1 = read_opt(r, read_bn)?;
                let clip1 = read_opt(r, read_clip)?;
                let conv2 = read_conv(r)?;
                let bn2 = read_opt(r, read_bn)?;
                let shortcut = match read_u8(r)? {
                    0 => Shortcut::Identity,
                    1 => {
                        let conv = read_conv(r)?;
                        let bn = read_opt(r, read_bn)?;
                        Shortcut::Projection { conv, bn }
                    }
                    other => return Err(format_err(format!("bad shortcut tag {other}"))),
                };
                let clip_out = read_opt(r, read_clip)?;
                Layer::Residual(ResidualBlock::from_parts(
                    conv1, bn1, clip1, conv2, bn2, shortcut, clip_out,
                ))
            }
            10 => {
                let p = read_f32(r)?;
                let seed = read_u64(r)?;
                let calls = read_u64(r)?;
                Layer::Dropout(Dropout::from_saved(p, seed, calls)?)
            }
            other => return Err(format_err(format!("unknown layer tag {other}"))),
        };
        layers.push(layer);
    }
    Ok(Network::new(layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use tcl_tensor::{SeededRng, Tensor};

    fn encode(net: &Network) -> Vec<u8> {
        let mut buf = Vec::new();
        write_network(&mut buf, net);
        buf
    }

    fn roundtrip(net: &Network) -> Network {
        let buf = encode(net);
        let mut r = buf.as_slice();
        let back = read_network(&mut r).unwrap();
        assert!(r.is_empty(), "decoder left {} bytes", r.len());
        back
    }

    fn assert_same_function(a: &Network, b: &Network, input: &Tensor) {
        let mut a = a.clone();
        let mut b = b.clone();
        let ya = a.forward(input, Mode::Eval).unwrap();
        let yb = b.forward(input, Mode::Eval).unwrap();
        assert!(ya.max_abs_diff(&yb).unwrap() < 1e-6);
    }

    /// A one-layer payload: layer count 1, then `record`.
    fn one_layer(record: &[u8]) -> Vec<u8> {
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.extend_from_slice(record);
        buf
    }

    #[test]
    fn roundtrips_a_conv_classifier() {
        let mut rng = SeededRng::new(0);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(3, 4, 3, 1, 1, true, &mut rng).unwrap()),
            Layer::BatchNorm2d(BatchNorm2d::new(4).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Clip(Clip::new(1.7)),
            Layer::AvgPool2d(AvgPool2d::new(2, 2).unwrap()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(4 * 4 * 4, 5, true, &mut rng).unwrap()),
        ]);
        let back = roundtrip(&net);
        assert_eq!(back.len(), net.len());
        assert_eq!(back.clip_lambdas(), vec![1.7]);
        let x = rng.uniform_tensor([2, 3, 8, 8], -1.0, 1.0);
        assert_same_function(&net, &back, &x);
    }

    #[test]
    fn roundtrips_residual_blocks_of_both_types() {
        let mut rng = SeededRng::new(1);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(3, 4, 3, 1, 1, false, &mut rng).unwrap()),
            Layer::BatchNorm2d(BatchNorm2d::new(4).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::Residual(ResidualBlock::new(4, 4, 1, true, Some(2.0), &mut rng).unwrap()),
            Layer::Residual(ResidualBlock::new(4, 8, 2, true, Some(2.0), &mut rng).unwrap()),
            Layer::GlobalAvgPool(GlobalAvgPool::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(8, 3, true, &mut rng).unwrap()),
        ]);
        let back = roundtrip(&net);
        let x = rng.uniform_tensor([2, 3, 8, 8], -1.0, 1.0);
        assert_same_function(&net, &back, &x);
    }

    #[test]
    fn roundtrips_maxpool_variant() {
        let mut rng = SeededRng::new(2);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, true, &mut rng).unwrap()),
            Layer::Relu(Relu::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2).unwrap()),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(2 * 2 * 2, 2, true, &mut rng).unwrap()),
        ]);
        let back = roundtrip(&net);
        let x = rng.uniform_tensor([1, 1, 4, 4], -1.0, 1.0);
        assert_same_function(&net, &back, &x);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut rng = SeededRng::new(3);
        let net = Network::new(vec![Layer::Linear(
            Linear::new(4, 4, true, &mut rng).unwrap(),
        )]);
        let mut buf = encode(&net);
        buf.truncate(buf.len() / 2);
        assert!(read_network(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn unknown_layer_tag_is_rejected() {
        let buf = one_layer(&[200]); // bogus tag
        assert!(read_network(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn non_finite_or_non_positive_clip_bounds_are_rejected() {
        let block = ResidualBlock::new(2, 2, 1, false, Some(2.5), &mut SeededRng::new(5)).unwrap();
        let residual = encode(&Network::new(vec![Layer::Residual(block)]));
        let bound = 2.5f32.to_le_bytes();
        for lam in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -1.0] {
            // A `Clip` layer record (tag 4)…
            let mut record = vec![4];
            record.extend_from_slice(&lam.to_le_bytes());
            let err = read_network(&mut one_layer(&record).as_slice()).unwrap_err();
            assert!(err.to_string().contains("clip bound"), "{lam}: {err}");
            // …and a residual block's optional clips.
            let mut buf = residual.clone();
            for i in 0..buf.len() - 3 {
                if buf[i..i + 4] == bound {
                    buf[i..i + 4].copy_from_slice(&lam.to_le_bytes());
                }
            }
            let err = read_network(&mut buf.as_slice()).unwrap_err();
            assert!(
                err.to_string().contains("clip bound"),
                "residual {lam}: {err}"
            );
        }
    }

    #[test]
    fn dropout_seed_and_cursor_survive_roundtrip() {
        let mut d = Dropout::new(0.4, 0xD00D).unwrap();
        // Advance the mask stream so the cursor is nonzero.
        d.forward(&Tensor::ones([8]), Mode::Train);
        d.forward(&Tensor::ones([8]), Mode::Train);
        let net = Network::new(vec![Layer::Dropout(d)]);
        let back = roundtrip(&net);
        if let Layer::Dropout(b) = &back.layers()[0] {
            assert_eq!(b.seed(), 0xD00D);
            assert_eq!(b.calls(), 2);
        } else {
            panic!("expected dropout layer");
        }
    }

    #[test]
    fn mismatched_batch_norm_lengths_are_rejected() {
        // Serialize a batch-norm whose beta is shorter than gamma.
        let vec_tensor = |n: usize| {
            let mut b = Vec::new();
            b.extend_from_slice(&1u32.to_le_bytes()); // rank 1
            b.extend_from_slice(&(n as u32).to_le_bytes());
            for _ in 0..n {
                b.extend_from_slice(&1.0f32.to_le_bytes());
            }
            b
        };
        let mut record = vec![2]; // batch-norm tag
        record.extend_from_slice(&vec_tensor(4)); // gamma
        record.extend_from_slice(&vec_tensor(3)); // beta: wrong length
        record.extend_from_slice(&vec_tensor(4)); // running_mean
        record.extend_from_slice(&vec_tensor(4)); // running_var
        record.extend_from_slice(&1e-5f32.to_le_bytes());
        record.extend_from_slice(&0.1f32.to_le_bytes());
        let err = read_network(&mut one_layer(&record).as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("beta length 3"), "{msg}");
    }

    #[test]
    fn lying_tensor_header_fails_without_pre_allocating() {
        // A header that claims a large tensor (192M elements ≈ 768 MB)
        // followed by no payload: the reader must fail on the bytes that
        // remain rather than reserving the full claimed size up front.
        let mut record = vec![1]; // linear tag → weight tensor first
        record.extend_from_slice(&2u32.to_le_bytes()); // rank 2
        record.extend_from_slice(&(16 * 1024u32).to_le_bytes());
        record.extend_from_slice(&(12 * 1024u32).to_le_bytes());
        // No payload bytes at all.
        let start = std::time::Instant::now();
        let err = read_network(&mut one_layer(&record).as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Failing fast is the point: reading must not attempt the full
        // claimed payload.
        assert!(start.elapsed().as_secs() < 5);
    }

    #[test]
    fn batch_norm_statistics_survive_roundtrip() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        bn.running_mean.data_mut()[0] = 3.5;
        bn.running_var.data_mut()[1] = 0.25;
        bn.gamma.value.data_mut()[0] = 2.0;
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(2, 2, 1, 1, 0, false, &mut SeededRng::new(4)).unwrap()),
            Layer::BatchNorm2d(bn),
        ]);
        let back = roundtrip(&net);
        if let Layer::BatchNorm2d(b) = &back.layers()[1] {
            assert_eq!(b.running_mean.at(0), 3.5);
            assert_eq!(b.running_var.at(1), 0.25);
            assert_eq!(b.gamma.value.at(0), 2.0);
        } else {
            panic!("expected batch-norm layer");
        }
    }
}
