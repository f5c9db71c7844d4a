//! Crash-safety guarantees of the checkpoint/resume subsystem.
//!
//! The contract under test:
//!
//! 1. **Bit-exact resume** — training N epochs straight and training N/2
//!    epochs, "crashing", and resuming for the remaining N/2 produce
//!    identical networks at 0 ulp (parameters, momentum buffers, dropout
//!    cursors, and per-epoch reports all match).
//! 2. **Corruption fallback** — a corrupted newest snapshot silently falls
//!    back to the previous one; with no valid snapshot at all, training
//!    restarts from scratch. Neither case panics, and both still converge
//!    to the bit-identical straight-run result.
//! 3. **Detection** — any single-byte corruption of a snapshot is either
//!    detected (structured error) or provably harmless (the parsed state is
//!    bit-identical to the original). Never a panic, never a silently
//!    wrong network. Behind a resealed CRC, the network decoder itself is
//!    total: any mutation of the NETWORK section is an `Ok` or an `Err`.
//! 4. **Cache** — re-running a finished store trains and writes nothing.

use proptest::prelude::*;
use tcl_nn::layers::{
    AvgPool2d, BatchNorm2d, Clip, Conv2d, Dropout, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
    ResidualBlock,
};
use tcl_nn::{
    config_fingerprint, AugmentConfig, CheckpointConfig, CheckpointStore, Layer, Network, NnError,
    TrainCheckpoint, TrainConfig, TrainReport, Trainer,
};
use tcl_tensor::{SeededRng, Tensor};

fn blob_data(seed: u64, n_per_class: usize) -> (Tensor, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for class in 0..2usize {
        let cx = if class == 0 { 1.5 } else { -1.5 };
        for _ in 0..n_per_class {
            xs.push(cx + 0.4 * rng.normal());
            xs.push(cx + 0.4 * rng.normal());
            ys.push(class);
        }
    }
    (Tensor::from_vec([n_per_class * 2, 2], xs).unwrap(), ys)
}

/// Rank-4 variant of the blob data so augmentation (which requires NCHW
/// inputs) draws from the shared RNG stream during training.
fn image_blob_data(seed: u64, n_per_class: usize) -> (Tensor, Vec<usize>) {
    let (flat, ys) = blob_data(seed, n_per_class);
    let n = ys.len();
    let mut xs = vec![0.0f32; n * 4];
    for i in 0..n {
        // Tile the 2-vector into a 1×2×2 "image".
        xs[i * 4] = flat.data()[i * 2];
        xs[i * 4 + 1] = flat.data()[i * 2 + 1];
        xs[i * 4 + 2] = flat.data()[i * 2];
        xs[i * 4 + 3] = flat.data()[i * 2 + 1];
    }
    (Tensor::from_vec([n, 1, 2, 2], xs).unwrap(), ys)
}

/// Dropout makes resume interesting: its mask stream has its own cursor
/// that must be restored exactly.
fn mlp(seed: u64) -> Network {
    let mut rng = SeededRng::new(seed);
    Network::new(vec![
        Layer::Linear(Linear::new(2, 16, true, &mut rng).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(2.0)),
        Layer::Dropout(Dropout::new(0.25, 42).unwrap()),
        Layer::Linear(Linear::new(16, 2, true, &mut rng).unwrap()),
    ])
}

fn image_mlp(seed: u64) -> Network {
    let mut rng = SeededRng::new(seed);
    Network::new(vec![
        Layer::Flatten(tcl_nn::layers::Flatten::new()),
        Layer::Linear(Linear::new(4, 16, true, &mut rng).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(2.0)),
        Layer::Dropout(Dropout::new(0.25, 42).unwrap()),
        Layer::Linear(Linear::new(16, 2, true, &mut rng).unwrap()),
    ])
}

/// Bitwise fingerprint of every parameter value and momentum buffer, plus
/// every dropout layer's mask cursor.
fn bit_state(net: &Network) -> (Vec<u32>, Vec<u32>, Vec<(u64, u64)>) {
    let mut net = net.clone();
    let mut values = Vec::new();
    let mut momenta = Vec::new();
    net.visit_params(&mut |p| {
        values.extend(p.value.data().iter().map(|v| v.to_bits()));
        momenta.extend(p.momentum.data().iter().map(|v| v.to_bits()));
    });
    let mut dropout = Vec::new();
    for layer in net.layers() {
        if let Layer::Dropout(d) = layer {
            dropout.push((d.seed(), d.calls()));
        }
    }
    (values, momenta, dropout)
}

fn reports_bit_equal(a: &TrainReport, b: &TrainReport) {
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.train_loss.to_bits(), y.train_loss.to_bits());
        assert_eq!(x.train_accuracy.to_bits(), y.train_accuracy.to_bits());
        assert_eq!(
            x.eval_accuracy.map(f32::to_bits),
            y.eval_accuracy.map(f32::to_bits)
        );
        assert_eq!(x.learning_rate.to_bits(), y.learning_rate.to_bits());
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tcl-resume-{tag}-{}", std::process::id()))
}

#[test]
fn kill_and_resume_is_bit_exact() {
    let (x, y) = blob_data(0, 30);
    let (ex, ey) = blob_data(1, 10);
    let mut cfg = TrainConfig::standard(10, 16, 0.05, &[6]).unwrap();
    cfg.shuffle_seed = 0xBEEF;

    // Straight 10-epoch run, no checkpointing at all.
    let mut straight = mlp(3);
    let straight_report = Trainer::new(cfg.clone())
        .run(&mut straight, &x, &y, Some((&ex, &ey)))
        .unwrap();

    // "Crashed" run: 5 epochs with a snapshot at epoch 5, then a fresh
    // process (fresh identically-constructed network) resumes to 10.
    let dir = temp_dir("exact");
    tcl_nn::checkpoint::clear_store(&dir);
    let mut first_cfg = cfg.clone();
    first_cfg.epochs = 5;
    let mut victim = mlp(3);
    Trainer::new(first_cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(5))
        .run_resumable(&mut victim, &x, &y, Some((&ex, &ey)))
        .unwrap();

    let mut resumed = mlp(3);
    let resumed_report = Trainer::new(cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(5))
        .run_resumable(&mut resumed, &x, &y, Some((&ex, &ey)))
        .unwrap();

    let (sv, sm, sd) = bit_state(&straight);
    let (rv, rm, rd) = bit_state(&resumed);
    assert_eq!(sv, rv, "parameter values differ after resume");
    assert_eq!(sm, rm, "momentum buffers differ after resume");
    assert_eq!(sd, rd, "dropout cursors differ after resume");
    reports_bit_equal(&straight_report, &resumed_report);

    tcl_nn::checkpoint::clear_store(&dir);
}

#[test]
fn kill_and_resume_is_bit_exact_with_augmentation() {
    // Augmentation draws from the same RNG as the shuffle, so this covers
    // resuming mid-stream of a heavier RNG consumption pattern.
    let (x, y) = image_blob_data(5, 20);
    let mut cfg = TrainConfig::standard(6, 8, 0.05, &[4]).unwrap();
    cfg.augment = Some(AugmentConfig {
        horizontal_flip: true,
        max_shift: 1,
    });

    let mut straight = image_mlp(7);
    Trainer::new(cfg.clone())
        .run(&mut straight, &x, &y, None)
        .unwrap();

    let dir = temp_dir("augment");
    tcl_nn::checkpoint::clear_store(&dir);
    let mut first_cfg = cfg.clone();
    first_cfg.epochs = 3;
    let mut victim = image_mlp(7);
    Trainer::new(first_cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(3))
        .run_resumable(&mut victim, &x, &y, None)
        .unwrap();
    let mut resumed = image_mlp(7);
    Trainer::new(cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(3))
        .run_resumable(&mut resumed, &x, &y, None)
        .unwrap();

    let (sv, sm, sd) = bit_state(&straight);
    let (rv, rm, rd) = bit_state(&resumed);
    assert_eq!(sv, rv);
    assert_eq!(sm, rm);
    assert_eq!(sd, rd);

    tcl_nn::checkpoint::clear_store(&dir);
}

#[test]
fn corrupted_newest_snapshot_falls_back_and_still_matches() {
    let (x, y) = blob_data(2, 20);
    let cfg = TrainConfig::standard(8, 8, 0.05, &[5]).unwrap();

    let mut straight = mlp(9);
    Trainer::new(cfg.clone())
        .run(&mut straight, &x, &y, None)
        .unwrap();

    // Snapshot every 2 epochs for 6 epochs, keeping 2 → snapshots at 4, 6.
    let dir = temp_dir("fallback");
    tcl_nn::checkpoint::clear_store(&dir);
    let mut first_cfg = cfg.clone();
    first_cfg.epochs = 6;
    let mut victim = mlp(9);
    Trainer::new(first_cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(2))
        .run_resumable(&mut victim, &x, &y, None)
        .unwrap();

    // Corrupt the newest snapshot (epoch 6): the resume must fall back to
    // epoch 4 and still reach the bit-identical straight-run result.
    let store = CheckpointStore::new(&CheckpointConfig::new(&dir));
    let snapshots = store.list();
    assert_eq!(
        snapshots.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        vec![4, 6]
    );
    let newest = &snapshots.last().unwrap().1;
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(newest, &bytes).unwrap();

    let mut resumed = mlp(9);
    Trainer::new(cfg.clone())
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(2))
        .run_resumable(&mut resumed, &x, &y, None)
        .unwrap();
    let (sv, sm, _) = bit_state(&straight);
    let (rv, rm, _) = bit_state(&resumed);
    assert_eq!(sv, rv, "fallback resume must still be bit-exact");
    assert_eq!(sm, rm);

    // Destroy every snapshot: training restarts from scratch and still
    // matches the straight run (the network is reconstructed identically).
    for (_, path) in store.list() {
        std::fs::write(path, b"garbage").unwrap();
    }
    let mut from_scratch = mlp(9);
    Trainer::new(cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(2))
        .run_resumable(&mut from_scratch, &x, &y, None)
        .unwrap();
    let (fv, _, _) = bit_state(&from_scratch);
    assert_eq!(sv, fv, "scratch restart after total corruption");

    tcl_nn::checkpoint::clear_store(&dir);
}

#[test]
fn mismatched_hyperparameters_refuse_to_resume() {
    let (x, y) = blob_data(4, 10);
    let cfg = TrainConfig::standard(2, 8, 0.05, &[]).unwrap();
    let dir = temp_dir("fingerprint");
    tcl_nn::checkpoint::clear_store(&dir);
    let mut net = mlp(11);
    Trainer::new(cfg.clone())
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(1))
        .run_resumable(&mut net, &x, &y, None)
        .unwrap();

    let mut other = cfg.clone();
    other.shuffle_seed ^= 1;
    assert_ne!(config_fingerprint(&cfg), config_fingerprint(&other));
    let mut net2 = mlp(11);
    let err = Trainer::new(other)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(1))
        .run_resumable(&mut net2, &x, &y, None)
        .unwrap_err();
    assert!(
        matches!(err, NnError::Checkpoint { .. }),
        "expected checkpoint error, got {err}"
    );

    // Extending the epoch budget is NOT a hyper-parameter change.
    let mut longer = cfg.clone();
    longer.epochs = 4;
    let mut net3 = mlp(11);
    let report = Trainer::new(longer)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(1))
        .run_resumable(&mut net3, &x, &y, None)
        .unwrap();
    assert_eq!(report.epochs.len(), 4);

    tcl_nn::checkpoint::clear_store(&dir);
}

#[test]
fn finished_store_is_a_cache() {
    // A store whose newest snapshot is the last epoch is a model cache:
    // re-running the same config resumes at epoch N/N, trains nothing,
    // writes nothing, and hands back the stored network bit-exactly.
    let (x, y) = blob_data(10, 10);
    let cfg = TrainConfig::standard(4, 8, 0.05, &[3]).unwrap();
    let dir = temp_dir("cache");
    tcl_nn::checkpoint::clear_store(&dir);
    let trainer = Trainer::new(cfg).with_checkpoints(CheckpointConfig::new(&dir).with_every(1));
    let mut trained = mlp(19);
    let trained_report = trainer.run_resumable(&mut trained, &x, &y, None).unwrap();

    let store = CheckpointStore::new(&CheckpointConfig::new(&dir));
    let files = |store: &CheckpointStore| -> Vec<_> {
        store
            .list()
            .into_iter()
            .map(|(epoch, path)| {
                let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
                (epoch, modified, std::fs::read(&path).unwrap())
            })
            .collect()
    };
    let before = files(&store);

    // A differently initialised network: had any epoch run, the result
    // would not be the stored one.
    let mut cached = mlp(20);
    let cached_report = trainer.run_resumable(&mut cached, &x, &y, None).unwrap();
    assert_eq!(bit_state(&cached), bit_state(&trained));
    reports_bit_equal(&cached_report, &trained_report);
    assert!(files(&store) == before, "a cache hit rewrote the store");

    tcl_nn::checkpoint::clear_store(&dir);
}

fn reference_checkpoint() -> TrainCheckpoint {
    let (x, y) = blob_data(8, 10);
    let cfg = TrainConfig::standard(2, 8, 0.05, &[]).unwrap();
    let dir = temp_dir("proptest-src");
    tcl_nn::checkpoint::clear_store(&dir);
    let mut net = mlp(17);
    Trainer::new(cfg)
        .with_checkpoints(CheckpointConfig::new(&dir).with_every(2))
        .run_resumable(&mut net, &x, &y, None)
        .unwrap();
    let store = CheckpointStore::new(&CheckpointConfig::new(&dir));
    let ckpt = store.load_latest().expect("run must leave a snapshot");
    tcl_nn::checkpoint::clear_store(&dir);
    ckpt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite 5: ANY single-byte corruption of a v2 checkpoint either
    /// fails with a structured error or decodes to exactly the original
    /// state — never a panic, never a silently different network.
    #[test]
    fn single_byte_corruption_is_detected_or_harmless(
        pos in 0usize..1_000_000,
        flip in 1usize..256,
    ) {
        let original = reference_checkpoint();
        let bytes = original.to_bytes().unwrap();
        let idx = pos % bytes.len();
        let mut mutated = bytes.clone();
        mutated[idx] ^= flip as u8;

        match TrainCheckpoint::from_bytes(&mutated) {
            Err(_) => {} // detected: structured error, no panic
            Ok(decoded) => {
                // Undetected flips must be semantically invisible.
                prop_assert_eq!(decoded.epochs_done, original.epochs_done);
                prop_assert_eq!(decoded.config_fingerprint, original.config_fingerprint);
                prop_assert_eq!(decoded.rng_state, original.rng_state);
                let (ov, om, od) = bit_state(&original.network);
                let (dv, dm, dd) = bit_state(&decoded.network);
                prop_assert_eq!(ov, dv);
                prop_assert_eq!(om, dm);
                prop_assert_eq!(od, dd);
            }
        }
    }
}

/// A snapshot whose network holds every layer record the codec knows:
/// conv, linear, batch-norm, clip, both pools, global pool, flatten,
/// dropout, and residual blocks with an identity and a projection
/// shortcut (one with batch-norm and clips, one without either).
fn every_layer_checkpoint() -> TrainCheckpoint {
    let mut rng = SeededRng::new(23);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, true, &mut rng).unwrap()),
        Layer::BatchNorm2d(BatchNorm2d::new(2).unwrap()),
        Layer::Relu(Relu::new()),
        Layer::Clip(Clip::new(1.5)),
        Layer::Residual(ResidualBlock::new(2, 2, 1, false, None, &mut rng).unwrap()),
        Layer::Residual(ResidualBlock::new(2, 4, 2, true, Some(2.0), &mut rng).unwrap()),
        Layer::MaxPool2d(MaxPool2d::new(2, 2).unwrap()),
        Layer::AvgPool2d(AvgPool2d::new(2, 2).unwrap()),
        Layer::GlobalAvgPool(GlobalAvgPool::new()),
        Layer::Flatten(Flatten::new()),
        Layer::Dropout(Dropout::new(0.25, 5).unwrap()),
        Layer::Linear(Linear::new(4, 2, true, &mut rng).unwrap()),
    ]);
    let cfg = TrainConfig::standard(1, 8, 0.05, &[]).unwrap();
    let report = TrainReport { epochs: Vec::new() };
    TrainCheckpoint::capture(&net, &SeededRng::new(1), &report, &cfg, 0)
}

/// Applies `edit` to the NETWORK section's payload and rewrites that
/// section's length and CRC, so the container accepts the edited bytes
/// and hands them to the network decoder.
fn reseal_network(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    const NETWORK: u8 = 2;
    let mut out = bytes[..12].to_vec(); // magic, version, section count
    let mut at = 12;
    let mut edit = Some(edit);
    while at < bytes.len() {
        let tag = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        let start = at + 13;
        let mut payload = bytes[start..start + len].to_vec();
        let mut crc = u32::from_le_bytes(bytes[at + 9..start].try_into().unwrap());
        if tag == NETWORK {
            (edit.take().unwrap())(&mut payload);
            crc = tcl_nn::checkpoint::crc32(&payload);
        }
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&payload);
        at = start + len;
    }
    assert!(edit.is_none(), "no NETWORK section found");
    out
}

/// Four-byte values a corrupt length, dimension or float field is most
/// likely to be wrong with: zero, one, huge, negative, NaN and infinities.
const NASTY_WORDS: [u32; 8] = [
    0,
    1,
    u32::MAX,
    0x8000_0000,
    0x7FC0_0000, // NaN
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0xBF80_0000, // -1.0
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The network decoder is total on its own: with the CRC resealed over
    /// the mutated NETWORK payload, every overwrite, nasty-word splice,
    /// insertion or truncation decodes to `Ok` or `Err`, never a panic.
    #[test]
    fn resealed_network_mutations_never_panic(
        edits in proptest::collection::vec((0u8..4, 0usize..1_000_000, 0u32..256), 1..4),
    ) {
        let bytes = every_layer_checkpoint().to_bytes().unwrap();
        let mutated = reseal_network(&bytes, |payload| {
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
        let _ = TrainCheckpoint::from_bytes(&mutated);
    }
}

#[test]
fn resealing_an_untouched_network_section_round_trips() {
    // Guards the mutation test above: its resealing alone must decode.
    let bytes = every_layer_checkpoint().to_bytes().unwrap();
    assert_eq!(reseal_network(&bytes, |_| {}), bytes);
    assert!(TrainCheckpoint::from_bytes(&bytes).is_ok());
}
